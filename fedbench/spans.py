"""In-memory span recorder and monkey-patching for outside-in tracing.

The benchmark never edits the program: it replaces a public function at
the name its caller looks up (``repro.fl.server.global_accuracy``, a
class attribute such as ``Conv2D.forward``, ...) with a wrapper that
opens a span, and restores the original when the run ends.  Spans stay
in memory; nothing is written until the benchmark reports.

A span's parent is the innermost open span of the same thread.  Work
submitted to a thread pool is parented explicitly on the span that was
open on the *submitting* thread (see :meth:`Tracer.adopt`), so client
solves on pool threads nest under their round.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Dict[int, Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap each other (parallel solves on pool threads
    parented on one round span), so the covered part is the length of
    the union of the children's intervals, clipped to the parent's.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans.values():
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for sid, span in spans.items():
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(sid, ())
        )
        out[sid] = span.duration - covered
    return out


class Tracer:
    """Collects spans from any thread plus named counters."""

    def __init__(self) -> None:
        self.spans: Dict[int, Span] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Optional[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(name, start, end, parent)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a ``name`` span; ``after(result, args, kwargs)``
        runs inside the span once ``fn`` returns."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result

        return traced

    def adopt(self, fn: Callable, parent: Optional[int]) -> Callable:
        """``fn`` run with ``parent`` as the open span of whichever thread
        calls it — the pool-thread half of cross-thread parenting."""

        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time, summed duration, call count."""
        selfs = self_times(self.spans)
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for sid, span in self.spans.items():
            self_s[span.name] += selfs[sid]
            incl_s[span.name] += span.duration
            calls[span.name] += 1
        return self_s, incl_s, calls

    def covered(self, names: Iterable[str]) -> float:
        """Wall time during which at least one span of ``names`` was open."""
        wanted = set(names)
        return union_length(
            (s.start, s.end) for s in self.spans.values() if s.name in wanted
        )


class Patcher:
    """Replaces attributes and puts every original back on :meth:`restore`."""

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], object]) -> None:
        """Set ``owner.attr = make(current value)``.

        ``current value`` is what attribute lookup finds (possibly
        inherited); restoring puts back only what ``owner`` itself held.
        """
        own = vars(owner).get(attr, self._MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
