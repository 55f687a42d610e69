"""Span self-time arithmetic, cross-thread parenting and patch restore."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Patcher, Span, Tracer, self_times, union_length


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(1.0, 1.0), (2.0, 1.5)]) == 0.0
    assert union_length([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_nested_children():
    spans = {
        0: Span("root", 0.0, 10.0, None),
        1: Span("child", 1.0, 4.0, 0),
        2: Span("child", 5.0, 6.0, 0),
        3: Span("grandchild", 2.0, 3.0, 1),
    }
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Two pool-thread solves under one round, overlapping in [2, 3].
    spans = {
        0: Span("round", 0.0, 5.0, None),
        1: Span("solve", 1.0, 3.0, 0),
        2: Span("solve", 2.0, 4.0, 0),
    }
    assert self_times(spans)[0] == pytest.approx(5.0 - 3.0)


def test_child_outliving_its_parent_is_clipped():
    spans = {0: Span("parent", 0.0, 2.0, None), 1: Span("child", 1.0, 5.0, 0)}
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_pool_thread_spans_are_parented_on_the_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work():
        with tracer.span("solve"):
            barrier.wait()  # both solves are open at once

    with ThreadPoolExecutor(max_workers=2) as pool:
        with tracer.span("round") as round_id:
            futures = [pool.submit(tracer.adopt(work, tracer.current())) for _ in range(2)]
            for f in futures:
                f.result(timeout=10)
        with tracer.span("eval"):
            pass
    by_name = {}
    for sid, span in tracer.spans.items():
        by_name.setdefault(span.name, []).append((sid, span))
    assert [s.parent for _, s in by_name["solve"]] == [round_id, round_id]
    assert by_name["eval"][0][1].parent is None
    solves = [s for _, s in by_name["solve"]]
    round_span = tracer.spans[round_id]
    covered = union_length((s.start, s.end) for s in solves)
    self_s, incl_s, calls = tracer.totals()
    assert calls["solve"] == 2
    assert self_s["round"] == pytest.approx(round_span.duration - covered)
    assert incl_s["solve"] == pytest.approx(sum(s.duration for s in solves))


def test_wrap_runs_after_hook_inside_the_span():
    tracer = Tracer()
    seen = []
    wrapped = tracer.wrap(lambda x: x * 2, "double", lambda r, a, k: seen.append((r, a, tracer.current())))
    assert wrapped(4) == 8
    (sid, span), = tracer.spans.items()
    assert span.name == "double" and seen == [(8, (4,), sid)]


class _Base:
    def method(self):
        return "base"


class _Child(_Base):
    def own(self):
        return "own"


def test_patcher_restores_own_and_inherited_attributes():
    patcher = Patcher()
    patcher.replace(_Child, "method", lambda fn: lambda self: "patched " + fn(self))
    patcher.replace(_Child, "own", lambda fn: lambda self: "patched " + fn(self))
    assert _Child().method() == "patched base" and _Child().own() == "patched own"
    patcher.restore()
    assert "method" not in vars(_Child)
    assert _Child().method() == "base" and _Child().own() == "own"
