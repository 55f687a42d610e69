"""Append-only, crash-safe run ledger (``repro.ledger/v1``).

The ledger is the durable counterpart of the ``repro.obs/v1`` event
trace: where the trace records *everything that happened* at span
granularity, the ledger records *what the run committed to* — a run
manifest (resolved configuration, RNG entropy, platform, package
digest) followed by one committed record per round, each carrying a
monotonically increasing cursor and flushed+fsynced before the next
round starts.  A process crash therefore loses at most the round in
flight; the reader tolerates a torn final line and reports the last
committed cursor, which is exactly the resume point the
checkpoint/resume control plane (ROADMAP item 4) needs.

Event types (one JSON object per line):

``manifest``
    first line of every ledger: schema tag, run id, resolved config,
    RNG entropy, platform triple, package digest.
``round``
    one committed round: ``cursor``, ``round``, ``evaluated``,
    ``record`` (``asdict`` of the round's :class:`RoundRecord`),
    ``sim_time``.
``alert``
    a structured monitor alert (see :mod:`repro.obs.monitors`).
``hotspots``
    a span self-time snapshot (perfbench drill-downs).
``end``
    final line on clean shutdown: totals + run status.

Every event after the manifest carries the shared monotonic ``cursor``.
The module is stdlib-only and sits at layer 0 of the layering DAG, like
the rest of ``repro.obs``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, TextIO

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerError",
    "LedgerReader",
    "RoundRecord",
    "RunLedger",
    "package_digest",
]

#: schema tag stamped into every ledger's manifest
LEDGER_SCHEMA = "repro.ledger/v1"

#: event types every ``repro.ledger/v1`` consumer must understand
EVENT_TYPES = ("manifest", "round", "alert", "hotspots", "end")


@dataclass
class RoundRecord:
    """One global iteration: the single per-round shape.

    The server builds it after aggregation with the evaluation fields
    left ``None``; on evaluated rounds training fills ``train_loss``,
    ``grad_norm`` and ``test_accuracy``.  The same object goes to the
    history (evaluated rounds only), the ledger and the monitors.
    """

    round_index: int
    train_loss: Optional[float] = None
    grad_norm: Optional[float] = None
    test_accuracy: Optional[float] = None
    sim_time: float = 0.0
    wall_time: Optional[float] = None
    mean_local_steps: float = 0.0
    mean_gradient_evaluations: float = 0.0
    mean_achieved_theta: Optional[float] = None
    #: max − median per-client wall seconds for the round, measured by
    #: the executor's ``local_solve`` spans; ``None`` when telemetry was
    #: off (histories written before this field existed load as ``None``)
    straggler_gap: Optional[float] = None
    #: FedProx-style Γ̂ gradient-dissimilarity of the round's cohort
    #: (Σ p̃ₙ‖∇Jₙ(w)‖² over ‖·‖² of the weighted mean norm); ``None`` in
    #: histories written before repro.obs v2 added the estimate
    grad_dissimilarity: Optional[float] = None

    @property
    def evaluated(self) -> bool:
        """Whether the global metrics were measured this round."""
        return self.train_loss is not None


class LedgerError(ValueError):
    """A ledger file violates the ``repro.ledger/v1`` contract."""


_digest_cache: Dict[str, str] = {}


def package_digest() -> str:
    """SHA-256 digest over the installed ``repro`` package sources.

    Folds every ``*.py`` file under the package root (sorted by relative
    path) into one hex digest, so two ledgers written by byte-identical
    code carry the same value — the cheap provenance check for
    cross-run diffs.  Cached per process.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cached = _digest_cache.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as fh:
                digest.update(fh.read())
    value = digest.hexdigest()
    _digest_cache[root] = value
    return value


class RunLedger:
    """Writer: append committed events to a JSONL ledger file.

    ``commit_round`` (and every alert) is flushed and ``fsync``-ed
    before returning, so the file on disk always ends on a committed
    event boundary — the crash-safety contract the reader relies on.
    Thread-safe: monitors may append alerts from sink callbacks while
    the server commits rounds.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = path
        self._fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self._cursor = -1
        self._rounds = 0
        self._alerts = 0
        self._manifest_written = False
        self._closed = False
        self.run_id = hashlib.sha256(os.urandom(16)).hexdigest()[:12]

    # -- writing ------------------------------------------------------

    def write_manifest(
        self,
        config: Dict[str, Any],
        *,
        entropy: Optional[Dict[str, Any]] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """First event: schema + resolved config + provenance."""
        event: Dict[str, Any] = {
            "type": "manifest",
            "schema": LEDGER_SCHEMA,
            "run_id": self.run_id,
            "created_unix": time.time(),
            "config": dict(config),
            "entropy": dict(entropy or {}),
            "platform": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "system": platform.system(),
            },
            "packages": {
                "repro_source_sha256": package_digest(),
                "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
            },
        }
        if attrs:
            event["attrs"] = dict(attrs)
        with self._lock:
            if self._manifest_written:
                raise LedgerError("manifest already written")
            self._manifest_written = True
            self._write(event, durable=True)

    def commit_round(self, record: RoundRecord) -> int:
        """Durably commit one round's record; returns its cursor."""
        with self._lock:
            self._cursor += 1
            self._rounds += 1
            event = {
                "type": "round",
                "cursor": self._cursor,
                "round": int(record.round_index),
                "evaluated": record.evaluated,
                "sim_time": record.sim_time,
                "record": asdict(record),
            }
            self._write(event, durable=True)
            return self._cursor

    def alert(
        self,
        round_index: int,
        monitor: str,
        message: str,
        *,
        severity: str = "error",
        evidence: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Append one structured monitor alert (durably)."""
        with self._lock:
            self._cursor += 1
            self._alerts += 1
            event = {
                "type": "alert",
                "cursor": self._cursor,
                "round": int(round_index),
                "monitor": str(monitor),
                "severity": str(severity),
                "message": str(message),
                "evidence": dict(evidence or {}),
            }
            self._write(event, durable=True)
            return self._cursor

    def hotspots(self, spans: List[Dict[str, Any]], *, label: str = "") -> int:
        """Append a span self-time snapshot (perfbench drill-down)."""
        with self._lock:
            self._cursor += 1
            event = {
                "type": "hotspots",
                "cursor": self._cursor,
                "label": label,
                "spans": [dict(s) for s in spans],
            }
            self._write(event, durable=False)
            return self._cursor

    def close(self, status: str = "completed") -> None:
        """Write the ``end`` event and close the file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cursor += 1
            self._write(
                {
                    "type": "end",
                    "cursor": self._cursor,
                    "rounds": self._rounds,
                    "alerts": self._alerts,
                    "status": str(status),
                },
                durable=True,
            )
            assert self._fh is not None
            self._fh.close()
            self._fh = None

    # -- internals ----------------------------------------------------

    def _write(self, event: Dict[str, Any], *, durable: bool) -> None:
        if self._fh is None:
            raise LedgerError(f"RunLedger({self.path!r}) already closed")
        self._fh.write(json.dumps(event, default=float,
                                  separators=(",", ":")) + "\n")
        if durable:
            self._fh.flush()
            if self._fsync:
                os.fsync(self._fh.fileno())

    @property
    def cursor(self) -> int:
        """Cursor of the last committed event (-1 before the first)."""
        return self._cursor

    @property
    def alert_count(self) -> int:
        return self._alerts

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(status="completed" if exc_type is None else "failed")


class LedgerReader:
    """Reader: validate a ledger, tail it, resume from any cursor.

    A torn final line (the crash case: the process died mid-write) is
    dropped and surfaced via :attr:`truncated`; a malformed line
    *before* the end is real corruption and raises :class:`LedgerError`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.events: List[Dict[str, Any]] = []
        self.truncated = False
        self._load()

    def _load(self) -> None:
        raw_lines: List[str] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    raw_lines.append(line)
        for i, line in enumerate(raw_lines):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                if i == len(raw_lines) - 1:
                    # Torn final line: the write in flight when the
                    # process died.  Everything before it committed.
                    self.truncated = True
                    break
                raise LedgerError(
                    f"{self.path}:{i + 1}: corrupt mid-file line: {exc}"
                ) from exc
            if not isinstance(event, dict):
                raise LedgerError(f"{self.path}:{i + 1}: event is not an object")
            self.events.append(event)

    # -- validation ---------------------------------------------------

    def validate(self) -> List[str]:
        """All ``repro.ledger/v1`` contract violations (empty = valid)."""
        errors: List[str] = []
        if not self.events:
            return [f"{self.path}: ledger contains no events"]
        first = self.events[0]
        if first.get("type") != "manifest":
            errors.append(f"{self.path}: first event must be 'manifest'")
        elif first.get("schema") != LEDGER_SCHEMA:
            errors.append(
                f"{self.path}: manifest schema is {first.get('schema')!r}, "
                f"expected {LEDGER_SCHEMA!r}"
            )
        prev_cursor = -1
        prev_round = 0
        for i, event in enumerate(self.events):
            where = f"{self.path}: event {i}"
            etype = event.get("type")
            if etype not in EVENT_TYPES:
                errors.append(f"{where}: unknown event type {etype!r}")
                continue
            if etype == "manifest":
                if i != 0:
                    errors.append(f"{where}: manifest must be the first event")
                continue
            cursor = event.get("cursor")
            if not isinstance(cursor, int):
                errors.append(f"{where}: {etype} event missing integer cursor")
            elif cursor <= prev_cursor:
                errors.append(
                    f"{where}: cursor {cursor} not monotonic "
                    f"(previous {prev_cursor})"
                )
            else:
                prev_cursor = cursor
            if etype == "round":
                rnd = event.get("round")
                if not isinstance(rnd, int) or rnd < prev_round:
                    errors.append(
                        f"{where}: round index {rnd!r} must be a "
                        f"non-decreasing integer (previous {prev_round})"
                    )
                else:
                    prev_round = rnd
                if not isinstance(event.get("record"), dict):
                    errors.append(f"{where}: round event missing 'record'")
            if etype == "alert":
                for field in ("monitor", "severity", "message"):
                    if not isinstance(event.get(field), str):
                        errors.append(
                            f"{where}: alert event missing string {field!r}"
                        )
            if etype == "end" and i != len(self.events) - 1:
                errors.append(f"{where}: end event must be the last event")
        return errors

    # -- queries ------------------------------------------------------

    @property
    def manifest(self) -> Optional[Dict[str, Any]]:
        if self.events and self.events[0].get("type") == "manifest":
            return self.events[0]
        return None

    def by_type(self, event_type: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e.get("type") == event_type]

    def rounds(self) -> List[Dict[str, Any]]:
        return self.by_type("round")

    def alerts(self) -> List[Dict[str, Any]]:
        return self.by_type("alert")

    @property
    def last_cursor(self) -> int:
        """Largest committed cursor (-1 for a manifest-only ledger)."""
        cursors = [
            e["cursor"] for e in self.events
            if isinstance(e.get("cursor"), int)
        ]
        return max(cursors) if cursors else -1

    @property
    def last_committed_round(self) -> Optional[int]:
        rounds = self.rounds()
        return rounds[-1]["round"] if rounds else None

    @property
    def status(self) -> Optional[str]:
        ends = self.by_type("end")
        return ends[-1].get("status") if ends else None

    def tail(self, from_cursor: int = 0) -> Iterator[Dict[str, Any]]:
        """Events at or after ``from_cursor`` (manifest excluded)."""
        for event in self.events:
            cursor = event.get("cursor")
            if isinstance(cursor, int) and cursor >= from_cursor:
                yield event

    def resume_point(self) -> Dict[str, Any]:
        """Where a resumed run would pick up: last committed cursor/round.

        ``next_round`` is the first round index whose record is *not*
        on disk — the round a checkpoint/resume control plane replays.
        """
        last_round = self.last_committed_round
        return {
            "cursor": self.last_cursor,
            "round": last_round,
            "next_round": 1 if last_round is None else last_round + 1,
            "truncated": self.truncated,
            "status": self.status,
        }
