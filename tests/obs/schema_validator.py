"""Stdlib validator for the ``repro.obs/v1`` JSONL event schema.

Used two ways:

* imported by the obs test suite (``validate_event`` / ``validate_file``);
* run by CI as a script over a real trace::

      python tests/obs/schema_validator.py trace.jsonl
      python tests/obs/schema_validator.py --ledger run.ledger.jsonl

  exits non-zero and prints one line per violation if any event does
  not conform to the schema documented in ``docs/OBSERVABILITY.md``
  (``repro.obs/v1`` traces, or ``repro.ledger/v1`` run ledgers with
  ``--ledger``).

Beyond structure, traces are checked against the *registries* of span
and metric names the instrumentation is allowed to emit
(:data:`KNOWN_SPAN_NAMES` / :data:`KNOWN_METRIC_NAMES`): a typo'd or
undocumented name is a schema violation, which keeps the docs and the
code from drifting apart.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

NUMBER = (int, float)

#: event type -> {field: (types, required)}
_SPEC: Dict[str, Dict[str, tuple]] = {
    "meta": {
        "schema": ((str,), True),
        "nn_profiling": ((bool,), True),
        "attrs": ((dict,), False),
    },
    "span": {
        "name": ((str,), True),
        "span_id": ((int,), True),
        "parent_id": ((int, type(None)), True),
        "t_wall": (NUMBER, True),
        "duration": (NUMBER, True),
        "thread": ((str,), True),
        # set only on externally-reported spans (mp workers)
        "process": ((str,), False),
        "attrs": ((dict,), True),
        "sim_time": (NUMBER + (type(None),), True),
    },
    "round_metrics": {
        "round": ((int,), True),
        "sim_time": (NUMBER + (type(None),), True),
        "metrics": ((dict,), True),
    },
    "run_summary": {
        "sim_time": (NUMBER + (type(None),), True),
        "metrics": ((dict,), True),
        "spans_emitted": ((int,), True),
    },
}

_METRIC_KINDS = ("counter", "gauge", "histogram")

#: every span name the instrumentation may emit (docs/OBSERVABILITY.md)
KNOWN_SPAN_NAMES = frozenset(
    {
        "run",
        "estimate_smoothness",
        "round",
        "eval",
        "local_solve",
        "cohort_solve",
    }
)

#: every metric base name (the part before an optional ``{key}``)
KNOWN_METRIC_NAMES = frozenset(
    {
        "fl.client.local_steps",
        "fl.client.grad_evals",
        "fl.client.achieved_theta",
        "fl.client.achieved_theta_dist",
        "fl.run.smoothness_L",
        "fl.run.step_size_eta",
        "fl.round.straggler_gap",
        "fl.round.grad_dissimilarity",
        "fl.registry.size",
        "fl.cohort.lru_hits",
        "fl.cohort.hydrations",
        "fl.cohort.evictions",
        "nn.conv2d.im2col_seconds",
        "nn.conv2d.col2im_seconds",
        "nn.layer.forward_seconds",
        "nn.layer.backward_seconds",
        "obs.monitor.alerts",
        "backend.shm.created",
        "backend.shm.attached",
        "backend.shm.unlinked",
    }
)

#: ledger event types, in the only order sections may appear
_LEDGER_SCHEMA = "repro.ledger/v1"
_LEDGER_TYPES = ("manifest", "round", "alert", "hotspots", "end")


def _metric_base(mid: str) -> str:
    """``name{key}`` -> ``name`` (metric ids embed the optional key)."""
    return mid.split("{", 1)[0]


def _validate_metrics(metrics: Any, where: str, errors: List[str]) -> None:
    if not isinstance(metrics, dict):
        errors.append(f"{where}: 'metrics' must be an object")
        return
    for mid, m in metrics.items():
        if _metric_base(mid) not in KNOWN_METRIC_NAMES:
            errors.append(f"{where}: unregistered metric name {mid!r}")
        if not isinstance(m, dict) or m.get("kind") not in _METRIC_KINDS:
            errors.append(f"{where}: metric {mid!r} has no valid 'kind'")
            continue
        kind = m["kind"]
        if kind == "counter" and not isinstance(m.get("total"), NUMBER):
            errors.append(f"{where}: counter {mid!r} missing numeric 'total'")
        if kind == "histogram":
            counts, buckets = m.get("counts"), m.get("buckets")
            if not isinstance(counts, list) or not isinstance(buckets, list):
                errors.append(
                    f"{where}: histogram {mid!r} missing 'counts'/'buckets'"
                )
            elif len(counts) != len(buckets) + 1:
                errors.append(
                    f"{where}: histogram {mid!r} needs len(counts) == "
                    f"len(buckets) + 1"
                )


def validate_event(event: Any, where: str = "event") -> List[str]:
    """All schema violations for one parsed event (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object"]
    etype = event.get("type")
    spec = _SPEC.get(etype) if isinstance(etype, str) else None
    if spec is None:
        return [f"{where}: unknown event type {etype!r}"]
    for field, (types, required) in spec.items():
        if field not in event:
            if required:
                errors.append(f"{where}: {etype} event missing field {field!r}")
            continue
        if not isinstance(event[field], types):
            errors.append(
                f"{where}: {etype}.{field} has type "
                f"{type(event[field]).__name__}, expected one of "
                f"{tuple(t.__name__ for t in types)}"
            )
    known = set(spec) | {"type"}
    for field in event:
        if field not in known:
            errors.append(f"{where}: {etype} event has unknown field {field!r}")
    if etype == "span":
        if isinstance(event.get("duration"), NUMBER) and event["duration"] < 0:
            errors.append(f"{where}: span duration is negative")
        name = event.get("name")
        if isinstance(name, str) and name not in KNOWN_SPAN_NAMES:
            errors.append(f"{where}: unregistered span name {name!r}")
    if etype in ("round_metrics", "run_summary") and "metrics" in event:
        _validate_metrics(event["metrics"], where, errors)
    return errors


def validate_file(path: str) -> List[str]:
    """Schema violations across a whole JSONL trace file."""
    errors: List[str] = []
    first_type: Optional[str] = None
    count = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"{where}: invalid JSON ({exc})")
                continue
            count += 1
            if first_type is None and isinstance(event, dict):
                first_type = event.get("type")
            errors.extend(validate_event(event, where))
    if count == 0:
        errors.append(f"{path}: trace contains no events")
    elif first_type != "meta":
        errors.append(f"{path}: first event must be 'meta', got {first_type!r}")
    return errors


def validate_ledger_file(path: str) -> List[str]:
    """Contract violations across a ``repro.ledger/v1`` file.

    Deliberately an *independent* implementation of the checks in
    :meth:`repro.obs.ledger.LedgerReader.validate` (this script stays
    stdlib-standalone for CI), so the two validators cross-check each
    other's reading of the schema.  Torn final lines are legal — that
    is the crash-recovery contract — but any earlier parse failure is
    corruption.
    """
    errors: List[str] = []
    lines: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                lines.append(line)
    if not lines:
        return [f"{path}: ledger contains no events"]
    events: List[Dict[str, Any]] = []
    for i, line in enumerate(lines):
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                break  # torn final line: tolerated by contract
            errors.append(f"{path}:{i + 1}: corrupt mid-file line")
            return errors
        if not isinstance(event, dict):
            errors.append(f"{path}:{i + 1}: event is not an object")
            return errors
        events.append(event)
    if not events:
        return errors + [f"{path}: only a torn line, nothing committed"]
    first = events[0]
    if first.get("type") != "manifest":
        errors.append(f"{path}: first event must be 'manifest'")
    elif first.get("schema") != _LEDGER_SCHEMA:
        errors.append(
            f"{path}: manifest schema {first.get('schema')!r} != "
            f"{_LEDGER_SCHEMA!r}"
        )
    prev_cursor = -1
    prev_round = 0
    record_keys: Optional[frozenset] = None
    for i, event in enumerate(events):
        where = f"{path}: event {i}"
        etype = event.get("type")
        if etype not in _LEDGER_TYPES:
            errors.append(f"{where}: unknown ledger event type {etype!r}")
            continue
        if etype == "manifest":
            if i != 0:
                errors.append(f"{where}: manifest must be the first event")
            continue
        cursor = event.get("cursor")
        if not isinstance(cursor, int) or cursor <= prev_cursor:
            errors.append(
                f"{where}: cursor {cursor!r} not strictly increasing "
                f"(previous {prev_cursor})"
            )
        else:
            prev_cursor = cursor
        if etype == "round":
            rnd = event.get("round")
            if not isinstance(rnd, int) or rnd < prev_round:
                errors.append(
                    f"{where}: round {rnd!r} must be a non-decreasing "
                    f"integer (previous {prev_round})"
                )
            else:
                prev_round = rnd
            record = event.get("record")
            if not isinstance(record, dict):
                errors.append(f"{where}: round event missing 'record'")
            else:
                # one record shape: evaluated or not, every round commits
                # the same fields, with null metrics when unevaluated
                keys = frozenset(record)
                if record_keys is None:
                    record_keys = keys
                elif keys != record_keys:
                    errors.append(
                        f"{where}: record fields differ from the first "
                        f"round's: {sorted(keys ^ record_keys)}"
                    )
                evaluated = record.get("train_loss") is not None
                if event.get("evaluated") is not evaluated:
                    errors.append(
                        f"{where}: evaluated={event.get('evaluated')!r} "
                        f"but record train_loss is "
                        f"{record.get('train_loss')!r}"
                    )
        if etype == "alert":
            for field in ("monitor", "severity", "message"):
                if not isinstance(event.get(field), str):
                    errors.append(
                        f"{where}: alert event missing string {field!r}"
                    )
        if etype == "end" and i != len(events) - 1:
            errors.append(f"{where}: end event must be the last event")
    return errors


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ledger = "--ledger" in argv
    argv = [a for a in argv if a != "--ledger"]
    if len(argv) != 1:
        print(
            "usage: python tests/obs/schema_validator.py "
            "[--ledger] FILE.jsonl",
            file=sys.stderr,
        )
        return 2
    validator = validate_ledger_file if ledger else validate_file
    errors = validator(argv[0])
    for err in errors:
        print(err, file=sys.stderr)
    if not errors:
        print(f"{argv[0]}: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
