"""FedProxVR benchmark: end-to-end run metrics and a traced per-layer run.

One workload, as a benchmark driver calls it (run from the repository
root; the program is imported from ``src/`` exactly as a user would run
it with ``PYTHONPATH=src``)::

    python3 fedbench/run.py --workload fig2-mlr --seed 3 --seconds 25 --trace 0

Every workload untraced, then traced, each in a process of its own::

    python3 fedbench/run.py

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Units come from ``BENCHMARK.json``; a metric the code
computes but the file does not list (or the reverse) is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread per worker, set before numpy loads: the thread executor
# already runs one client per core, and a multi-threaded BLAS under it
# puts more threads on the CPU than nproc, which made fig3-cnn's rounds
# 2.5x slower and their timings follow the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and insist on it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"fedbench: cannot import the program from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"fedbench: imported repro from {repro.__file__}, not {SRC}")


def report(measurement, spec_metrics, trace: bool) -> dict:
    """Print one workload's metrics by name and return its result object."""
    summaries = measurement.per_layer if trace else measurement.end_to_end
    units = {m["name"]: m["unit"] for m in spec_metrics}
    tally = measurement.tally
    extra = sorted(set(summaries) - set(units))
    missing = sorted(set(units) - set(summaries))
    if extra or (missing and not tally.failed):
        # Runs that failed may leave metrics unmeasured; anything else
        # means the code and BENCHMARK.json disagree.
        raise SystemExit(f"fedbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    print(f"{measurement.workload} ({'traced' if trace else 'untraced'}): "
          f"{tally.attempted} runs attempted, {tally.failed} failed")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    for name in units:
        if name in summaries:
            s = summaries[name]
            spread = f", quartile spread {s.spread:.1%}" if s.count >= 4 else ""
            print(f"  {name} = {s.median:.6g} {units[name]} (median of {s.count}{spread})")
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": summaries[name].median, "unit": units[name]}
            for name in units
            if name in summaries
        },
    }


def run_each(names, modes, seed: int, seconds: float) -> dict:
    """Every (workload, mode) in a child process of its own, so that each
    peak_rss_mb is that workload's; one result object for them all."""
    results = {}
    for name in names:
        for trace in modes:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                stdout=subprocess.PIPE, text=True,
            )
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                raise SystemExit(f"fedbench: {name} exited with code {child.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            results[name, trace] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for (name, _), r in results.items()
            for metric, value in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run set (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end-to-end, 1: per-layer")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    import_program()
    from bench import measure
    from host import host_block
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choices: {sorted(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    if len(names) * len(modes) > 1:
        final = run_each(names, modes, args.seed, seconds)
    else:
        print("host: " + json.dumps(host_block(), sort_keys=True))
        measurement = measure(WORKLOADS[names[0]], args.seed, seconds, modes[0])
        metrics = spec["per_layer"] if modes[0] else spec["end_to_end"]
        final = report(measurement, metrics, modes[0])
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
