"""Run a workload for a time budget and reduce the runs to metrics.

One *run* is one operation: build the workload's federation from the
seed, then ``run_federated`` it end to end.  A run fails when it
raises, ends with a non-finite loss, misses its loss target (the
workload's target on the reference instance, its ceiling on any other
seed), or ends on a final model whose digest differs from the
invocation's other runs of the same seed (they all use the same inputs).
"""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fl.runner import run_federated

from layers import RunTimes, install_layers, install_timing, layer_metrics
from spans import Patcher, Tracer
from stats import Summary, Tally, run_problems, summarize
from workloads import Workload, derive_seeds

#: time_to_target_s, final_loss and final_acc are read on this seed's
#: instance in every invocation: across seeds they move with the data and
#: with the probed L (on fig3-cnn L ranges 1.6-281 over seeds), not with
#: the code
REFERENCE_SEED = 0
#: untraced runs of each instance per invocation, at least, so every
#: median has a middle
MIN_RUNS = 3


@dataclass
class RunResult:
    """What one run of a workload produced."""

    setup_s: float
    train_s: float
    rounds: List[float]
    time_to_target_s: Optional[float]
    final_loss: float
    final_acc: float
    digest: str


def model_digest(w: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(w, dtype=np.float64).tobytes()).hexdigest()


def run_once(
    workload: Workload,
    seed: int,
    *,
    tracer: Optional[Tracer] = None,
    executor: Optional[str] = None,
) -> Tuple[RunResult, Optional[Dict[str, float]]]:
    """One run; with a ``tracer``, also its per-layer metrics."""
    dataset_seed, run_seed = derive_seeds(seed)
    patcher = Patcher()
    times = RunTimes()
    pools: list = []
    if tracer is None:
        install_timing(patcher, times)
    else:
        install_layers(patcher, tracer, pools)
    span = tracer.span if tracer is not None else lambda name: nullcontext()
    try:
        start = time.perf_counter()
        with span("bench.run"):
            with span("datasets.build"):
                dataset = workload.dataset(dataset_seed)
            config = workload.config(run_seed)
            if executor is not None:
                config = dataclasses.replace(config, executor=executor)
            history, w_final = run_federated(dataset, workload.make_model(dataset), config)
        wall = time.perf_counter() - start
    finally:
        patcher.restore()
    if tracer is not None:
        for s in tracer.spans.values():
            if s.name == "server.train":
                times.train.append(s.duration)
            elif s.name == "server.round":
                times.rounds.append(s.duration)
    if len(times.train) != 1:
        raise RuntimeError(f"expected one FederatedServer.train call, saw {len(times.train)}")
    train_s = times.train[0]
    setup_s = wall - train_s
    reached = [
        r.wall_time for r in history.records if r.train_loss <= workload.loss_target
    ]
    result = RunResult(
        setup_s=setup_s,
        train_s=train_s,
        rounds=times.rounds,
        time_to_target_s=setup_s + reached[0] if reached else None,
        final_loss=history.final("train_loss"),
        final_acc=history.final("test_accuracy"),
        digest=model_digest(w_final),
    )
    layers = layer_metrics(tracer, pools, workload) if tracer is not None else None
    return result, layers


@dataclass
class Measurement:
    """Everything one invocation measured on one workload."""

    workload: str
    tally: Tally
    end_to_end: Dict[str, Summary]
    per_layer: Dict[str, Summary]


class _Runner:
    """Runs one workload repeatedly and accounts every attempt."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.tally = Tally()
        self.expected_digests: Dict[int, str] = {}
        self.peak_rss_mb = 0.0

    def attempt(
        self, seed: Optional[int] = None, traced: bool = False, executor: Optional[str] = None
    ) -> Optional[Tuple[RunResult, Optional[Dict[str, float]]]]:
        """One counted run.  Runs on one seed must all end on the first
        one's final model, whatever the executor or tracing."""
        seed = self.seed if seed is None else seed
        label = f"seed {seed}" + (f", {executor} executor" if executor else "")
        try:
            result, layers = run_once(
                self.workload, seed, tracer=Tracer() if traced else None, executor=executor
            )
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.tally.record([f"{label}: raised {type(exc).__name__}: {exc}"])
            return None
        if seed == REFERENCE_SEED:
            reached = result.time_to_target_s is not None
        else:
            reached = result.final_loss <= self.workload.loss_ceiling
        problems = run_problems(
            final_loss=result.final_loss,
            reached_target=reached,
            digest=result.digest,
            expected_digest=self.expected_digests.setdefault(seed, result.digest),
        )
        self.tally.record([f"{label}: {p}" for p in problems])
        return result, layers

    def repeat(self, until: float, minimum: int, trace: bool) -> List[tuple]:
        """Attempt runs in pairs until ``until`` (perf_counter) and
        ``minimum`` pairs are met.  The second run of a pair is traced with
        ``trace``, and on the reference instance without it.  Returns
        ``(second, result, layers)`` for every run that completed."""
        done = []
        attempts = 0
        while attempts < 2 * minimum or attempts % 2 or time.perf_counter() < until:
            second = attempts % 2 == 1
            seed = REFERENCE_SEED if second and not trace else self.seed
            outcome = self.attempt(seed=seed, traced=second and trace)
            attempts += 1
            if attempts == 1:
                # Later runs only add allocator fragmentation: the peak
                # of one run is the figure that repeats across invocations.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if outcome is not None:
                done.append((second,) + outcome)
        return done


def _time_to_target(result: RunResult) -> float:
    # A run that missed its target is already a failure; its whole run
    # time stands in as a lower bound on the time it would have taken.
    if result.time_to_target_s is not None:
        return result.time_to_target_s
    return result.setup_s + result.train_s


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """One invocation's worth of runs on ``workload``.

    Runs come in pairs that sample the same stretch of host time.
    Untraced, a pair is one run of the invocation's seed, which gives the
    cost metrics, and one of the reference instance, which gives time to
    target and quality.  Traced, a pair is an untraced and a traced run of
    the invocation's seed; the traced runs give the per-layer metrics and,
    with their partners, the overhead ratio.
    """
    runner = _Runner(workload, seed)
    runs = runner.repeat(time.perf_counter() + seconds, 1 if trace else MIN_RUNS, trace)
    first = [r for second, r, _ in runs if not second]

    end_to_end: Dict[str, Summary] = {}
    per_layer: Dict[str, Summary] = {}
    if trace:
        samples: Dict[str, List[float]] = defaultdict(list)
        traced = [(r, layers) for second, r, layers in runs if second]
        for _, layers in traced:
            for name, value in layers.items():
                samples[name].append(float(value))
        per_layer = {name: summarize(values) for name, values in samples.items()}
        if traced and first:
            traced_train = summarize([r.train_s for r, _ in traced])
            ratio = traced_train.median / summarize([r.train_s for r in first]).median
            per_layer["trace.overhead_ratio"] = Summary(ratio, traced_train.count, 0.0)
    else:
        reference = [r for second, r, _ in runs if second]
        if first:
            end_to_end.update({
                "setup_s": summarize([r.setup_s for r in first]),
                "train_s": summarize([r.train_s for r in first]),
                "round_s.p50": summarize([t for r in first for t in r.rounds]),
                "peak_rss_mb": Summary(runner.peak_rss_mb, 1, 0.0),
            })
        if reference:
            # Every reference run ends on the same model (the digest
            # check), so its loss and accuracy are exact.
            end_to_end.update({
                "time_to_target_s": summarize([_time_to_target(r) for r in reference]),
                "final_loss": Summary(reference[0].final_loss, 1, 0.0),
                "final_acc": Summary(reference[0].final_acc, 1, 0.0),
            })
    if workload.run["executor"] == "batched":
        # Untimed, once per invocation: batched must equal sequential.
        runner.attempt(executor="sequential")
    return Measurement(workload.name, runner.tally, end_to_end, per_layer)
