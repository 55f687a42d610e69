"""Where the benchmark hooks into the program, and what it derives.

:func:`install_timing` is all an untraced run gets: two timers around
``FederatedServer.train`` and ``FederatedServer.run_round``.
:func:`install_layers` wraps one public function per layer boundary in
a span (see spans.py); :func:`layer_metrics` turns one traced run's
spans and counters into the per-layer metrics.  Every ``*_s`` metric is
self time: span duration minus the part its child spans cover.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import repro.datasets.base as datasets_base
import repro.fl.executor as fl_executor
import repro.fl.registry as fl_registry
import repro.fl.runner as fl_runner
import repro.fl.server as fl_server
import repro.nn.layers.conv2d as nn_conv2d
from repro.core.local.proxvr import FedProxVRLocalSolver
from repro.core.proximal import QuadraticProx
from repro.models import MultinomialLogisticModel
from repro.models.batched import LogisticBatchKernel
from repro.models.nn_model import NNModel
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import MaxPool2D

from spans import Patcher, Tracer

MODEL_CLASSES = (MultinomialLogisticModel, NNModel)
EXECUTOR_CLASSES = (
    fl_executor.SequentialExecutor,
    fl_executor.ThreadPoolClientExecutor,
    fl_executor.BatchedCohortExecutor,
)

#: (owner, attribute, span name) of every plain span-wrapped call
SPAN_POINTS = [
    (fl_server.FederatedServer, "train", "server.train"),
    (fl_server.FederatedServer, "run_round", "server.round"),
    (fl_server, "global_accuracy", "eval.accuracy"),
    (fl_runner, "resolve_smoothness", "smoothness.probe"),
    (fl_registry.LazyClientPool, "hydrate", "registry.hydrate"),
    (datasets_base.LazyFederatedDataset, "device", "datasets.shard_regen"),
    (LogisticBatchKernel, "gradient_stack", "kernel.gradient_stack"),
    (QuadraticProx, "__call__", "prox.apply"),
    (QuadraticProx, "apply_", "prox.apply"),
    (nn_conv2d.Conv2D, "forward", "nn.conv2d.forward"),
    (nn_conv2d.Conv2D, "backward", "nn.conv2d.backward"),
    (nn_conv2d, "im2col", "nn.im2col"),
    (nn_conv2d, "col2im", "nn.col2im"),
    (MaxPool2D, "forward", "nn.maxpool.forward"),
    (MaxPool2D, "backward", "nn.maxpool.backward"),
    (Dense, "forward", "nn.dense"),
    (Dense, "backward", "nn.dense"),
]

#: per-layer metric -> span name, for the ``<metric>_s`` / ``<metric>.calls`` pairs
SPAN_METRICS = {
    "datasets.build": "datasets.build",
    "datasets.shard_regen": "datasets.shard_regen",
    "local.solve": "local.solve",
    "local.solve_cohort": "local.solve_cohort",
    "model.loss_and_gradient": "model.loss_and_gradient",
    "kernel.gradient_stack": "kernel.gradient_stack",
    "prox.apply": "prox.apply",
    "nn.conv2d.forward": "nn.conv2d.forward",
    "nn.conv2d.backward": "nn.conv2d.backward",
    "nn.im2col": "nn.im2col",
    "nn.col2im": "nn.col2im",
    "nn.maxpool.forward": "nn.maxpool.forward",
    "nn.maxpool.backward": "nn.maxpool.backward",
    "nn.dense": "nn.dense",
    "aggregate": "aggregate",
}

#: per-layer metric -> span name, self time only
SELF_ONLY_METRICS = {
    "smoothness.probe_s": "smoothness.probe",
    "registry.hydrate_s": "registry.hydrate",
    "executor.run_round_s": "executor.run_round",
    "eval.loss_grad_s": "eval.loss_grad",
    "eval.accuracy_s": "eval.accuracy",
    "server.round_s": "server.round",
}


class RunTimes:
    """Wall seconds of each ``train`` and ``run_round`` call of one run."""

    def __init__(self) -> None:
        self.train: List[float] = []
        self.rounds: List[float] = []


def _timed(fn: Callable, into: List[float]) -> Callable:
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            into.append(time.perf_counter() - start)

    return timed


def install_timing(patcher: Patcher, times: RunTimes) -> None:
    """The untraced run's only hooks: train and per-round wall time."""
    server = fl_server.FederatedServer
    patcher.replace(server, "train", lambda fn: _timed(fn, times.train))
    patcher.replace(server, "run_round", lambda fn: _timed(fn, times.rounds))


def _counting_iter(clients, tracer: Tracer, name: str):
    for client in clients:
        tracer.count(name)
        yield client


def install_layers(patcher: Patcher, tracer: Tracer, pools: list) -> None:
    """Span every layer boundary; ``pools`` collects each run's client pool."""
    for owner, attr, name in SPAN_POINTS:
        patcher.replace(owner, attr, lambda fn, name=name: tracer.wrap(fn, name))

    def eval_loss(fn):
        def loss_grad(model, clients, *args, **kwargs):
            counted = _counting_iter(clients, tracer, "eval.clients")
            return fn(model, counted, *args, **kwargs)

        return tracer.wrap(loss_grad, "eval.loss_grad")

    patcher.replace(fl_server, "global_loss_and_gradient_norm", eval_loss)

    def traced_init(fn):
        # The aggregator is bound as a default argument, so it is
        # wrapped on the instance, where run_round looks it up.
        def init(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            self.aggregator = tracer.wrap(self.aggregator, "aggregate")

        return init

    patcher.replace(fl_server.FederatedServer, "__init__", traced_init)

    def capture_pool(fn):
        def build(*args, **kwargs):
            pool = fn(*args, **kwargs)
            pools.append(pool)
            return pool

        return build

    patcher.replace(fl_runner, "build_client_pool", capture_pool)

    def count_probe_grads(fn):
        def estimate(gradient, *args, **kwargs):
            def counted(w):
                tracer.count("smoothness.grad.calls")
                return gradient(w)

            return fn(counted, *args, **kwargs)

        return estimate

    patcher.replace(fl_runner, "estimate_smoothness_power_iteration", count_probe_grads)

    def count_attempted(result, args, kwargs):
        tracer.count("executor.clients", len(args[1]))

    for cls in EXECUTOR_CLASSES:
        patcher.replace(
            cls, "run_round", lambda fn: tracer.wrap(fn, "executor.run_round", count_attempted)
        )

    def count_solve(result, args, kwargs):
        tracer.count("local.steps", result.num_steps)
        tracer.count("local.grad_evals", result.num_gradient_evaluations)

    def count_cohort(results, args, kwargs):
        if results is not None:
            tracer.count("executor.stacked_clients", len(results))
            for result in results:
                count_solve(result, args, kwargs)

    patcher.replace(
        FedProxVRLocalSolver, "solve", lambda fn: tracer.wrap(fn, "local.solve", count_solve)
    )
    patcher.replace(
        FedProxVRLocalSolver,
        "solve_cohort",
        lambda fn: tracer.wrap(fn, "local.solve_cohort", count_cohort),
    )

    def count_rows(result, args, kwargs):
        tracer.count("model.loss_and_gradient.rows", len(args[2]))

    def count_probe_rows(fn):
        def smoothness(self, X):
            tracer.count("smoothness.rows", len(X))
            return fn(self, X)

        return smoothness

    for cls in MODEL_CLASSES:
        patcher.replace(
            cls,
            "loss_and_gradient",
            lambda fn: tracer.wrap(fn, "model.loss_and_gradient", count_rows),
        )
        patcher.replace(cls, "smoothness", count_probe_rows)

    class AdoptingPool(fl_executor.ThreadPoolExecutor):
        """Parents pool-thread spans on the submitting thread's span."""

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt(fn, tracer.current()), *args, **kwargs)

    patcher.replace(fl_executor, "ThreadPoolExecutor", lambda _: AdoptingPool)


def layer_metrics(tracer: Tracer, pools: list, workload) -> Dict[str, float]:
    """Per-layer metrics of one traced run."""
    self_s, incl_s, calls = tracer.totals()
    counts = tracer.counts
    out: Dict[str, float] = {}
    for metric, span in SPAN_METRICS.items():
        out[f"{metric}_s"] = self_s.get(span, 0.0)
        out[f"{metric}.calls"] = calls.get(span, 0)
    for metric, span in SELF_ONLY_METRICS.items():
        out[metric] = self_s.get(span, 0.0)
    for name in (
        "smoothness.grad.calls",
        "smoothness.rows",
        "local.steps",
        "local.grad_evals",
        "model.loss_and_gradient.rows",
        "eval.clients",
    ):
        out[name] = counts.get(name, 0.0)

    hydrations = sum(getattr(p, "hydration_count", 0) for p in pools)
    hits = sum(getattr(p, "hit_count", 0) for p in pools)
    out["registry.hydrations"] = hydrations
    out["registry.lru_hits"] = hits
    out["registry.hit_ratio"] = hits / (hits + hydrations) if hits + hydrations else 0.0

    solve_s = incl_s.get("local.solve", 0.0) + incl_s.get("local.solve_cohort", 0.0)
    steps = counts.get("local.steps", 0.0)
    attempted = counts.get("executor.clients", 0.0)
    round_wall = incl_s.get("executor.run_round", 0.0)
    out["local.step_s"] = solve_s / steps if steps else 0.0
    out["executor.stacked_share"] = (
        counts.get("executor.stacked_clients", 0.0) / attempted if attempted else 0.0
    )
    out["executor.parallel_eff"] = (
        solve_s / (workload.workers * round_wall) if round_wall else 0.0
    )
    window = incl_s.get(workload.window, 0.0)
    out["trace.dominant_share"] = tracer.covered(workload.dominant) / window if window else 0.0
    return out
