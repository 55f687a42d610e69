"""The benchmark workloads.

Each is a fixed geometry: a dataset factory with its arguments, a model,
and a :class:`~repro.fl.runner.FederatedRunConfig` minus its seed.  The
workload seed picks the dataset seed and the run seed; nothing else
varies.  README.md says why each workload is here and which layer it
exercises or bypasses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

import numpy as np

from repro.datasets import make_digits, make_fashion
from repro.fl.runner import FederatedRunConfig
from repro.models import MultinomialLogisticModel, make_paper_cnn_model

#: worker threads for the ``thread`` executor: never more than ``nproc``
NPROC = len(os.sched_getaffinity(0))

#: every nn layer span (see layers.py)
NN_SPANS = (
    "nn.conv2d.forward",
    "nn.conv2d.backward",
    "nn.im2col",
    "nn.col2im",
    "nn.maxpool.forward",
    "nn.maxpool.backward",
    "nn.dense",
)


def derive_seeds(seed: int) -> Tuple[int, int]:
    """``(dataset seed, run seed)`` from one workload seed."""
    dataset_seed, run_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(dataset_seed), int(run_seed)


def _mlr(dataset) -> Callable:
    return lambda: MultinomialLogisticModel(dataset.num_features, dataset.num_classes)


def _cnn(dataset) -> Callable:
    return lambda: make_paper_cnn_model(
        image_shape=(1, 28, 28), num_classes=10, channel_scale=0.25, seed=0
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``loss_target`` is the train loss the reference instance must reach;
    the first round that reaches it gives ``time_to_target_s``.  Every
    run of any other seed must end at or below ``loss_ceiling``: across
    seeds the data and the probed L move the descent too much for one
    target.  ``dominant`` names the spans the workload is meant to
    stress; ``window`` is the span whose wall time they should mostly
    cover (``bench.run`` is the whole run, set-up included).
    """

    name: str
    make_dataset: Callable
    dataset_kwargs: Mapping[str, object]
    make_model: Callable
    run: Mapping[str, object]
    loss_target: float
    loss_ceiling: float
    dominant: Tuple[str, ...]
    window: str

    def dataset(self, seed: int):
        return self.make_dataset(seed=seed, **self.dataset_kwargs)

    def config(self, seed: int) -> FederatedRunConfig:
        return FederatedRunConfig(seed=seed, **self.run)

    @property
    def workers(self) -> int:
        """Threads that solve clients concurrently."""
        return int(self.run.get("max_workers") or 1)


# The federation is lazy, so clients come from the registry's LRU pool:
# each is hydrated once in round 1 and hit from then on.  Lazy shards are
# bit-identical to eager ones, and this is the workload that keeps the
# registry and shard-regeneration layers measured (see README.md).
FIG2_MLR = Workload(
    name="fig2-mlr",
    make_dataset=make_fashion,
    dataset_kwargs=dict(
        num_devices=20,
        num_samples=2400,
        labels_per_device=2,
        min_size=37,
        max_size=270,
        lazy=True,
    ),
    make_model=_mlr,
    run=dict(
        algorithm="fedproxvr-sarah",
        num_rounds=20,
        num_local_steps=20,
        beta=7.0,
        mu=0.1,
        batch_size=32,
        executor="batched",
        eval_every=1,
    ),
    # The reference instance crosses this in round 7 of 20.  L is analytic,
    # so the seeds' curves stay close: seeds 0-15 cross it in rounds 5-8
    # and end at 1.93-2.01, and it serves as their ceiling too.
    loss_target=2.15,
    loss_ceiling=2.15,
    dominant=("local.solve_cohort",),
    window="server.train",
)

# Shards hold exactly 18 samples, split evenly: 9 train rows (so B = 64
# takes whole shards) and 9 test rows, so final_acc counts 36 test rows.
# Every seed does the same work: the probe's cost is linear in the corpus
# rows, and a power-law size draw would swing set-up time by tens of
# percent.
FIG3_CNN = Workload(
    name="fig3-cnn",
    make_dataset=make_digits,
    dataset_kwargs=dict(
        num_devices=4,
        num_samples=1000,
        labels_per_device=2,
        min_size=18,
        max_size=18,
        train_fraction=0.5,
    ),
    make_model=_cnn,
    run=dict(
        algorithm="fedproxvr-svrg",
        num_rounds=4,
        num_local_steps=10,
        beta=10.0,
        mu=0.01,
        batch_size=64,
        executor="thread",
        max_workers=min(4, NPROC),
        eval_every=1,
    ),
    # The reference instance (L = 31.2) descends 2.173, 1.958, 1.815, 1.705
    # and crosses this in round 2.  Other seeds probe L from 9 to 281, so
    # their descent is no guide to a target; they are held only to a
    # ceiling that a run which descends at all stays under.
    loss_target=2.0,
    loss_ceiling=2.5,
    dominant=("smoothness.probe",) + NN_SPANS,
    window="bench.run",
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (FIG2_MLR, FIG3_CNN)}
