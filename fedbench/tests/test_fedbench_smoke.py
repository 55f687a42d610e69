"""Every workload at minimal size, untraced and traced, plus failure paths."""

import dataclasses
import json
import subprocess
from pathlib import Path

import pytest

import bench
import run
from bench import measure, run_once
from spans import Tracer
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

SHRINK = {
    "fig2-mlr": dict(num_devices=4, num_samples=300, min_size=37, max_size=60),
    "fig3-cnn": dict(num_devices=2, num_samples=200),
}


def tiny(name, **changes):
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload,
        dataset_kwargs={**workload.dataset_kwargs, **SHRINK[name]},
        run={**workload.run, "num_rounds": 2},
        **{"loss_target": 10.0, "loss_ceiling": 10.0, **changes},
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke_untraced_and_traced(name):
    workload = tiny(name)
    untraced = measure(workload, seed=5, seconds=0, trace=False)
    assert untraced.tally.failures == []
    assert set(untraced.end_to_end) == END_TO_END
    assert all(s.median > 0 for s in untraced.end_to_end.values())
    assert untraced.end_to_end["round_s.p50"].count == 2 * bench.MIN_RUNS

    traced = measure(workload, seed=5, seconds=0, trace=True)
    assert traced.tally.failures == []
    assert set(traced.per_layer) == PER_LAYER
    layers = {k: s.median for k, s in traced.per_layer.items()}
    assert layers["local.steps"] > 0 and layers["local.step_s"] > 0
    if name == "fig2-mlr":
        assert layers["executor.stacked_share"] == 1.0
        assert layers["kernel.gradient_stack.calls"] > 0
        # every client hydrated once, then served from the LRU pool
        assert layers["registry.hydrations"] == SHRINK[name]["num_devices"]
        assert 0 < layers["registry.hit_ratio"] < 1
        assert layers["datasets.shard_regen.calls"] > 0
    if name == "fig3-cnn":
        assert layers["smoothness.grad.calls"] > 0 and layers["nn.col2im.calls"] > 0
        assert layers["executor.stacked_share"] == 0.0
        assert layers["registry.hydrations"] == 0


def test_traced_run_matches_untraced_and_parents_pool_solves():
    workload = tiny("fig3-cnn")
    plain, _ = run_once(workload, 2)
    tracer = Tracer()
    traced, layers = run_once(workload, 2, tracer=tracer)
    assert traced.digest == plain.digest
    rounds = {sid for sid, s in tracer.spans.items() if s.name == "executor.run_round"}
    solves = [s for s in tracer.spans.values() if s.name == "local.solve"]
    assert solves and all(s.parent in rounds for s in solves)
    assert layers["executor.parallel_eff"] > 0


def test_patches_are_removed_after_each_run():
    import repro.fl.server as fl_server

    before = (fl_server.FederatedServer.train, fl_server.global_accuracy)
    run_once(tiny("fig2-mlr"), 1, tracer=Tracer())
    assert (fl_server.FederatedServer.train, fl_server.global_accuracy) == before


def test_missed_target_counts_every_run_as_failed():
    workload = tiny("fig2-mlr", loss_target=-1.0, loss_ceiling=-1.0)
    m = measure(workload, seed=1, seconds=0, trace=False)
    # MIN_RUNS pairs of the seed and the reference instance, and the
    # sequential check
    assert m.tally.attempted == 2 * bench.MIN_RUNS + 1
    assert m.tally.failed == m.tally.attempted
    assert all("missed its loss target" in f for f in m.tally.failures)


def test_the_target_binds_the_reference_instance_and_the_ceiling_the_rest():
    m = measure(tiny("fig2-mlr", loss_target=-1.0), seed=1, seconds=0, trace=False)
    assert m.tally.failed == bench.MIN_RUNS
    assert all(f.startswith("seed 0: missed") for f in m.tally.failures)
    m = measure(tiny("fig2-mlr", loss_ceiling=-1.0), seed=1, seconds=0, trace=False)
    # the seed's timed runs and its sequential re-run
    assert m.tally.failed == bench.MIN_RUNS + 1
    assert all(f.startswith("seed 1") for f in m.tally.failures)


def test_a_raising_run_is_counted_not_fatal():
    def broken(**kwargs):
        raise RuntimeError("no data")

    workload = tiny("fig2-mlr", make_dataset=broken)
    m = measure(workload, seed=1, seconds=0, trace=False)
    assert m.tally.failed == m.tally.attempted == 2 * bench.MIN_RUNS + 1
    assert m.end_to_end == {}
    result = run.report(m, SPEC["end_to_end"], trace=False)
    assert result["correct"] is False and result["failed"] == m.tally.failed


def test_digest_mismatch_between_runs_is_a_failure(monkeypatch):
    # seed and reference runs alternate; the sequential check comes last
    digests = iter(["a", "r", "b", "r", "a", "r", "a"])
    monkeypatch.setattr(bench, "model_digest", lambda w: next(digests))
    m = measure(tiny("fig2-mlr"), seed=1, seconds=0, trace=False)
    assert m.tally.failed == 1 and "seed 1: final-model digest" in m.tally.failures[0]


def test_target_and_quality_come_from_the_reference_instance():
    workload = tiny("fig2-mlr")
    m = measure(workload, seed=4, seconds=0, trace=False)
    reference, _ = run_once(workload, bench.REFERENCE_SEED)
    own, _ = run_once(workload, 4)
    assert m.end_to_end["final_loss"].median == reference.final_loss != own.final_loss
    assert m.end_to_end["final_acc"].median == reference.final_acc
    assert m.end_to_end["time_to_target_s"].count == bench.MIN_RUNS


def test_run_each_gives_every_workload_a_process(monkeypatch, capsys):
    calls = []

    def fake_run(cmd, stdout, text):
        calls.append(cmd)
        name = cmd[cmd.index("--workload") + 1]
        last = {"correct": True, "attempted": 2, "failed": 0,
                "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}
        return subprocess.CompletedProcess(cmd, 0, f"{name} report\n{json.dumps(last)}\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    final = run.run_each(["fig2-mlr", "fig3-cnn"], [False], seed=7, seconds=1.0)
    assert len(calls) == 2 and all("--seed" in c and "7" in c for c in calls)
    assert final["attempted"] == 4 and final["correct"] is True
    assert set(final["metrics"]) == {"fig2-mlr/setup_s", "fig3-cnn/setup_s"}
    assert "fig3-cnn report" in capsys.readouterr().out


def test_report_prints_units_from_the_spec(capsys):
    m = measure(tiny("fig2-mlr"), seed=3, seconds=0, trace=False)
    result = run.report(m, SPEC["end_to_end"], trace=False)
    assert result["correct"] is True and result["attempted"] == m.tally.attempted
    assert set(result["metrics"]) == END_TO_END
    assert result["metrics"]["setup_s"]["unit"] == "s"
    out = capsys.readouterr().out
    assert "round_s.p50 = " in out and f"(median of {2 * bench.MIN_RUNS}" in out
