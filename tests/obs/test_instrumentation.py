"""End-to-end instrumentation tests over the federated stack.

These run real (tiny) federated experiments with telemetry enabled and
check the acceptance-level properties: traces validate against the
schema, round spans account for the run wall time, straggler gaps reach
``RoundRecord``, solver counters reconcile with history, and the nn
profiling hook produces per-layer timings only when asked.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.fl.runner import FederatedRunConfig, run_federated
from repro.models import make_mlp_model
from repro.obs import (
    InMemorySink,
    JsonlSink,
    LedgerReader,
    MonitorSuite,
    RunLedger,
    default_monitor_suite,
    telemetry,
)
from repro.obs.monitors import DivergenceTripwire
from repro.obs.report import render_report
from tests.obs.schema_validator import validate_file, validate_ledger_file


def _config(**overrides):
    base = dict(
        algorithm="fedproxvr-sarah",
        num_rounds=4,
        num_local_steps=5,
        beta=5.0,
        mu=0.1,
        batch_size=16,
        seed=0,
        eval_every=1,
    )
    base.update(overrides)
    return FederatedRunConfig(**base)


class TestTracedRun:
    @pytest.fixture()
    def traced_run(self, tiny_dataset, tiny_model_factory, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = InMemorySink()
        telemetry.configure([JsonlSink(str(path)), sink])
        try:
            history, _ = run_federated(
                tiny_dataset, tiny_model_factory, _config()
            )
        finally:
            telemetry.shutdown()
        return history, path, sink

    def test_trace_validates_and_report_renders(self, traced_run):
        history, path, _ = traced_run
        assert validate_file(str(path)) == []
        report = render_report(str(path), top=5)
        assert "span tree" in report
        assert "local_solve" in report
        assert "round" in report

    def test_round_durations_sum_to_run_wall_time(self, traced_run):
        _, _, sink = traced_run
        spans = sink.by_type("span")
        run = [e for e in spans if e["name"] == "run"]
        rounds = [e for e in spans if e["name"] == "round"]
        assert len(run) == 1 and len(rounds) == 4
        round_total = sum(e["duration"] for e in rounds)
        # rounds are the run span's only substantive children: their
        # durations must account for (almost) all of the run wall time
        assert round_total <= run[0]["duration"] + 1e-9
        assert round_total >= 0.8 * run[0]["duration"]

    def test_straggler_gap_recorded_in_history(self, traced_run):
        history, _, _ = traced_run
        for record in history.records:
            assert record.straggler_gap is not None
            assert record.straggler_gap >= 0.0

    def test_counters_reconcile_with_history(self, traced_run):
        history, _, sink = traced_run
        num_clients = 6
        expected_evals = sum(
            r.mean_gradient_evaluations * num_clients for r in history.records
        )
        summary = sink.by_type("run_summary")[0]
        total = summary["metrics"]["fl.client.grad_evals{fedproxvr-sarah}"]["total"]
        assert total == pytest.approx(expected_evals)

    def test_round_metric_events_cover_every_round(self, traced_run):
        _, _, sink = traced_run
        rounds = [e["round"] for e in sink.by_type("round_metrics")]
        assert rounds == [1, 2, 3, 4]
        for event in sink.by_type("round_metrics"):
            assert event["sim_time"] is not None

    def test_sim_time_stamped_on_round_spans(self, traced_run):
        _, _, sink = traced_run
        rounds = [e for e in sink.by_type("span") if e["name"] == "round"]
        sim_times = [e["sim_time"] for e in rounds]
        assert all(t is not None for t in sim_times)
        assert sim_times == sorted(sim_times)  # simulated time is monotone


class TestDisabledRunUnchanged:
    def test_no_events_and_no_straggler_gap(self, tiny_dataset, tiny_model_factory):
        assert not telemetry.enabled
        history, _ = run_federated(tiny_dataset, tiny_model_factory, _config())
        for record in history.records:
            assert record.straggler_gap is None

    def test_results_identical_with_and_without_telemetry(
        self, tiny_dataset, tiny_model_factory
    ):
        history_off, w_off = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        telemetry.configure([InMemorySink()])
        try:
            history_on, w_on = run_federated(
                tiny_dataset, tiny_model_factory, _config()
            )
        finally:
            telemetry.shutdown()
        np.testing.assert_array_equal(w_off, w_on)
        assert history_off.series("train_loss") == history_on.series("train_loss")


class TestTracedAlerts:
    def test_alert_counter_is_a_registered_metric(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        # a loss ceiling below any real loss makes every round "diverge"
        path = tmp_path / "trace.jsonl"
        sink = InMemorySink()
        monitors = MonitorSuite([DivergenceTripwire(loss_ceiling=1e-12)])
        telemetry.configure([JsonlSink(str(path)), sink])
        try:
            run_federated(
                tiny_dataset, tiny_model_factory, _config(),
                monitors=monitors,
            )
        finally:
            telemetry.shutdown()
        assert len(monitors.alerts) == 4
        assert validate_file(str(path)) == []
        metrics = sink.by_type("run_summary")[0]["metrics"]
        alert_ids = [m for m in metrics if "monitor.alerts" in m]
        assert alert_ids == ["obs.monitor.alerts{divergence}"]
        assert metrics[alert_ids[0]]["total"] == 4


class RecordingMonitor:
    """A monitor that keeps every record it is handed and never fires."""

    name = "recorder"

    def __init__(self):
        self.seen = []

    def observe(self, record):
        self.seen.append(record)
        return None


class TestLedgeredRun:
    def _run(self, dataset, factory, tmp_path, **config_overrides):
        path = tmp_path / "run.ledger.jsonl"
        ledger = RunLedger(str(path))
        monitors = default_monitor_suite()
        history, w = run_federated(
            dataset, factory, _config(**config_overrides),
            ledger=ledger, monitors=monitors,
        )
        return history, w, str(path), monitors

    def test_ledger_validates_and_mirrors_history(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history, _, path, monitors = self._run(
            tiny_dataset, tiny_model_factory, tmp_path
        )
        assert validate_ledger_file(path) == []
        reader = LedgerReader(str(path))
        assert reader.validate() == []
        assert reader.status == "completed"
        rounds = reader.rounds()
        assert [e["round"] for e in rounds] == [1, 2, 3, 4]
        assert [e["record"]["train_loss"] for e in rounds] == (
            history.series("train_loss")
        )
        # a healthy tiny run must be alert-silent
        assert monitors.alerts == []
        assert reader.alerts() == []
        # manifest records the resolved config and RNG entropy
        manifest = reader.manifest
        assert manifest["config"]["algorithm"] == "fedproxvr-sarah"
        assert set(manifest["entropy"]) >= {"seed"}

    def test_grad_dissimilarity_committed_each_round(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history, _, path, _ = self._run(
            tiny_dataset, tiny_model_factory, tmp_path
        )
        for event in LedgerReader(path).rounds():
            gamma = event["record"]["grad_dissimilarity"]
            assert gamma is not None and gamma >= 1.0  # Jensen: Γ̂ ≥ 1
        assert history.records[0].grad_dissimilarity == (
            LedgerReader(path).rounds()[0]["record"]["grad_dissimilarity"]
        )

    def test_every_round_is_one_record(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        path = str(tmp_path / "run.ledger.jsonl")
        recorder = RecordingMonitor()
        monitors = default_monitor_suite()
        monitors.monitors.append(recorder)
        history, _ = run_federated(
            tiny_dataset, tiny_model_factory, _config(eval_every=2),
            ledger=RunLedger(path), monitors=monitors,
        )
        assert validate_ledger_file(path) == []
        rounds = LedgerReader(path).rounds()
        assert [e["round"] for e in rounds] == [1, 2, 3, 4]
        # the monitors saw exactly the committed objects, in order
        assert [e["record"] for e in rounds] == [
            asdict(r) for r in recorder.seen
        ]
        # evaluated rounds: the history holds those same objects
        evaluated = [r for r in recorder.seen if r.evaluated]
        assert [r.round_index for r in evaluated] == [2, 4]
        assert len(history.records) == len(evaluated)
        assert all(h is r for h, r in zip(history.records, evaluated))
        assert [e["record"] for e in rounds if e["evaluated"]] == [
            asdict(h) for h in history.records
        ]
        # one shape: every round carries every field, wall time included
        assert len({frozenset(e["record"]) for e in rounds}) == 1
        for event in rounds:
            record = event["record"]
            assert event["evaluated"] == (record["train_loss"] is not None)
            assert event["sim_time"] == record["sim_time"]
            assert isinstance(record["wall_time"], float)
        assert [e["evaluated"] for e in rounds] == [False, True, False, True]

    def test_bit_identical_with_ledger_and_monitors_on(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        history_off, w_off = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        _, w_on, _, _ = self._run(tiny_dataset, tiny_model_factory, tmp_path)
        np.testing.assert_array_equal(w_off, w_on)
        assert history_off.series("train_loss") == [
            e["record"]["train_loss"]
            for e in LedgerReader(
                str(tmp_path / "run.ledger.jsonl")
            ).rounds()
        ]


class TestThreadExecutorRun:
    def test_traced_thread_run_matches_sequential(
        self, tiny_dataset, tiny_model_factory, tmp_path
    ):
        path = tmp_path / "thread.jsonl"
        telemetry.configure([JsonlSink(str(path))])
        try:
            history_thread, w_thread = run_federated(
                tiny_dataset, tiny_model_factory,
                _config(executor="thread", max_workers=4),
            )
        finally:
            telemetry.shutdown()
        history_seq, w_seq = run_federated(
            tiny_dataset, tiny_model_factory, _config()
        )
        np.testing.assert_allclose(w_thread, w_seq)
        assert validate_file(str(path)) == []


class TestNNProfiling:
    def _mlp_factory(self, dataset):
        return lambda: make_mlp_model(
            dataset.num_features, dataset.num_classes, (8,), seed=0
        )

    def test_layer_timings_only_when_opted_in(self, tiny_dataset):
        factory = self._mlp_factory(tiny_dataset)
        config = _config(num_rounds=1, algorithm="fedavg", mu=0.1)

        telemetry.configure([InMemorySink()])
        try:
            run_federated(tiny_dataset, factory, config)
            snap_plain = telemetry.metrics.snapshot()
        finally:
            telemetry.shutdown()
        assert not any(m.startswith("nn.layer.") for m in snap_plain)

        telemetry.configure([InMemorySink()], nn_profiling=True)
        try:
            run_federated(tiny_dataset, factory, config)
            snap_prof = telemetry.metrics.snapshot()
        finally:
            telemetry.shutdown()
        forward = [m for m in snap_prof if m.startswith("nn.layer.forward_seconds")]
        backward = [m for m in snap_prof if m.startswith("nn.layer.backward_seconds")]
        assert forward and backward
        # per-layer keys like "0:Dense" / "1:ReLU" appear in the metric id
        assert any("Dense" in m for m in forward)
        for mid in forward:
            assert snap_prof[mid]["count"] > 0
