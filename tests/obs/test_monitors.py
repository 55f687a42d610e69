"""Tests for the runtime theory monitors.

The load-bearing test pins the stdlib Theorem-1 factor in
``repro.obs.monitors`` against the scipy-backed reference in
``repro.core.theory`` — the obs copy exists only because layer 0 cannot
import layer 2, so the two must agree to the bit.
"""

from __future__ import annotations

import math

import pytest

from repro.core.theory import ProblemConstants, federated_factor
from repro.obs.ledger import LedgerReader, RoundRecord, RunLedger
from repro.obs.monitors import (
    Alert,
    DivergenceTripwire,
    MonitorFailFast,
    MonitorSuite,
    SigmaDriftMonitor,
    StragglerAnomalyMonitor,
    TheoremOneMonitor,
    ThetaDriftMonitor,
    contraction_factor,
    default_monitor_suite,
)


def obs(round_index, **kwargs):
    return RoundRecord(round_index=round_index, **kwargs)


class TestContractionFactorPin:
    @pytest.mark.parametrize(
        "mu, theta, L, lam, sigma_sq",
        [
            (2000.0, 0.01, 1.0, 0.0, 0.0),
            (500.0, 0.05, 2.0, 1.0, 0.3),
            (50.0, 0.2, 5.0, 0.0, 1.0),
            (10.0, 0.5, 1.0, 2.0, 0.1),
        ],
    )
    def test_matches_core_theory_reference(self, mu, theta, L, lam, sigma_sq):
        constants = ProblemConstants(L=L, lam=lam, sigma_bar_sq=sigma_sq)
        reference = federated_factor(theta, mu, constants)
        ours = contraction_factor(mu, theta, L, lam=lam, sigma_sq=sigma_sq)
        assert ours == pytest.approx(reference, rel=0, abs=0)

    def test_infeasible_inputs_return_none(self):
        assert contraction_factor(0.0, 0.1, 1.0) is None
        assert contraction_factor(1.0, 0.1, 1.0, lam=2.0) is None  # mu_tilde<0
        assert contraction_factor(float("nan"), 0.1, 1.0) is None
        assert contraction_factor(1.0, float("inf"), 1.0) is None


class TestTheoremOneMonitor:
    def _bound(self, **kwargs):
        m = TheoremOneMonitor(**kwargs)
        # constants chosen so the factor lands in (0, 1): contraction regime
        m.bind_theory(beta=7.0, mu=2000.0, L=1.0, theta=0.01)
        assert m.factor is not None and 0.0 < m.factor < 1.0
        return m

    def test_silent_on_descending_losses(self):
        m = self._bound()
        for s, loss in enumerate([3.0, 2.0, 1.5, 1.2], start=1):
            assert m.observe(obs(s, train_loss=loss)) is None

    def test_patience_requires_consecutive_violations(self):
        m = self._bound()
        assert m.observe(obs(1, train_loss=1.0)) is None
        assert m.observe(obs(2, train_loss=2.0)) is None  # 1st violation
        alert = m.observe(obs(3, train_loss=3.0))  # 2nd: fires
        assert alert is not None and alert.severity == "error"
        assert alert.evidence["regime"] == "contraction"
        assert alert.evidence["violations"] == 2

    def test_recovery_resets_patience(self):
        m = self._bound()
        m.observe(obs(1, train_loss=1.0))
        m.observe(obs(2, train_loss=2.0))  # violation
        assert m.observe(obs(3, train_loss=0.5)) is None  # recovered
        assert m.observe(obs(4, train_loss=1.0)) is None  # count restarted

    def test_blowup_fires_immediately(self):
        m = self._bound()
        m.observe(obs(1, train_loss=5.0))
        alert = m.observe(obs(2, train_loss=500.0))
        assert alert is not None
        assert alert.evidence["blowup"] is True

    def test_small_increase_within_slack_tolerated(self):
        m = self._bound(slack_rel=0.05)
        m.observe(obs(1, train_loss=10.0))
        for s in (2, 3, 4):
            assert m.observe(obs(s, train_loss=10.2)) is None

    def test_unbound_monitor_falls_back_to_monotone_descent(self):
        m = TheoremOneMonitor()  # no bind_theory: factor is None
        m.observe(obs(1, train_loss=1.0))
        m.observe(obs(2, train_loss=2.0))
        alert = m.observe(obs(3, train_loss=4.0))
        assert alert is not None
        assert alert.evidence["regime"] == "monotone_descent"

    def test_skips_unevaluated_and_nonfinite_rounds(self):
        m = self._bound()
        unevaluated = obs(2, grad_dissimilarity=1.2)
        assert not unevaluated.evaluated
        assert m.observe(obs(1, train_loss=1.0)) is None
        assert m.observe(unevaluated) is None
        assert m.observe(obs(3, train_loss=float("nan"))) is None


class TestDriftMonitors:
    def test_theta_drift_fires_after_baseline(self):
        m = ThetaDriftMonitor(baseline_rounds=2, drift_factor=3.0)
        assert m.observe(obs(1, mean_achieved_theta=0.01)) is None
        assert m.observe(obs(2, mean_achieved_theta=0.01)) is None
        assert m.observe(obs(3, mean_achieved_theta=0.02)) is None  # < 3x
        alert = m.observe(obs(4, mean_achieved_theta=0.1))
        assert alert is not None and alert.severity == "warning"
        assert alert.monitor == "theta_drift"

    def test_theta_drift_uses_target_theta_floor(self):
        m = ThetaDriftMonitor(baseline_rounds=1, drift_factor=3.0)
        m.target_theta = 0.05  # suite sets this from eq. 22
        m.observe(obs(1, mean_achieved_theta=0.001))
        # 0.1 < 3 * max(baseline, target) = 0.15: inside the contract
        assert m.observe(obs(2, mean_achieved_theta=0.1)) is None
        assert m.observe(obs(3, mean_achieved_theta=0.2)) is not None

    def test_sigma_drift_fires_on_dissimilarity_jump(self):
        m = SigmaDriftMonitor(baseline_rounds=2, drift_factor=4.0)
        m.observe(obs(1, grad_dissimilarity=1.1))
        m.observe(obs(2, grad_dissimilarity=0.9))
        assert m.observe(obs(3, grad_dissimilarity=2.0)) is None
        alert = m.observe(obs(4, grad_dissimilarity=5.0))
        assert alert is not None and alert.monitor == "sigma_drift"


class TestDivergenceTripwire:
    def test_fires_on_nan_inf_and_ceiling(self):
        m = DivergenceTripwire(loss_ceiling=100.0)
        assert m.observe(obs(1, train_loss=50.0)) is None
        assert m.observe(obs(2, train_loss=float("nan"))) is not None
        assert m.observe(obs(3, train_loss=float("inf"))) is not None
        alert = m.observe(obs(4, train_loss=1000.0))
        assert alert is not None and "exploded" in alert.message

    def test_none_loss_ignored(self):
        assert DivergenceTripwire().observe(obs(1)) is None


class TestStragglerAnomaly:
    def test_fires_on_outlier_after_history(self):
        m = StragglerAnomalyMonitor(min_history=5, k=8.0)
        for s in range(1, 7):
            assert m.observe(obs(s, straggler_gap=0.01)) is None
        alert = m.observe(obs(7, straggler_gap=1.0))
        assert alert is not None and alert.monitor == "straggler_anomaly"

    def test_constant_history_never_alerts_on_noise(self):
        m = StragglerAnomalyMonitor(min_history=3, min_gap=1e-3)
        for s in range(1, 20):
            assert m.observe(obs(s, straggler_gap=1e-4)) is None


class TestMonitorSuite:
    def test_routes_alerts_to_ledger(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(str(path), fsync=False)
        ledger.write_manifest({})
        suite = MonitorSuite([DivergenceTripwire(loss_ceiling=10.0)])
        suite.attach_ledger(ledger)
        suite.observe_round(obs(1, train_loss=5.0))
        suite.observe_round(obs(2, train_loss=50.0))
        ledger.close()
        reader = LedgerReader(str(path))
        assert reader.validate() == []
        alerts = reader.alerts()
        assert len(alerts) == 1
        assert alerts[0]["monitor"] == "divergence"
        assert len(suite.alerts) == 1

    def test_fail_fast_raises_on_error_severity(self):
        suite = MonitorSuite(
            [DivergenceTripwire(loss_ceiling=10.0)], fail_fast=True
        )
        suite.observe_round(obs(1, train_loss=1.0))
        with pytest.raises(MonitorFailFast, match="divergence"):
            suite.observe_round(obs(2, train_loss=100.0))

    def test_fail_fast_ignores_warnings(self):
        m = SigmaDriftMonitor(baseline_rounds=1, drift_factor=2.0)
        suite = MonitorSuite([m], fail_fast=True)
        suite.observe_round(obs(1, grad_dissimilarity=1.0))
        fired = suite.observe_round(obs(2, grad_dissimilarity=10.0))
        assert len(fired) == 1 and fired[0].severity == "warning"

    def test_bind_theory_reaches_members(self):
        suite = default_monitor_suite()
        suite.bind_theory(beta=7.0, mu=2000.0, L=1.0, theta=0.01)
        t1 = next(
            m for m in suite.monitors if isinstance(m, TheoremOneMonitor)
        )
        drift = next(
            m for m in suite.monitors if isinstance(m, ThetaDriftMonitor)
        )
        assert t1.theta == 0.01
        assert drift.target_theta == 0.01

    def test_default_suite_composition(self):
        suite = default_monitor_suite(fail_fast=True)
        names = {m.name for m in suite.monitors}
        assert names == {
            "theorem1_contraction",
            "theta_drift",
            "sigma_drift",
            "divergence",
            "straggler_anomaly",
        }
        assert suite.fail_fast

    def test_alert_dataclass_defaults(self):
        alert = Alert(monitor="m", round_index=1, severity="error", message="x")
        assert alert.evidence == {}


class TestHealthyRunSilence:
    def test_default_suite_is_silent_on_a_clean_trajectory(self):
        suite = default_monitor_suite()
        suite.bind_theory(beta=7.0, mu=2000.0, L=1.0, theta=0.01)
        loss = 3.0
        for s in range(1, 30):
            fired = suite.observe_round(
                obs(
                    s,
                    train_loss=loss,
                    mean_achieved_theta=0.008 + 0.001 * math.sin(s),
                    grad_dissimilarity=1.1 + 0.05 * math.cos(s),
                    straggler_gap=0.01 + 0.001 * (s % 3),
                )
            )
            assert fired == []
            loss *= 0.9
        assert suite.alerts == []
