"""Streaming runtime monitors: does the run track the theory?

Each monitor consumes the :class:`~repro.obs.ledger.RoundRecord` that
the server commits each round (data the server already computes — no
extra arithmetic touches the training path, so bit-identity on/off is
structural) and may emit a structured alert.  The :class:`MonitorSuite`
fans records out, writes alerts into the run ledger, and optionally
fails fast.

The Theorem-1 monitor duplicates the paper's contraction factor in
stdlib ``math`` rather than importing :mod:`repro.core.theory`
(layer 2, scipy-backed): ``repro.obs`` sits at layer 0 of the
layering DAG and must stay dependency-free.  The reference
implementation in ``core.theory`` is the authority; a unit test pins
the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.ledger import RoundRecord

__all__ = [
    "Alert",
    "DivergenceTripwire",
    "MonitorFailFast",
    "MonitorSuite",
    "SigmaDriftMonitor",
    "StragglerAnomalyMonitor",
    "TheoremOneMonitor",
    "ThetaDriftMonitor",
    "contraction_factor",
    "default_monitor_suite",
]


class MonitorFailFast(RuntimeError):
    """Raised by a fail-fast :class:`MonitorSuite` on an error alert."""


@dataclass
class Alert:
    """A structured monitor finding, destined for the ledger."""

    monitor: str
    round_index: int
    severity: str
    message: str
    evidence: Dict[str, Any] = field(default_factory=dict)


def contraction_factor(
    mu: float,
    theta: float,
    L: float,
    *,
    lam: float = 0.0,
    sigma_sq: float = 0.0,
) -> Optional[float]:
    """Theorem 1's per-round factor Θ, stdlib-only.

    Θ = (1/μ)[1 − θ√(2(1+σ²)) − (2L/μ̃)√((1+θ²)(1+σ²))
              − (2Lμ/μ̃²)(1+θ²)(1+σ²)]        with μ̃ = μ − λ.

    Mirrors ``repro.core.theory.federated_factor`` exactly (pinned by
    a test; β enters Theorem 1 only through θ, eq. 22).  Returns
    ``None`` when the preconditions fail (μ̃ ≤ 0 or non-finite inputs)
    — the caller falls back to monotone-descent monitoring, since a
    non-positive Θ predicts nothing useful.
    """
    if not all(math.isfinite(v) for v in (mu, theta, L, lam, sigma_sq)):
        return None
    mu_tilde = mu - lam
    if mu <= 0.0 or mu_tilde <= 0.0:
        return None
    one_plus = 1.0 + sigma_sq
    theta_sq = 1.0 + theta * theta
    bracket = (
        1.0
        - theta * math.sqrt(2.0 * one_plus)
        - (2.0 * L / mu_tilde) * math.sqrt(theta_sq * one_plus)
        - (2.0 * L * mu / (mu_tilde * mu_tilde)) * theta_sq * one_plus
    )
    return bracket / mu


class TheoremOneMonitor:
    """Predicted-vs-observed objective-gap contraction (Theorem 1).

    When Θ ∈ (0, 1) the paper predicts a geometric gap contraction, so
    consecutive evaluated losses must not *increase* beyond a noise
    slack — and when the constants put Θ outside (0, 1) (the common
    regime for the paper's L ≫ μ workloads, where the bound is vacuous)
    the monitor degrades to the same monotone-descent-with-slack check,
    because every convergent proximal run still descends on average.
    Two consecutive violations (``patience``) raise the alert; a loss
    explosion past ``blowup_factor``× the starting loss fires
    immediately, so a 3-round CI demo with an injected huge stepsize
    is caught on the spot.
    """

    name = "theorem1_contraction"

    def __init__(
        self,
        *,
        slack_rel: float = 0.05,
        slack_abs: float = 1e-9,
        patience: int = 2,
        blowup_factor: float = 10.0,
    ) -> None:
        self.slack_rel = slack_rel
        self.slack_abs = slack_abs
        self.patience = patience
        self.blowup_factor = blowup_factor
        self.theta: Optional[float] = None
        self.factor: Optional[float] = None
        self._constants: Dict[str, float] = {}
        self._prev_loss: Optional[float] = None
        self._first_loss: Optional[float] = None
        self._violations = 0

    def bind_theory(
        self,
        *,
        beta: float,
        mu: float,
        L: float,
        theta: float,
        lam: float = 0.0,
        sigma_sq: float = 0.0,
    ) -> None:
        """Pin the run's constants; computes Θ once, up front."""
        self.theta = theta
        self._constants = {
            "beta": beta, "mu": mu, "L": L, "theta": theta,
            "lam": lam, "sigma_sq": sigma_sq,
        }
        self.factor = contraction_factor(
            mu, theta, L, lam=lam, sigma_sq=sigma_sq
        )

    def observe(self, record: RoundRecord) -> Optional[Alert]:
        if not record.evaluated:
            return None
        loss = record.train_loss
        if not math.isfinite(loss):
            # leave the divergence tripwire to report non-finite losses
            self._prev_loss = loss
            return None
        if self._first_loss is None:
            self._first_loss = loss
        prev = self._prev_loss
        self._prev_loss = loss
        if prev is None or not math.isfinite(prev):
            return None
        contractive = self.factor is not None and 0.0 < self.factor < 1.0
        slack = self.slack_abs + self.slack_rel * max(1.0, abs(prev))
        # allowed ceiling for this round's loss under the active regime
        ceiling = prev + slack
        evidence = {
            "prev_loss": prev,
            "loss": loss,
            "slack": slack,
            "factor": self.factor,
            "regime": "contraction" if contractive else "monotone_descent",
            "constants": dict(self._constants),
        }
        blown = (
            self._first_loss is not None
            and loss > self.blowup_factor * max(1.0, abs(self._first_loss))
        )
        if loss <= ceiling and not blown:
            self._violations = 0
            return None
        self._violations += 1
        if not blown and self._violations < self.patience:
            return None
        evidence["violations"] = self._violations
        evidence["blowup"] = blown
        return Alert(
            monitor=self.name,
            round_index=record.round_index,
            severity="error",
            message=(
                "objective increased "
                f"({prev:.6g} -> {loss:.6g}) against the Theorem-1 "
                f"{evidence['regime']} prediction"
            ),
            evidence=evidence,
        )


class ThetaDriftMonitor:
    """Achieved-θ drift vs a self-calibrated baseline window.

    The local solvers are asked for inexactness θ; the first
    ``baseline_rounds`` observed θ̂ values set the baseline mean, and a
    later round drifting past ``drift_factor``× that mean (plus the
    configured θ as an absolute floor) means the inner solve budget no
    longer delivers the contract Theorem 1 assumes.
    """

    name = "theta_drift"

    def __init__(
        self, *, baseline_rounds: int = 3, drift_factor: float = 3.0
    ) -> None:
        self.baseline_rounds = baseline_rounds
        self.drift_factor = drift_factor
        self.target_theta: Optional[float] = None
        self._baseline: List[float] = []

    def observe(self, record: RoundRecord) -> Optional[Alert]:
        theta_hat = record.mean_achieved_theta
        if theta_hat is None or not math.isfinite(theta_hat):
            return None
        if len(self._baseline) < self.baseline_rounds:
            self._baseline.append(theta_hat)
            return None
        base = sum(self._baseline) / len(self._baseline)
        floor = max(base, self.target_theta or 0.0)
        limit = self.drift_factor * max(floor, 1e-12)
        if theta_hat <= limit:
            return None
        return Alert(
            monitor=self.name,
            round_index=record.round_index,
            severity="warning",
            message=(
                f"achieved theta {theta_hat:.4g} drifted past "
                f"{self.drift_factor:g}x baseline {base:.4g}"
            ),
            evidence={
                "achieved_theta": theta_hat,
                "baseline_mean": base,
                "limit": limit,
                "target_theta": self.target_theta,
            },
        )


class SigmaDriftMonitor:
    """Gradient-dissimilarity (Γ̂, the σ̄² proxy) drift detection.

    FedProx's Γ statistic — Σ p̃ₙ‖∇Jₙ‖² / ‖Σ p̃ₙ∇Jₙ‖²-style ratio over
    the sampled cohort — estimates how non-IID the round was.  A jump
    past ``drift_factor``× the calibrated baseline says the σ̄²
    assumption baked into the run's (β, θ) choice is stale.
    """

    name = "sigma_drift"

    def __init__(
        self, *, baseline_rounds: int = 3, drift_factor: float = 4.0
    ) -> None:
        self.baseline_rounds = baseline_rounds
        self.drift_factor = drift_factor
        self._baseline: List[float] = []

    def observe(self, record: RoundRecord) -> Optional[Alert]:
        gamma = record.grad_dissimilarity
        if gamma is None or not math.isfinite(gamma):
            return None
        if len(self._baseline) < self.baseline_rounds:
            self._baseline.append(gamma)
            return None
        base = sum(self._baseline) / len(self._baseline)
        limit = self.drift_factor * max(base, 1e-12)
        if gamma <= limit:
            return None
        return Alert(
            monitor=self.name,
            round_index=record.round_index,
            severity="warning",
            message=(
                f"gradient dissimilarity {gamma:.4g} drifted past "
                f"{self.drift_factor:g}x baseline {base:.4g}"
            ),
            evidence={
                "grad_dissimilarity": gamma,
                "baseline_mean": base,
                "limit": limit,
            },
        )


class DivergenceTripwire:
    """Immediate alert on non-finite or exploded training loss."""

    name = "divergence"

    def __init__(self, *, loss_ceiling: float = 1e8) -> None:
        self.loss_ceiling = loss_ceiling

    def observe(self, record: RoundRecord) -> Optional[Alert]:
        loss = record.train_loss
        if loss is None:
            return None
        if math.isfinite(loss) and abs(loss) <= self.loss_ceiling:
            return None
        kind = "non-finite" if not math.isfinite(loss) else "exploded"
        return Alert(
            monitor=self.name,
            round_index=record.round_index,
            severity="error",
            message=f"training loss is {kind}: {loss!r}",
            evidence={"loss": loss, "loss_ceiling": self.loss_ceiling},
        )


class StragglerAnomalyMonitor:
    """Straggler-gap outliers via rolling median absolute deviation.

    Keeps the last ``window`` straggler gaps; once ``min_history``
    samples exist, a gap beyond median + ``k``·MAD (with a small
    absolute floor so near-constant histories don't alert on noise)
    flags an anomalous round — a wedged worker, not workload skew.
    """

    name = "straggler_anomaly"

    def __init__(
        self,
        *,
        window: int = 20,
        min_history: int = 5,
        k: float = 8.0,
        min_gap: float = 1e-3,
    ) -> None:
        self.window = window
        self.min_history = min_history
        self.k = k
        self.min_gap = min_gap
        self._history: List[float] = []

    def observe(self, record: RoundRecord) -> Optional[Alert]:
        gap = record.straggler_gap
        if gap is None or not math.isfinite(gap):
            return None
        alert = None
        if len(self._history) >= self.min_history:
            ordered = sorted(self._history)
            median = ordered[len(ordered) // 2]
            mad = sorted(abs(v - median) for v in ordered)[len(ordered) // 2]
            limit = median + self.k * max(mad, 1e-6)
            if gap > limit and gap > self.min_gap:
                alert = Alert(
                    monitor=self.name,
                    round_index=record.round_index,
                    severity="warning",
                    message=(
                        f"straggler gap {gap:.4g}s is an outlier "
                        f"(median {median:.4g}s, MAD {mad:.4g}s)"
                    ),
                    evidence={
                        "gap": gap, "median": median,
                        "mad": mad, "limit": limit,
                    },
                )
        self._history.append(gap)
        if len(self._history) > self.window:
            self._history.pop(0)
        return alert


class MonitorSuite:
    """Fan observations out to monitors; route alerts to the ledger."""

    def __init__(self, monitors: List[Any], *, fail_fast: bool = False) -> None:
        self.monitors = list(monitors)
        self.fail_fast = fail_fast
        self.alerts: List[Alert] = []
        self._ledger = None

    def attach_ledger(self, ledger: Any) -> None:
        self._ledger = ledger

    def bind_theory(
        self,
        *,
        beta: float,
        mu: float,
        L: float,
        theta: float,
        lam: float = 0.0,
        sigma_sq: float = 0.0,
    ) -> None:
        """Push the run's constants to every monitor that wants them."""
        for monitor in self.monitors:
            bind = getattr(monitor, "bind_theory", None)
            if bind is not None:
                bind(beta=beta, mu=mu, L=L, theta=theta,
                     lam=lam, sigma_sq=sigma_sq)
            if hasattr(monitor, "target_theta"):
                monitor.target_theta = theta

    def observe_round(self, record: RoundRecord) -> List[Alert]:
        """Evaluate all monitors for one round; may raise on fail-fast."""
        from repro.obs.facade import telemetry

        fired: List[Alert] = []
        for monitor in self.monitors:
            alert = monitor.observe(record)
            if alert is None:
                continue
            fired.append(alert)
            self.alerts.append(alert)
            if self._ledger is not None:
                self._ledger.alert(
                    alert.round_index,
                    alert.monitor,
                    alert.message,
                    severity=alert.severity,
                    evidence=alert.evidence,
                )
            if telemetry.enabled:
                telemetry.counter_add(
                    "obs.monitor.alerts", 1, key=alert.monitor
                )
        if self.fail_fast:
            errors = [a for a in fired if a.severity == "error"]
            if errors:
                raise MonitorFailFast(
                    f"round {errors[0].round_index}: "
                    f"[{errors[0].monitor}] {errors[0].message}"
                )
        return fired


def default_monitor_suite(*, fail_fast: bool = False) -> MonitorSuite:
    """The standard five-detector suite wired by ``--ledger`` runs."""
    return MonitorSuite(
        [
            TheoremOneMonitor(),
            ThetaDriftMonitor(),
            SigmaDriftMonitor(),
            DivergenceTripwire(),
            StragglerAnomalyMonitor(),
        ],
        fail_fast=fail_fast,
    )
