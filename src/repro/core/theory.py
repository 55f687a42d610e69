"""Numerical form of the paper's convergence analysis.

Implements, as checked closed forms or small root-finding problems:

* **Lemma 1** — the local-convergence conditions tying the step-size
  parameter ``beta`` (``eta = 1/(beta L)``), the local iteration count
  ``tau`` and the local accuracy ``theta``:

  - lower bound (55): ``tau >= 3 (beta^2 L^2 + mu^2) / (theta^2 mu~ L (beta - 3))``
  - SARAH upper bound (13): ``tau <= (5 beta^2 - 4 beta) / 8``
  - SVRG upper bound (14):  ``tau <= (5 beta^2 - 4 beta) / (8 a) - 2``
    with ``a - 4 >= 4 sqrt(a (tau + 1))`` (65)

* **Remark 1(3)** — the smallest feasible ``beta`` (eq. (15)) and the
  matched ``tau`` (eq. (16)).

* **Theorem 1** — the federated factor ``Theta`` and the rate (17).

* **Corollary 1** — global iterations ``T >= Delta / (Theta eps)`` (18).

* **Eq. (22)** — ``theta`` eliminated at the Lemma-1 equality point,
  used by the §4.3 optimizer.

All functions validate their preconditions and raise
:class:`InfeasibleParametersError` where the paper's conditions admit no
solution, so experiment scripts fail loudly on bad configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import optimize

from repro.exceptions import InfeasibleParametersError
from repro.utils.validation import check_in_range, check_positive


# ---------------------------------------------------------------------------
# Problem constants container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConstants:
    """The Assumption-1 constants of a federated problem.

    ``L`` — per-sample smoothness; ``lam`` — non-convexity bound (the
    paper's lambda, with ``F_n`` being ``(-lam)``-strongly convex);
    ``sigma_bar_sq`` — data-heterogeneity second moment
    ``sigma_bar^2 = sum_n (D_n/D) sigma_n^2``.
    """

    L: float
    lam: float
    sigma_bar_sq: float = 0.0

    def __post_init__(self) -> None:
        check_positive("L", self.L)
        check_positive("lam", self.lam, strict=False)
        check_positive("sigma_bar_sq", self.sigma_bar_sq, strict=False)

    def mu_tilde(self, mu: float) -> float:
        """Surrogate strong-convexity ``mu~ = mu - lam`` (must be > 0)."""
        mu_t = mu - self.lam
        if mu_t <= 0:
            raise InfeasibleParametersError(
                f"mu={mu} must exceed lambda={self.lam} for J_n to be "
                "strongly convex (Section 4.1)"
            )
        return mu_t


def aggregate_heterogeneous_constants(
    L_values,
    lam_values,
    weights=None,
    sigma_values=None,
) -> ProblemConstants:
    """Fold per-device ``(L_n, lambda_n, sigma_n)`` into one constant set.

    The paper (end of §3) notes all results hold with heterogeneous
    ``L_n, lambda_n`` by substituting the worst case in Lemma 1 and the
    data-weighted aggregates ``L-bar, lambda-bar`` in Theorem 1; we take
    the conservative route and use the per-device *maxima* for ``L`` and
    ``lambda``, with ``sigma_bar^2 = sum_n p_n sigma_n^2`` (the paper's
    own definition).
    """
    import numpy as _np

    L_arr = _np.asarray(list(L_values), dtype=float)
    lam_arr = _np.asarray(list(lam_values), dtype=float)
    if L_arr.size == 0 or L_arr.size != lam_arr.size:
        raise InfeasibleParametersError(
            "need matching, non-empty L and lambda sequences"
        )
    if weights is None:
        w = _np.full(L_arr.size, 1.0 / L_arr.size)
    else:
        w = _np.asarray(list(weights), dtype=float)
        if w.size != L_arr.size or _np.any(w < 0) or w.sum() <= 0:
            raise InfeasibleParametersError("invalid device weights")
        w = w / w.sum()
    if sigma_values is None:
        sigma_sq = 0.0
    else:
        s = _np.asarray(list(sigma_values), dtype=float)
        if s.size != L_arr.size:
            raise InfeasibleParametersError("sigma sequence length mismatch")
        sigma_sq = float(_np.dot(w, s**2))
    return ProblemConstants(
        L=float(L_arr.max()), lam=float(lam_arr.max()), sigma_bar_sq=sigma_sq
    )


# ---------------------------------------------------------------------------
# Lemma 1: tau bounds
# ---------------------------------------------------------------------------


def tau_lower_bound(
    beta: float, theta: float, mu: float, constants: ProblemConstants
) -> float:
    """Lemma 1 lower bound (55): minimum ``tau`` for a theta-accurate solve."""
    check_in_range("theta", theta, 0.0, 1.0, inclusive="right")
    if beta <= 3.0:
        raise InfeasibleParametersError(
            f"beta={beta} must exceed 3 for the Lemma 1 bounds to be positive"
        )
    L = constants.L
    mu_t = constants.mu_tilde(mu)
    return 3.0 * (beta**2 * L**2 + mu**2) / (theta**2 * mu_t * L * (beta - 3.0))


def tau_upper_bound_sarah(beta: float) -> float:
    """Lemma 1(a) upper bound (13): ``(5 beta^2 - 4 beta)/8``."""
    check_positive("beta", beta)
    return (5.0 * beta**2 - 4.0 * beta) / 8.0


def svrg_min_a(tau: float) -> float:
    """Smallest ``a`` satisfying condition (65): ``a - 4 >= 4 sqrt(a(tau+1))``.

    Substituting ``s = sqrt(a)`` gives ``s^2 - 4 s sqrt(tau+1) - 4 >= 0``
    whose positive root is ``s* = 2 sqrt(tau+1) + 2 sqrt(tau+2)``, hence
    ``a_min = 4 (sqrt(tau+1) + sqrt(tau+2))^2``.
    """
    check_positive("tau", tau, strict=False)
    root = math.sqrt(tau + 1.0) + math.sqrt(tau + 2.0)
    return 4.0 * root**2


def tau_upper_bound_svrg(beta: float, a: Optional[float] = None) -> float:
    """Lemma 1(b) upper bound (14) for a given ``a``, or the best
    *self-consistent* bound when ``a`` is omitted.

    Self-consistency: the largest integer ``tau`` with
    ``tau <= (5 beta^2 - 4 beta) / (8 a_min(tau)) - 2``.  The right side
    is non-increasing in ``tau`` — in floating point too, since every
    operation in it rounds monotonically — so the feasible integers form
    an interval starting at 0, and its end is found by doubling then
    bisection in O(log tau) evaluations.  When even ``tau = 0`` is
    infeasible the (negative) bound at ``tau = 0`` is returned.
    """
    check_positive("beta", beta)
    base = 5.0 * beta**2 - 4.0 * beta
    if a is not None:
        check_positive("a", a)
        return base / (8.0 * a) - 2.0

    def exceeds(tau: int) -> bool:
        return tau > base / (8.0 * svrg_min_a(tau)) - 2.0

    # Invariant: every tau in [1, good] is feasible, ``bad`` is not.
    good, bad = 0, 1
    while not exceeds(bad):
        good, bad = bad, 2 * bad
    while bad - good > 1:
        mid = (good + bad) // 2
        if exceeds(mid):
            bad = mid
        else:
            good = mid
    rhs0 = base / (8.0 * svrg_min_a(0)) - 2.0
    if good == 0 and rhs0 < 0:
        return rhs0  # infeasible even at tau = 0; report the (negative) bound
    return float(good)


def lemma1_feasible(
    beta: float,
    tau: float,
    theta: float,
    mu: float,
    constants: ProblemConstants,
    *,
    estimator: str = "sarah",
) -> bool:
    """Check whether ``(beta, tau, theta, mu)`` satisfies Lemma 1."""
    if beta <= 3.0:
        return False
    try:
        lo = tau_lower_bound(beta, theta, mu, constants)
    except InfeasibleParametersError:
        return False
    if estimator == "sarah":
        hi = tau_upper_bound_sarah(beta)
    elif estimator == "svrg":
        hi = tau_upper_bound_svrg(beta, svrg_min_a(tau))
    else:
        raise InfeasibleParametersError(f"unknown estimator {estimator!r}")
    return lo <= tau <= hi


def beta_min(
    theta: float,
    mu: float,
    constants: ProblemConstants,
    *,
    estimator: str = "sarah",
    beta_max: float = 1e7,
) -> float:
    """Remark 1(3): smallest ``beta > 3`` where lower and upper bounds meet.

    For SARAH this solves eq. (15); for SVRG the upper bound uses the
    self-consistent ``a``.  Root-found with ``brentq`` on the gap
    ``upper(beta) - lower(beta)``, which goes from negative (near
    ``beta = 3``, where the lower bound blows up) to positive (large
    ``beta``, where the upper bound grows as ``beta^2`` vs the lower
    bound's ``beta``).
    """
    check_in_range("theta", theta, 0.0, 1.0, inclusive="neither")

    def gap(beta: float) -> float:
        lo = tau_lower_bound(beta, theta, mu, constants)
        if estimator == "sarah":
            hi = tau_upper_bound_sarah(beta)
        else:
            hi = tau_upper_bound_svrg(beta)
        return hi - lo

    lo_beta = 3.0 + 1e-9
    if gap(beta_max) < 0:
        raise InfeasibleParametersError(
            f"no feasible beta <= {beta_max} for theta={theta}, mu={mu}: "
            "the Lemma 1 bounds never cross"
        )
    # gap is negative just above 3 (lower bound diverges), positive at
    # beta_max: bracket the crossing.
    return float(optimize.brentq(gap, lo_beta, beta_max, xtol=1e-10, rtol=1e-12))


def tau_star_sarah(beta: float) -> float:
    """Eq. (16): the matched ``tau`` at ``beta_min`` (SARAH)."""
    return tau_upper_bound_sarah(beta)


def theta_from_beta(mu: float, beta: float, constants: ProblemConstants) -> float:
    """Eq. (22): ``theta`` at the Lemma-1 equality point (SARAH form).

    ``theta^2 = 24 (beta^2 L^2 + mu^2) / (mu~ L (5 beta^2 - 4 beta)(beta - 3))``.
    Raises if the resulting ``theta`` is not a valid accuracy in (0, 1).
    """
    if beta <= 3.0:
        raise InfeasibleParametersError(f"beta={beta} must exceed 3")
    L = constants.L
    mu_t = constants.mu_tilde(mu)
    theta_sq = (
        24.0
        * (beta**2 * L**2 + mu**2)
        / (mu_t * L * (5.0 * beta**2 - 4.0 * beta) * (beta - 3.0))
    )
    return math.sqrt(theta_sq)


# ---------------------------------------------------------------------------
# Theorem 1 / Corollary 1
# ---------------------------------------------------------------------------


def federated_factor(
    theta: float, mu: float, constants: ProblemConstants
) -> float:
    """Theorem 1's ``Theta`` (may be non-positive; caller checks).

    ``Theta = (1/mu) [ 1 - theta sqrt(2(1+sigma^2))
    - (2L/mu~) sqrt((1+theta^2)(1+sigma^2))
    - (2 L mu / mu~^2)(1+theta^2)(1+sigma^2) ]``
    """
    check_positive("theta", theta, strict=False)
    L = constants.L
    s2 = constants.sigma_bar_sq
    mu_t = constants.mu_tilde(mu)
    one_plus = 1.0 + s2
    term1 = theta * math.sqrt(2.0 * one_plus)
    term2 = (2.0 * L / mu_t) * math.sqrt((1.0 + theta**2) * one_plus)
    term3 = (2.0 * L * mu / mu_t**2) * (1.0 + theta**2) * one_plus
    return (1.0 - term1 - term2 - term3) / mu


def theta_accuracy_cap(sigma_bar_sq: float) -> float:
    """Remark 2(1): ``theta`` must be below ``(2(1+sigma^2))^{-1/2}``."""
    check_positive("sigma_bar_sq", sigma_bar_sq, strict=False)
    return 1.0 / math.sqrt(2.0 * (1.0 + sigma_bar_sq))


def best_mu_for_theta(
    theta: float,
    constants: ProblemConstants,
    *,
    mu_max: Optional[float] = None,
) -> float:
    """The ``mu`` maximizing Theorem 1's ``Theta`` at a fixed ``theta``.

    ``Theta(mu)`` rises from negative values (mu near lambda), peaks,
    and decays like ``1/mu``; a log-space scalar search finds the peak.
    Raises :class:`InfeasibleParametersError` when no ``mu`` achieves
    ``Theta > 0`` (theta too large for the heterogeneity, Remark 2(1)).
    """
    check_in_range("theta", theta, 0.0, 1.0, inclusive="left")
    if mu_max is None:
        mu_max = 1e6 * max(1.0, constants.L)

    def negative_factor(log_mu: float) -> float:
        return -federated_factor(theta, constants.lam + math.exp(log_mu), constants)

    lo = math.log(max(1e-9, 1e-4 * constants.L))
    hi = math.log(mu_max)
    result = optimize.minimize_scalar(
        negative_factor, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-10},
    )
    mu = constants.lam + math.exp(result.x)
    if -result.fun <= 0:
        raise InfeasibleParametersError(
            f"no mu achieves Theta > 0 at theta={theta} "
            f"(theta cap is {theta_accuracy_cap(constants.sigma_bar_sq):.4g}, "
            "and the smoothness/curvature terms may still dominate)"
        )
    return float(mu)


def global_iterations_required(
    delta0: float, theta: float, mu: float, constants: ProblemConstants, eps: float
) -> float:
    """Corollary 1 (18): ``T >= Delta(w^0) / (Theta eps)``."""
    check_positive("delta0", delta0, strict=False)
    check_positive("eps", eps)
    factor = federated_factor(theta, mu, constants)
    if factor <= 0:
        raise InfeasibleParametersError(
            f"Theta={factor:.4g} <= 0 for theta={theta}, mu={mu}: Theorem 1 "
            "gives no guarantee (increase mu or decrease theta)"
        )
    return delta0 / (factor * eps)


def stationarity_bound(
    delta0: float, theta: float, mu: float, constants: ProblemConstants, T: int
) -> float:
    """Theorem 1's RHS (17): the guaranteed mean squared gradient norm."""
    check_positive("T", T)
    factor = federated_factor(theta, mu, constants)
    if factor <= 0:
        raise InfeasibleParametersError(
            f"Theta={factor:.4g} <= 0: no Theorem 1 guarantee at these parameters"
        )
    return delta0 / (factor * T)


def training_time(
    T: float, tau: float, d_com: float, d_cmp: float
) -> float:
    """Eq. (19): total training time ``T (d_com + d_cmp tau)``."""
    check_positive("T", T)
    check_positive("tau", tau, strict=False)
    check_positive("d_com", d_com, strict=False)
    check_positive("d_cmp", d_cmp, strict=False)
    return T * (d_com + d_cmp * tau)
