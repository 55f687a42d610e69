"""Extension example: non-smooth penalties through the same prox seam.

The paper's framework inherits ProxSVRG/ProxSARAH's ability to handle
non-smooth composite objectives.  Here we run the *local* proximal
variance-reduced loop with an L1 prox to recover a sparse linear model
on one device — demonstrating that :class:`FedProxVRLocalSolver`'s
machinery (estimators + prox steps) generalizes beyond the quadratic
consensus penalty.

Run:  python examples/sparse_recovery.py
"""

import numpy as np

from repro import LinearRegressionModel, L1Prox, make_estimator
from repro.models.batched import make_batch_kernel


def prox_vr_lasso(
    model: LinearRegressionModel,
    X: np.ndarray,
    y: np.ndarray,
    *,
    lam: float,
    eta: float,
    num_epochs: int,
    steps_per_epoch: int,
    batch_size: int,
    seed: int = 0,
) -> np.ndarray:
    """ProxSVRG for lasso: outer anchor + inner prox-VR steps.

    The estimators work on stacks of clients; one device is the stack
    of one, hence the ``[None]`` / ``[0]`` at the estimator calls.
    """
    rng = np.random.default_rng(seed)
    prox = L1Prox(lam)
    estimator = make_estimator("svrg")
    kernel = make_batch_kernel([model])
    w = np.zeros(model.num_parameters)
    n = X.shape[0]
    for _ in range(num_epochs):
        full_grad = model.gradient(w, X, y)
        v = estimator.start_epoch(w[None], full_grad[None])[0]
        w = prox(w - eta * v, eta)
        for _ in range(steps_per_epoch):
            idx = rng.choice(n, size=min(batch_size, n), replace=False)
            v = estimator.estimate(kernel, X[idx][None], y[idx][None], w[None])[0]
            w = prox(w - eta * v, eta)
    return w


def main() -> None:
    rng = np.random.default_rng(0)
    n, d, k = 400, 120, 8  # n samples, d features, k true non-zeros
    X = rng.standard_normal((n, d))
    w_true = np.zeros(d)
    support = rng.choice(d, size=k, replace=False)
    w_true[support] = rng.uniform(1.0, 3.0, size=k) * rng.choice([-1, 1], size=k)
    y = X @ w_true + 0.05 * rng.standard_normal(n)

    model = LinearRegressionModel(d, fit_intercept=False)
    L = model.smoothness(X)
    w_hat = prox_vr_lasso(
        model, X, y,
        lam=0.08, eta=1.0 / (3.0 * L),
        num_epochs=30, steps_per_epoch=50, batch_size=16,
    )

    recovered = np.flatnonzero(np.abs(w_hat) > 0.1)
    print(f"true support     : {sorted(support.tolist())}")
    print(f"recovered support: {recovered.tolist()}")
    overlap = len(set(support.tolist()) & set(recovered.tolist()))
    print(f"support overlap  : {overlap}/{k}")
    err = np.linalg.norm(w_hat - w_true) / np.linalg.norm(w_true)
    print(f"relative L2 error: {err:.4f}")
    print(f"sparsity         : {np.count_nonzero(np.abs(w_hat) > 1e-8)}/{d} non-zeros")


if __name__ == "__main__":
    main()
