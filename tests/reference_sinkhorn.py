"""Log-domain Sinkhorn as it stood before the stabilized scaling loop with
ε-annealing, kept verbatim as an independent oracle: every iteration is
an exact marginal projection of the potentials at the requested epsilon,
with no schedule and no support restriction.  `transport.sinkhorn` must
give the same value to 1e-9 wherever both converge."""

import numpy as np

from monotone_ergo.transport import (CostMatrix, SinkhornDiverged,
                                     TransportError, TransportResult, _masses)


def reference_sinkhorn(mu, nu, cost: CostMatrix, epsilon: float,
                       max_iter: int = 20000,
                       tol: float = 1e-9) -> TransportResult:
    """Log-domain Sinkhorn scaling; reports regularized and plan costs."""
    if epsilon <= 0:
        raise TransportError("epsilon must be positive")
    a, b = _masses(mu, nu)
    c = cost.c
    with np.errstate(divide="ignore"):
        loga = np.log(a)
        logb = np.log(b)
    f = np.zeros(len(a))
    g = np.zeros(len(b))
    it = 0
    err = np.inf
    for it in range(1, max_iter + 1):
        # f-update then g-update, each an exact marginal projection
        mat = (g[None, :] - c) / epsilon
        f = epsilon * (loga - _logsumexp(mat, axis=1))
        mat = (f[:, None] - c) / epsilon
        g = epsilon * (logb - _logsumexp(mat, axis=0))
        if not (np.all(np.isfinite(f[a > 0])) and np.all(np.isfinite(g[b > 0]))):
            raise SinkhornDiverged(f"non-finite potentials at iteration {it}")
        if it % 10 == 0 or it == max_iter:
            logplan = (f[:, None] + g[None, :] - c) / epsilon
            plan = np.exp(logplan)
            err = float(np.abs(plan.sum(axis=1) - a).sum()
                        + np.abs(plan.sum(axis=0) - b).sum())
            if err < tol:
                break
    logplan = (f[:, None] + g[None, :] - c) / epsilon
    plan = np.exp(logplan)
    return TransportResult(value=float((plan * c).sum()), plan=plan,
                           method="sinkhorn", iterations=it, gap=err,
                           epsilon=epsilon, converged=err < tol)


def _logsumexp(mat, axis):
    hi = np.max(mat, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.exp(mat - hi).sum(axis=axis)) + np.squeeze(hi, axis=axis)
    return out
