"""Coupling distances between probability distributions.

Exact optimal transport on finite supports via the transportation simplex
(with dual potentials, so optimality is certifiable through reduced
costs), total variation, entropic regularization (log-domain Sinkhorn),
and empirical Wasserstein estimation from equal-size sample ensembles by
the exact uniform assignment, with bootstrap confidence intervals.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.optimize import linear_sum_assignment

EXACT_SUPPORT_LIMIT = 4096
BOOTSTRAP_RESAMPLES = 200


class TransportError(ValueError):
    pass


class TooLarge(TransportError):
    pass


class Degenerate(TransportError):
    pass


class UnequalSampleCounts(TransportError):
    pass


class SinkhornDiverged(TransportError):
    pass


@dataclass(frozen=True)
class CostMatrix:
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise TransportError("costs must be finite and nonnegative")
        object.__setattr__(self, "c", c)
        self.c.setflags(write=False)


@dataclass
class TransportResult:
    value: float
    method: str
    plan: np.ndarray | None = None
    iterations: int = 0
    gap: float = 0.0
    epsilon: float | None = None
    dual_u: np.ndarray | None = None
    dual_v: np.ndarray | None = None
    n: int | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    reg_value: float | None = None
    converged: bool = True

    def to_json_obj(self):
        obj = {"value": self.value, "method": self.method}
        if self.n is not None:
            obj["n"] = self.n
        if self.epsilon is not None:
            obj["epsilon"] = self.epsilon
        if self.gap:
            obj["gap"] = self.gap
        if self.ci_low is not None:
            obj["ci_low"] = self.ci_low
            obj["ci_high"] = self.ci_high
        return obj


def total_variation(mu, nu) -> float:
    mu = np.asarray(getattr(mu, "p", mu), dtype=float)
    nu = np.asarray(getattr(nu, "p", nu), dtype=float)
    return float(0.5 * np.abs(mu - nu).sum())


# ---------------------------------------------------------------------------
# exact solver: transportation simplex
# ---------------------------------------------------------------------------

def _northwest_basis(a, b):
    """North-west corner starting plan plus a spanning basis of m+n-1 cells."""
    m, n = len(a), len(b)
    plan = np.zeros((m, n))
    basis = []
    ra, rb = a.copy(), b.copy()
    i = j = 0
    while i < m and j < n:
        q = min(ra[i], rb[j])
        plan[i, j] = q
        basis.append((i, j))
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # advance one index only, keeping the basis a spanning tree even
        # when both the row and the column are exhausted (degenerate cell)
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        else:
            j += 1
    return plan, basis


def _duals(cost, basis, m, n):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    by_row = [[] for _ in range(m)]
    by_col = [[] for _ in range(n)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in by_row[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in by_col[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    return u, v


def _find_cycle(basis, enter):
    """Alternating cycle created by adding `enter` to the basis tree."""
    i0, j0 = enter
    by_row, by_col = {}, {}
    for (i, j) in basis:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    # path from column j0 back to row i0 through basis edges
    prev = {("c", j0): None}
    stack = [("c", j0)]
    while stack:
        node = stack.pop()
        kind, k = node
        if kind == "c":
            for i in by_col.get(k, []):
                nxt = ("r", i)
                if nxt not in prev:
                    prev[nxt] = node
                    if i == i0:
                        stack = []
                        break
                    stack.append(nxt)
        else:
            for j in by_row.get(k, []):
                nxt = ("c", j)
                if nxt not in prev:
                    prev[nxt] = node
                    stack.append(nxt)
    node = ("r", i0)
    path = []
    while node is not None:
        path.append(node)
        node = prev[node]
    # path alternates row, col, row, ... from i0 to j0
    cells = [enter]
    for a, b in zip(path, path[1:]):
        (ka, xa), (kb, xb) = a, b
        cells.append((xa, xb) if ka == "r" else (xb, xa))
    return cells  # even positions gain mass, odd positions lose


def wasserstein_exact(mu, nu, cost: CostMatrix,
                      tol: float = 1e-12) -> TransportResult:
    """Optimal transport value and plan by the transportation simplex."""
    a = np.asarray(getattr(mu, "p", mu), dtype=float)
    b = np.asarray(getattr(nu, "p", nu), dtype=float)
    c = cost.c
    if a.sum() <= 0 or b.sum() <= 0:
        raise Degenerate("zero total mass")
    if len(a) > EXACT_SUPPORT_LIMIT or len(b) > EXACT_SUPPORT_LIMIT:
        raise TooLarge(f"support sizes {len(a)}x{len(b)}")
    if c.shape != (len(a), len(b)):
        raise TransportError("cost shape mismatch")

    rows = np.nonzero(a > 0)[0]
    cols = np.nonzero(b > 0)[0]
    ar, bc = a[rows], b[cols]
    cr = c[np.ix_(rows, cols)]
    m, n = len(rows), len(cols)

    plan, basis = _northwest_basis(ar, bc)
    max_iter = 50 * (m + n) + 1000
    it = 0
    while True:
        it += 1
        u, v = _duals(cr, basis, m, n)
        red = cr - u[:, None] - v[None, :]
        in_basis = np.zeros((m, n), dtype=bool)
        bi, bj = zip(*basis)
        in_basis[list(bi), list(bj)] = True
        red_masked = np.where(in_basis, 0.0, red)
        kmin = np.unravel_index(np.argmin(red_masked), red_masked.shape)
        converged = bool(red_masked[kmin] >= -tol)
        if converged or it > max_iter:
            break
        if it > max_iter // 2:
            # Bland-style anti-cycling: first improving cell instead
            cand = np.argwhere(red_masked < -tol)
            kmin = tuple(cand[0])
        cycle = _find_cycle(basis, (int(kmin[0]), int(kmin[1])))
        losers = cycle[1::2]
        theta_idx = min(range(len(losers)),
                        key=lambda k: (plan[losers[k]], losers[k]))
        leave = losers[theta_idx]
        theta = plan[leave]
        for k, cell in enumerate(cycle):
            plan[cell] += theta if k % 2 == 0 else -theta
        plan[leave] = 0.0
        basis.remove(leave)
        basis.append((int(kmin[0]), int(kmin[1])))

    full_plan = np.zeros_like(c)
    full_plan[np.ix_(rows, cols)] = plan
    value = float((plan * cr).sum())
    du = np.full(len(a), np.nan)
    dv = np.full(len(b), np.nan)
    du[rows], dv[cols] = u, v
    gap = float(-min(0.0, red_masked.min()))
    return TransportResult(value=value, plan=full_plan, method="exact",
                           iterations=it, gap=gap, dual_u=du, dual_v=dv,
                           converged=converged)


# ---------------------------------------------------------------------------
# entropic regularization
# ---------------------------------------------------------------------------

def sinkhorn(mu, nu, cost: CostMatrix, epsilon: float,
             max_iter: int = 20000, tol: float = 1e-9) -> TransportResult:
    """Log-domain Sinkhorn scaling; reports regularized and plan costs."""
    if epsilon <= 0:
        raise TransportError("epsilon must be positive")
    a = np.asarray(getattr(mu, "p", mu), dtype=float)
    b = np.asarray(getattr(nu, "p", nu), dtype=float)
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
    plan_cost = float((plan * c).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(plan > 0, plan * (np.log(plan) - 1.0), 0.0).sum()
    reg_value = plan_cost + epsilon * float(ent)
    return TransportResult(value=plan_cost, plan=plan, method="sinkhorn",
                           iterations=it, gap=err, epsilon=epsilon,
                           reg_value=reg_value, converged=err < tol)


def _logsumexp(mat, axis):
    hi = np.max(mat, axis=axis, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    out = np.log(np.exp(mat - hi).sum(axis=axis)) + np.squeeze(hi, axis=axis)
    return out


# ---------------------------------------------------------------------------
# empirical estimation from samples
# ---------------------------------------------------------------------------

def _as_matrix(samples):
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


# byte budget for one row block of the (rows, n_y, N) difference temporary
_BLOCK_BYTES = 8 * 2 ** 20

# each named cost as a function of the mean squared difference
_COSTS = {
    "l2_capped": lambda diff_sq: np.minimum(np.sqrt(diff_sq), 1.0),
    "abs": np.sqrt,
}


def pairwise_cost(xs, ys, cost_fn: str) -> np.ndarray:
    """Cost matrix between two sample sets for a named cost.

    Field samples use the unit-volume quadrature (mean over grid points)
    inside the L2 norm. The squared distances are built a block of rows
    at a time, so memory stays near the size of the result; every entry
    is still the mean over the same contiguous grid values.
    """
    if cost_fn not in _COSTS:
        raise TransportError(f"unknown cost function {cost_fn!r}")
    xs, ys = _as_matrix(xs), _as_matrix(ys)
    diff_sq = np.empty((len(xs), len(ys)))
    rows = max(1, _BLOCK_BYTES // max(1, ys.nbytes))
    for start in range(0, len(xs), rows):
        blk = slice(start, start + rows)
        diff_sq[blk] = ((xs[blk, None, :] - ys[None, :, :]) ** 2).mean(axis=2)
    return _COSTS[cost_fn](diff_sq)


def _uniform_assignment_value(cmat) -> float:
    ri, cj = linear_sum_assignment(cmat)
    return float(cmat[ri, cj].mean())


# rows of one gather block in `_resampled_assignment_values`
_GATHER_ROWS = 64


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _resampled_assignment_values(cmat, draws) -> np.ndarray:
    """Uniform assignment value of `cmat[row_idx][:, col_idx]` for each
    `(row_idx, col_idx)` in `draws`, in order.

    The draws are split over one thread per usable CPU (scipy's solver
    releases the GIL). Each thread gathers its resampled matrices into
    one buffer a block of rows at a time, so memory grows by about one
    resampled matrix per thread. The buffers are allocated by the calling
    thread: allocated in a worker, they stayed resident in its malloc
    arena after the call. The threads call the solver through
    `scipy.optimize`, not through this module's global name, so a wrapper
    installed on that name never runs concurrently.
    """
    vals = np.empty(len(draws))
    workers = min(_usable_cpus(), len(draws))
    n_rows, n_cols = len(draws[0][0]), len(draws[0][1])

    def solve(first, sub, rows):
        for k in range(first, len(draws), workers):
            row_idx, col_idx = draws[k]
            for start in range(0, n_rows, _GATHER_ROWS):
                blk = row_idx[start:start + _GATHER_ROWS]
                np.take(cmat, blk, axis=0, out=rows[:len(blk)])
                np.take(rows[:len(blk)], col_idx, axis=1,
                        out=sub[start:start + len(blk)])
            ri, cj = scipy.optimize.linear_sum_assignment(sub)
            vals[k] = sub[ri, cj].mean()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(solve, w, np.empty((n_rows, n_cols)),
                               np.empty((_GATHER_ROWS, cmat.shape[1])))
                   for w in range(workers)]
        for future in futures:
            future.result()
    return vals


def wasserstein_empirical(samples_x, samples_y, cost_fn: str = "l2_capped",
                          bootstrap: int = BOOTSTRAP_RESAMPLES,
                          rng=None) -> TransportResult:
    """Empirical coupling distance between two equal-size sample ensembles:
    the value of the optimal uniform assignment, with a bootstrap CI."""
    xs, ys = _as_matrix(samples_x), _as_matrix(samples_y)
    if len(xs) != len(ys):
        raise UnequalSampleCounts(f"{len(xs)} vs {len(ys)}")
    n = len(xs)
    if n > EXACT_SUPPORT_LIMIT:
        raise TooLarge(f"{n} samples for the exact assignment")
    cmat = pairwise_cost(xs, ys, cost_fn)
    value = _uniform_assignment_value(cmat)

    ci_low = ci_high = None
    if bootstrap and bootstrap > 0:
        rng = np.random.default_rng(0) if rng is None else rng
        draws = [(rng.integers(0, n, size=n), rng.integers(0, n, size=n))
                 for _ in range(bootstrap)]
        vals = _resampled_assignment_values(cmat, draws)
        ci_low = float(np.quantile(vals, 0.025))
        ci_high = float(np.quantile(vals, 0.975))

    return TransportResult(value=value, method="exact", n=n,
                           ci_low=ci_low, ci_high=ci_high)
