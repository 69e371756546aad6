"""Coupling distances between probability distributions.

Exact optimal transport on finite supports via the transportation simplex
(with dual potentials, so optimality is certifiable through reduced
costs), total variation, entropic regularization (stabilized Sinkhorn
scaling with epsilon annealing), and empirical Wasserstein estimation by
the exact uniform assignment on the cost matrix of two equal-size sample
ensembles, with a closed-form bounded-differences confidence interval
for its mean.  The cost matrix is one `cdist` call.  A batch of
assignment jobs, such as every W, cost matrix and permutation-null
re-split of an ergodicity run, runs over one forked shard per usable
CPU when it is large, and in-process when it is small.

The simplex starts from the least-cost (matrix-minimum) basis, keeps its
basis as a spanning tree and returns the same bits as rebuilding the tree
every pivot (`tests/reference_simplex.py`).  The scaling loop gives the
values of the log-domain Sinkhorn loop it replaced
(`tests/reference_sinkhorn.py`) to 1e-9 on the tested instances where
both converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .shards import run_sharded, usable_cpus

EXACT_SUPPORT_LIMIT = 4096


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


class NotConverged(TransportError):
    """A simplex stopped at its iteration cap, raised by a caller that
    needs the optimal value."""


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
    ci_low: float | None = None
    ci_high: float | None = None
    converged: bool = True

    def to_json_obj(self):
        obj = {"value": self.value, "method": self.method,
               "converged": self.converged}
        if self.epsilon is not None:
            obj["epsilon"] = self.epsilon
        if self.gap:
            obj["gap"] = self.gap
        return obj


def total_variation(mu, nu) -> float:
    mu, nu = _masses(mu, nu)
    return float(0.5 * np.abs(mu - nu).sum())


def _masses(mu, nu):
    """Both mass vectors as float arrays, checked to be finite,
    nonnegative, not all zero and of equal totals (to 1e-9 relative)."""
    a = np.asarray(getattr(mu, "p", mu), dtype=float)
    b = np.asarray(getattr(nu, "p", nu), dtype=float)
    sa, sb = float(a.sum()), float(b.sum())
    if not (np.all(a >= 0) and np.all(b >= 0) and np.isfinite(sa + sb)):
        raise TransportError("masses must be finite and nonnegative")
    if sa <= 0 or sb <= 0:
        raise Degenerate("zero total mass")
    if abs(sa - sb) > 1e-9 * max(sa, sb):
        raise TransportError(f"total masses differ: {sa!r} vs {sb!r}")
    return a, b


# ---------------------------------------------------------------------------
# exact solver: transportation simplex
# ---------------------------------------------------------------------------

# a non-basic cell enters when its reduced cost is below -_REDUCED_TOL
_REDUCED_TOL = 1e-12


def _least_cost_basis(a, b, c):
    """Least-cost (matrix-minimum) starting plan plus a spanning basis of
    m+n-1 cells.

    The cells are visited by ascending cost, ties in row-major order.  Each
    one whose row and column are both open takes the smaller of their
    remainders and closes one of the two: the row if more than one row is
    open and either the row's remainder is at most the column's or the
    column is the last open one, else the column.  One line closes per
    cell, so the basis stays a spanning tree even when both are exhausted
    (degenerate cell).  The cell of the last open row and column takes
    the larger remainder, so that rounding between the two totals cannot
    leave either short of its mass."""
    m, n = len(a), len(b)
    plan = np.zeros((m, n))
    basis = []
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    for k in np.argsort(c, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if not (row_open[i] and col_open[j]):
            continue
        basis.append((i, j))
        if rows_left == cols_left == 1:
            plan[i, j] = max(ra[i], rb[j])
            break
        q = min(ra[i], rb[j])
        plan[i, j] = q
        ra[i] -= q
        rb[j] -= q
        if rows_left > 1 and (ra[i] <= rb[j] or cols_left == 1):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    return plan, basis


def _hang(top, parent, depth, nbrs, pot, cost, m):
    """Depth, parent and dual of each node under the edge (top, parent[top]),
    top-down; rows are nodes 0..m-1, columns m.., and a node's dual is
    c_ij minus its parent's: v_j = c_ij - u_i, u_i = c_ij - v_j."""
    stack = [top]
    while stack:
        k = stack.pop()
        p = parent[k]
        depth[k] = depth[p] + 1
        pot[k] = (cost[k][p - m] if k < m else cost[p][k - m]) - pot[p]
        for w in nbrs[k]:
            if w != p:
                parent[w] = k
                stack.append(w)


def wasserstein_exact(mu, nu, cost: CostMatrix) -> TransportResult:
    """Optimal transport value and plan by the transportation simplex.

    The basis is a spanning tree rooted at row 0. A pivot walks parents to
    find its cycle and re-hangs only the subtree the leaving edge cuts off;
    each dual is the same root-path sum a fresh walk of the tree gives."""
    a, b = _masses(mu, nu)
    c = cost.c
    if len(a) > EXACT_SUPPORT_LIMIT or len(b) > EXACT_SUPPORT_LIMIT:
        raise TooLarge(f"support sizes {len(a)}x{len(b)}")
    if c.shape != (len(a), len(b)):
        raise TransportError("cost shape mismatch")

    rows = np.nonzero(a > 0)[0]
    cols = np.nonzero(b > 0)[0]
    ar, bc = a[rows], b[cols]
    cr = c[np.ix_(rows, cols)]
    m, n = len(rows), len(cols)

    plan, basis = _least_cost_basis(ar, bc, cr)
    in_basis = np.zeros((m, n), dtype=bool)
    nbrs = [set() for _ in range(m + n)]
    for (i, j) in basis:
        in_basis[i, j] = True
        nbrs[i].add(m + j)
        nbrs[m + j].add(i)
    costs = cr.tolist()
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    for w in nbrs[0]:
        parent[w] = 0
        _hang(w, parent, depth, nbrs, pot, costs, m)
    max_iter = 50 * (m + n) + 1000
    it = 0
    while True:
        it += 1
        u, v = np.array(pot[:m]), np.array(pot[m:])
        red = cr - u[:, None] - v[None, :]
        red_masked = np.where(in_basis, 0.0, red)
        kmin = np.unravel_index(np.argmin(red_masked), red_masked.shape)
        converged = bool(red_masked[kmin] >= -_REDUCED_TOL)
        if converged or it > max_iter:
            break
        if it > max_iter // 2:
            # Bland-style anti-cycling: first improving cell instead
            kmin = tuple(np.argwhere(red_masked < -_REDUCED_TOL)[0])
        i0, j0 = int(kmin[0]), int(kmin[1])
        # cycle: (i0, j0) and the tree path from row i0 up to the common
        # ancestor and down to column j0; an edge crossed from a row to a
        # column loses mass, and `lose` keeps the entering end below it
        gain, lose = [(i0, j0)], {}
        x, y = i0, m + j0
        while x != y:
            if depth[x] >= depth[y]:
                k, x, end = x, parent[x], i0
            else:
                k, y, end = y, parent[y], m + j0
            p = parent[k]
            cell = (k, p - m) if k < m else (p, k - m)
            if (k < m) == (end == i0):
                lose[cell] = end
            else:
                gain.append(cell)
        leave = min(lose, key=lambda cell: (plan[cell], cell))
        theta = plan[leave]
        for cell in gain:
            plan[cell] += theta
        for cell in lose:
            plan[cell] -= theta
        plan[leave] = 0.0
        in_basis[leave], in_basis[i0, j0] = False, True
        nbrs[leave[0]].discard(m + leave[1])
        nbrs[m + leave[1]].discard(leave[0])
        nbrs[i0].add(m + j0)
        nbrs[m + j0].add(i0)
        top = lose[leave]
        parent[top] = i0 + m + j0 - top
        _hang(top, parent, depth, nbrs, pot, costs, m)

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
# entropic regularization: stabilized scaling with epsilon annealing
# ---------------------------------------------------------------------------

# the stopping tolerance of every stage but the last; a tight one lets an
# early stage spend the whole iteration budget, leaving potentials that
# were never annealed down to epsilon
_STAGE_TOL = 1e-3
# a scaling outside [1/_ABSORB, _ABSORB] is absorbed into the potentials
_ABSORB = 1e3
# kernel entries below this are zero: with every scaling above 1/_ABSORB
# no product in the loop is then subnormal, which costs about ten times a
# normal one, unless a mass is below 1e-24; each dropped entry carries
# less than 1e-274 of mass
_KERNEL_FLOOR = 1e-280
# iterations between two marginal checks
_CHECK_EVERY = 10
# the iteration cap over all stages, and the L1 marginal tolerance of the
# last stage, which `converged` reports
SINKHORN_MAX_ITER = 20000
SINKHORN_TOL = 1e-9


def _kernel(f, g, c, eps):
    """exp((f + g - c) / eps), outer sum, with entries below _KERNEL_FLOOR
    set to zero."""
    k = np.exp((f[:, None] + g[None, :] - c) / eps)
    k[k < _KERNEL_FLOOR] = 0.0
    return k


def sinkhorn(mu, nu, cost: CostMatrix, epsilon: float) -> TransportResult:
    """Entropic optimal transport by stabilized scaling with epsilon
    annealing (Schmitzer 2019; Peyre-Cuturi 2019, ch. 4); its value is the
    cost of the plan.

    Only the rows and columns that carry mass take part.  The plan is
    diag(a u) K diag(b v) with K = exp((f + g - C) / eps_k), f and g the
    potentials of the entropy relative to a x b, so that every row and
    column of K keeps entries far above underflow whatever its mass.  Each
    iteration sets u = 1 / (K (b v)), then v = 1 / (K^T (a u)), the
    Sinkhorn updates of the kernel diag(a) K diag(b); a scaling that leaves
    [1/_ABSORB, _ABSORB] is absorbed into f, g, which rebuilds K.  eps_k
    starts at epsilon 2^k, the first such value at or above the cost
    span, and halves each stage down to epsilon, each stage warm-started
    from the last one's potentials.  Every stage but the last stops when
    the row marginal is within _STAGE_TOL (L1), the last within
    SINKHORN_TOL, all stages together within SINKHORN_MAX_ITER iterations.
    `iterations` counts every stage; `gap` is the L1 error of both
    marginals of the returned plan and `converged` is gap < SINKHORN_TOL.
    An epsilon outside (0, inf), NaN included, is a TransportError."""
    if not 0 < epsilon < math.inf:
        raise TransportError(f"'epsilon' must be positive and finite, "
                             f"not {epsilon!r}")
    a, b = _masses(mu, nu)
    c = cost.c
    if c.shape != (len(a), len(b)):
        raise TransportError("cost shape mismatch")
    rows = np.nonzero(a > 0)[0]
    cols = np.nonzero(b > 0)[0]
    ar, bc = a[rows], b[cols]
    cr = c[np.ix_(rows, cols)]
    m = len(rows)
    span = float(cr.max() - cr.min())
    stages = math.ceil(math.log2(span / epsilon)) if span > epsilon else 0
    # potentials, then scalings, of the rows then the columns; g starts at
    # min C, so the first kernel lies in [exp(-1), 1]
    fg = np.zeros(m + len(cols))
    fg[m:] = cr.min()
    uv = np.ones_like(fg)
    f, g, u, v = fg[:m], fg[m:], uv[:m], uv[m:]
    it = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(stages, -1, -1):
            eps = epsilon * 2.0 ** k
            stop = SINKHORN_TOL if k == 0 else max(SINKHORN_TOL, _STAGE_TOL)
            kern = _kernel(f, g, cr, eps)
            while True:
                kv = kern @ (bc * v)
                if it % _CHECK_EVERY == 0 and \
                        ar @ np.abs(u * kv - 1.0) < stop:
                    break
                if it >= SINKHORN_MAX_ITER:
                    break
                it += 1
                np.divide(1.0, kv, out=u)
                np.divide(1.0, (ar * u) @ kern, out=v)
                if not (1.0 / _ABSORB < uv.min() and uv.max() < _ABSORB):
                    if not (np.all(np.isfinite(uv)) and uv.min() > 0):
                        raise SinkhornDiverged(
                            f"non-finite scalings at iteration {it}")
                    fg += eps * np.log(uv)
                    uv[:] = 1.0
                    kern = _kernel(f, g, cr, eps)
            # a stage left at the cap still hands on its potentials, so
            # the plan returned is always one at epsilon
            if k > 0:
                fg += eps * np.log(uv)
                uv[:] = 1.0
    plan = np.zeros_like(c)
    plan[np.ix_(rows, cols)] = (ar * u)[:, None] * kern * (bc * v)[None, :]
    err = float(np.abs(plan.sum(axis=1) - a).sum()
                + np.abs(plan.sum(axis=0) - b).sum())
    return TransportResult(value=float((plan * c).sum()), plan=plan,
                           method="sinkhorn", iterations=it, gap=err,
                           epsilon=epsilon, converged=err < SINKHORN_TOL)


# ---------------------------------------------------------------------------
# empirical estimation from samples
# ---------------------------------------------------------------------------

def pairwise_cost(xs, ys) -> np.ndarray:
    """Capped L2 cost min(1, ||x - y||) between rows of two sample arrays.

    Field samples use the unit-volume quadrature (mean over grid points)
    inside the L2 norm.  The squared distances are one `cdist` call,
    which is exactly symmetric for `pairwise_cost(pool, pool)` and exactly
    0 between equal rows; they are then divided by N, rooted and capped
    in place, so for C-contiguous float samples the n_x x n_y result is
    the only allocation.
    """
    out = cdist(xs, ys, "sqeuclidean")
    np.divide(out, ys.shape[1], out=out)
    np.sqrt(out, out=out)
    return np.minimum(out, 1.0, out=out)


def assignment_value(cmat) -> float:
    """Mean cost of the optimal uniform assignment of a square cost matrix."""
    ri, cj = linear_sum_assignment(cmat)
    return float(cmat[ri, cj].mean())


def resplit_value(cmat, row_idx, col_idx) -> float:
    """`assignment_value` of the resampled matrix
    `cmat[row_idx][:, col_idx]`."""
    return assignment_value(cmat.take(row_idx, 0).take(col_idx, 1))


# cost-matrix cells (rows x columns, summed over a batch's assignments)
# one forked shard must carry; below it the forks (about 10 ms for two)
# and the hand-back cost more than the assignments they spread, so an
# ergodicity run's batch of 3 grid W's, its stationarity w and 50 null
# re-splits of n x n forks on two CPUs from n = 140.  200 m x m draws
# from the `ergodicity` workload's 512-path cost matrices at t = 0.5, 1,
# 2 on a 2-core Xeon (ms, medians of 15), one shard / two: m = 64 (410k
# cells a shard) 16, 28, 37 / 21, 30, 33; m = 80 (640k) 21, 45, 65 / 21,
# 38, 50; m = 96 (922k) 31, 65, 95 / 33, 50, 61
_SHARD_MIN_CELLS = 1 << 19


def assignment_batch(jobs, cells) -> list:
    """[job() for job in jobs], in order, for argument-free `jobs` whose
    assignments solve `cells` cost-matrix cells in all.

    The jobs are dealt in turn to one shard per usable CPU (job i to
    shard i mod the shard count), each shard a forked worker
    (`shards.run_sharded`), as long as every shard gets
    `_SHARD_MIN_CELLS` cells; a smaller batch runs in-process.  Dealing
    spreads jobs of one kind that are listed together, such as the
    costlier grid W's, evenly over the shards."""
    count = max(1, min(usable_cpus(), len(jobs), cells // _SHARD_MIN_CELLS))
    dealt = run_sharded(count, count, lambda shard, _: [
        job() for job in jobs[shard::count]])
    results = [None] * len(jobs)
    for shard, part in enumerate(dealt):
        results[shard::count] = part
    return results


def empirical_w(xs, ys) -> TransportResult:
    """`wasserstein_empirical` of the `pairwise_cost` of two ensembles."""
    return wasserstein_empirical(pairwise_cost(xs, ys))


def wasserstein_empirical(cmat) -> TransportResult:
    """Empirical coupling distance between two equal-size sample ensembles
    from their square cost matrix `cmat` (x samples by rows, y samples by
    columns, every entry in [0, 1]): the value W_n of the optimal uniform
    assignment, with the interval [max(0, W_n - h), min(1, W_n + h)],
    h = sqrt(ln 40 / n).

    With the cost capped at 1, moving one of the 2n independent samples
    moves W_n by at most 1/n, so McDiarmid's bounded-differences
    inequality (1989) gives P(|W_n - E W_n| >= s) <= 2 exp(-n s^2): the
    interval covers E W_n with probability at least 95 % at every n and
    for every pair of laws.  W is jointly convex and the empirical laws
    average to the true ones, so W <= E W_n: the upper end is also a
    97.5 % upper bound on W, while E W_n, which the lower end bounds,
    exceeds W by the sampling floor.  The interval holds for every law,
    so it is wider than one fitted to the data: h = 0.085 at n = 512."""
    n = len(cmat)
    if cmat.shape != (n, n):
        raise UnequalSampleCounts(f"cost matrix of shape {cmat.shape}")
    if n > EXACT_SUPPORT_LIMIT:
        raise TooLarge(f"{n} samples for the exact assignment")
    if not (cmat.min() >= 0.0 and cmat.max() <= 1.0):
        raise TransportError("costs must lie in [0, 1]")
    value = assignment_value(cmat)
    h = math.sqrt(math.log(40) / n)
    return TransportResult(value=value, method="exact",
                           ci_low=max(0.0, value - h),
                           ci_high=min(1.0, value + h))
