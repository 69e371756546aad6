"""Coupling distances between probability distributions.

Exact optimal transport on finite supports via the transportation simplex
(with dual potentials, so optimality is certifiable through reduced
costs), total variation, entropic regularization (stabilized Sinkhorn
scaling with epsilon annealing), and empirical Wasserstein estimation from
equal-size sample ensembles by the exact uniform assignment, with
m-out-of-n bootstrap confidence intervals (m = ceil(n^(2/3)) of n
samples, consistent also where the two laws are equal).  A batch of
resampled assignments runs in-process when it is small, as the
bootstrap's m x m resamples are at the fixtures' sizes, and otherwise
over one forked shard per usable CPU, as the permutation null's
n x n re-splits do.

The simplex keeps its basis as a spanning tree and returns the same bits
as rebuilding the tree every pivot (`tests/reference_simplex.py`).  The
scaling loop gives the values of the log-domain Sinkhorn loop it replaced
(`tests/reference_sinkhorn.py`) to 1e-9 on the tested instances where
both converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .shards import run_sharded, usable_cpus

EXACT_SUPPORT_LIMIT = 4096
BOOTSTRAP_RESAMPLES = 200
# the CI `wasserstein_empirical` reports: the basic m-out-of-n interval
BOOTSTRAP_METHOD = "m_out_of_n_basic"


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
        obj = {"value": self.value, "method": self.method,
               "converged": self.converged}
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
        # or rounding leaves the last column short of the rows' mass
        if i < m - 1 and (ra[i] <= rb[j] or j == n - 1):
            i += 1
        else:
            j += 1
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

    plan, basis = _northwest_basis(ar, bc)
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
    annealing (Schmitzer 2019; Peyre-Cuturi 2019, ch. 4); reports the
    regularized and the plan cost.

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
    marginals of the returned plan and `converged` is gap < SINKHORN_TOL."""
    if epsilon <= 0:
        raise TransportError("epsilon must be positive")
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
    plan_cost = float((plan * c).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(plan > 0, plan * (np.log(plan) - 1.0), 0.0).sum()
    reg_value = plan_cost + epsilon * float(ent)
    return TransportResult(value=plan_cost, plan=plan, method="sinkhorn",
                           iterations=it, gap=err, epsilon=epsilon,
                           reg_value=reg_value, converged=err < SINKHORN_TOL)


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


# resampled cost-matrix cells (rows x columns, summed over a batch) one
# forked shard must carry; below it the forks (about 10 ms for two) and
# the hand-back cost more than the assignments they spread.  200 draws of
# m x m from the `ergodicity` workload's 512-path cost matrices at
# t = 0.5, 1, 2 on a 2-core Xeon, 160 MiB parent (medians of 15), one
# shard against two: m = 64 (410k cells a shard) 16, 28, 37 / 21, 30,
# 33 ms; m = 80 (640k) 21, 45, 65 / 21, 38, 50 ms; m = 96 (922k) 31, 65,
# 95 / 33, 50, 61 ms
_SHARD_MIN_CELLS = 1 << 19


def _resampled_assignment_values(cmat, draws) -> np.ndarray:
    """Uniform assignment value of `cmat[row_idx][:, col_idx]` for each
    `(row_idx, col_idx)` in `draws`, in order, the draws split over one
    shard per usable CPU (`shards.run_sharded`) as long as every shard
    gets `_SHARD_MIN_CELLS` resampled cells; a smaller batch runs
    in-process."""
    cells = sum(len(row_idx) * len(col_idx) for row_idx, col_idx in draws)
    shards = max(1, min(usable_cpus(), len(draws),
                        cells // _SHARD_MIN_CELLS))
    return np.concatenate(run_sharded(len(draws), shards, lambda lo, hi: [
        _uniform_assignment_value(cmat.take(row_idx, 0).take(col_idx, 1))
        for row_idx, col_idx in draws[lo:hi]]))


def bootstrap_size(n: int) -> int:
    """The resample size m = ceil(n^(2/3)) of the m-out-of-n bootstrap,
    the least m with m^3 >= n^2 (64 at n = 512): m -> inf and m/n -> 0,
    the conditions under which resampling m of n observations is
    consistent (Bickel, Goetze & van Zwet 1997, Statistica Sinica 7)."""
    # a start at or below the answer, whatever the float power's rounding
    m = max(1, round(n ** (2 / 3)) - 1)
    while m ** 3 < n * n:
        m += 1
    return m


def wasserstein_empirical(samples_x, samples_y, cost_fn: str = "l2_capped",
                          bootstrap: int = BOOTSTRAP_RESAMPLES,
                          rng=None) -> TransportResult:
    """Empirical coupling distance between two equal-size sample ensembles:
    the value W_n of the optimal uniform assignment, with an m-out-of-n
    bootstrap CI.

    Each of the `bootstrap` resamples draws two length-n index vectors
    from `rng` and keeps the first m = `bootstrap_size(n)` of each, an
    m-out-of-n draw with replacement from each ensemble, whose m x m
    assignment value is W*_m.  With q the 2.5 and 97.5 % quantiles of
    W*_m - W_n, the CI is the basic interval
    [W_n - sqrt(m/n) q_97.5, W_n - sqrt(m/n) q_2.5], its lower end
    clipped at 0.  The scaling assumes the sqrt(n) rate: sqrt(n) (W_n - W)
    has a limit law.  That holds on finite spaces (Sommerfeld & Munk 2018,
    JRSS-B 80) and for 1-D laws with a finite integral of
    sqrt(F (1 - F)) (del Barrio, Gine & Matran 1999, Ann. Probab. 27),
    such as the laws of the constant fields of the constant-start SPDE
    fixtures.  Where the two laws are equal that limit is not normal and
    the n-out-of-n bootstrap is inconsistent (Sommerfeld & Munk); the
    m-out-of-n bootstrap with m -> inf and m/n -> 0 is consistent (Bickel,
    Goetze & van Zwet 1997).  Near the sampling floor the bias of W*_m can
    put the whole interval below W_n."""
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
        m = bootstrap_size(n)
        draws = [(rng.integers(0, n, size=n)[:m],
                  rng.integers(0, n, size=n)[:m]) for _ in range(bootstrap)]
        vals = _resampled_assignment_values(cmat, draws)
        q_lo, q_hi = math.sqrt(m / n) * np.quantile(vals - value,
                                                    [0.025, 0.975])
        ci_low = max(0.0, float(value - q_hi))
        ci_high = float(value - q_lo)

    return TransportResult(value=value, method="exact", n=n,
                           ci_low=ci_low, ci_high=ci_high)
