"""Exact verification of the ergodicity framework on finite ordered chains.

Conditions checked against a finite kernel and an OrderedSpaceSpec:
(1) order preservation, (2) one-step Lyapunov drift (the continuous-time
integral form reduces to Q V <= lambda V + K with gamma = -log lambda),
(3) premetric sandwich 0 <= d <= phi(y) - phi(x) on ordered pairs,
(4) finiteness of M(x) = sup_t P_t phi^2(x), (5) the swap condition on
the Lyapunov sublevel set, (6) rho <= d^delta, (7) M^kappa <= K(1 + V).
Plus return-time exponential moments, domination-time tails, the
three-element coupling construction, and the two domination-distance
lemmas, all computed exactly where possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import serialize, transport
from .fitting import fit_exponential_rate
from .posets import (Distribution, FinitePoset, Infeasible,
                     strassen_coupling, stochastically_dominates,
                     violating_upset)

PRODUCT_CHAIN_LIMIT = 64
CONDITION_TOL = 1e-10
M_SCAN_STEPS = 10_000


class ChainError(ValueError):
    pass


class Divergent(ChainError):
    def __init__(self, spectral_radius):
        self.spectral_radius = spectral_radius
        super().__init__(
            f"return-time series diverges (spectral radius {spectral_radius:.6g} >= 1)")


class EmptyTarget(ChainError):
    pass


class EmptySublevel(ChainError):
    pass


class PremiseViolated(ChainError):
    def __init__(self, premise, witness):
        self.premise = premise
        self.witness = witness
        super().__init__(f"premise {premise} violated at {witness}")


class MarginalMismatch(ChainError):
    pass


class TooLarge(ChainError):
    pass


@dataclass(frozen=True)
class FiniteKernel:
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ChainError("kernel must be square")
        if np.any(P < 0):
            raise ChainError("negative kernel entry")
        bad = np.abs(P.sum(axis=1) - 1.0) > 1e-12
        if bad.any():
            i = int(np.nonzero(bad)[0][0])
            raise ChainError(f"row {i} sums to {P[i].sum()!r}, not 1")
        object.__setattr__(self, "P", P)
        self.P.setflags(write=False)

    @property
    def n(self):
        return self.P.shape[0]

    def stationary(self) -> np.ndarray:
        """A stationary distribution (left Perron eigenvector)."""
        w, vl = np.linalg.eig(self.P.T)
        k = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(vl[:, k])
        pi = np.abs(pi)
        return pi / pi.sum()

    @staticmethod
    def from_json_obj(obj) -> "FiniteKernel":
        return FiniteKernel(np.asarray(obj["P"], dtype=float))


@dataclass(frozen=True)
class OrderedSpaceSpec:
    poset: FinitePoset
    d: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    V: np.ndarray
    gamma: float
    K: float
    swap_A: frozenset
    swap_B: frozenset
    swap_eps: float
    delta: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("d", "phi", "rho", "V"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "swap_A", frozenset(self.swap_A))
        object.__setattr__(self, "swap_B", frozenset(self.swap_B))
        leq = self.poset.leq
        ii, jj = np.nonzero(leq)
        gap = self.phi[jj] - self.phi[ii]
        bad = (self.d[ii, jj] < -CONDITION_TOL) | (self.d[ii, jj] > gap + CONDITION_TOL)
        if bad.any():
            k = int(np.nonzero(bad)[0][0])
            raise ChainError(
                f"premetric condition fails at ordered pair ({ii[k]}, {jj[k]}): "
                f"d={self.d[ii[k], jj[k]]!r}, phi gap={gap[k]!r}")
        if np.any(self.rho > self.d ** self.delta + CONDITION_TOL):
            i, j = np.argwhere(self.rho > self.d ** self.delta + CONDITION_TOL)[0]
            raise ChainError(f"rho > d^delta at pair ({i}, {j})")
        for a in self.swap_A:
            for b in self.swap_B:
                if not leq[a, b]:
                    raise ChainError(f"swap sets not ordered: {a} does not precede {b}")
        if self.gamma <= 0 or self.K <= 0 or not (0 < self.delta <= 1) or self.kappa <= 0:
            raise ChainError("constants out of range")

    @property
    def lambda_(self) -> float:
        return math.exp(-self.gamma)

    @staticmethod
    def from_json_obj(obj, poset: FinitePoset) -> "OrderedSpaceSpec":
        return OrderedSpaceSpec(
            poset=poset,
            d=np.asarray(obj["d"], dtype=float),
            phi=np.asarray(obj["phi"], dtype=float),
            rho=np.asarray(obj["rho"], dtype=float),
            V=np.asarray(obj["V"], dtype=float),
            gamma=float(obj["gamma"]), K=float(obj["K"]),
            swap_A=frozenset(obj["swap_A"]), swap_B=frozenset(obj["swap_B"]),
            swap_eps=float(obj["swap_eps"]),
            delta=float(obj.get("delta", 1.0)),
            kappa=float(obj.get("kappa", 1.0)))


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    witness: object = None
    attained: object = None

    def to_json_obj(self):
        return {"condition": self.condition, "holds": self.holds,
                "witness": serialize._convert(self.witness),
                "attained": serialize._convert(self.attained)}


@dataclass
class ReturnTimeReport:
    target: frozenset
    rate: float
    moments: np.ndarray            # E_x[rate^tau] per state
    bound: np.ndarray | None       # comparison bound per state, if available
    verdict: np.ndarray | None     # moments <= bound per state
    spectral_radius: float
    smallest_C: float | None = None  # min C with E_x[rate^tau] <= C V(x)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

def check_order_preserving(kernel: FiniteKernel, poset: FinitePoset):
    """(True, None) or (False, (i, j, witness_upset))."""
    for i, j in poset.comparable_pairs():
        mu = Distribution(kernel.P[i])
        nu = Distribution(kernel.P[j])
        if not stochastically_dominates(mu, nu, poset):
            return False, (i, j, violating_upset(mu, nu, poset))
    return True, None


def check_lyapunov(kernel: FiniteKernel, V, lambda_: float, K: float):
    """One-step drift P V <= lambda V + K; returns (verdict, report dict)."""
    V = np.asarray(V, dtype=float)
    if not (0 < lambda_ < 1) or K <= 0:
        raise ChainError("need lambda in (0,1) and K > 0")
    PV = kernel.P @ V
    slack = lambda_ * V + K - PV
    ok = bool(slack.min() >= -CONDITION_TOL)
    worst = int(np.argmin(slack))
    return ok, {"gamma": -math.log(lambda_), "K": K,
                "min_slack": float(slack.min()), "argmin": worst,
                "PV": PV}


def moment_bound_M(kernel: FiniteKernel, phi, t_max: int = M_SCAN_STEPS):
    """M(x) = sup_t P_t phi^2(x), scanned over t <= t_max plus stationarity.

    Returns (M vector, saturated_flag): saturated_flag notes whether the
    scan was still increasing at t_max (sup possibly not attained).
    """
    phi2 = np.asarray(phi, dtype=float) ** 2
    v = phi2.copy()
    M = v.copy()
    last_improve = 0
    for t in range(1, t_max + 1):
        v = kernel.P @ v
        newM = np.maximum(M, v)
        if np.any(newM > M + 1e-15):
            last_improve = t
        M = newM
        if t - last_improve > 50:
            break
    pi = kernel.stationary()
    M = np.maximum(M, float(pi @ phi2))
    return M, bool(last_improve >= t_max - 50)


def check_swap_condition(spec: OrderedSpaceSpec, kernel: FiniteKernel):
    """Swap condition on the sublevel set {V <= 4K/gamma}."""
    level = 4.0 * spec.K / spec.gamma
    sub = np.nonzero(spec.V <= level)[0]
    if len(sub) == 0:
        raise EmptySublevel(f"{{V <= {level:.6g}}} is empty")
    A = sorted(spec.swap_A)
    B = sorted(spec.swap_B)
    pA = kernel.P[np.ix_(sub, A)].sum(axis=1)
    pB = kernel.P[np.ix_(sub, B)].sum(axis=1)
    attained = float(min(pA.min(), pB.min()))
    arg = int(sub[np.argmin(np.minimum(pA, pB))])
    ok = bool(pA.min() > spec.swap_eps and pB.min() > spec.swap_eps)
    return ok, {"sublevel": sub.tolist(), "level": level,
                "attained_eps": attained, "argmin_state": arg,
                "min_P_A": float(pA.min()), "min_P_B": float(pB.min())}


def check_all_conditions(spec: OrderedSpaceSpec, kernel: FiniteKernel,
                         t_max: int = M_SCAN_STEPS) -> list[ConditionReport]:
    reports = []
    ok1, wit1 = check_order_preserving(kernel, spec.poset)
    reports.append(ConditionReport("order_preserving", ok1, witness=wit1))

    ok2, info2 = check_lyapunov(kernel, spec.V, spec.lambda_, spec.K)
    reports.append(ConditionReport(
        "lyapunov_drift", ok2,
        attained={"gamma": info2["gamma"], "K": spec.K,
                  "min_slack": info2["min_slack"]},
        witness=None if ok2 else info2["argmin"]))

    # (3) and (6) are enforced at spec construction; re-checked here so the
    # report is self-contained
    leq = spec.poset.leq
    ii, jj = np.nonzero(leq)
    gap = spec.phi[jj] - spec.phi[ii]
    ok3 = bool(np.all(spec.d[ii, jj] >= -CONDITION_TOL)
               and np.all(spec.d[ii, jj] <= gap + CONDITION_TOL))
    reports.append(ConditionReport("premetric_sandwich", ok3))

    M, unsaturated = moment_bound_M(kernel, spec.phi, t_max=t_max)
    reports.append(ConditionReport(
        "phi_second_moment_bounded", bool(np.all(np.isfinite(M))),
        attained={"M": M, "scan_truncated": unsaturated}))

    try:
        ok5, info5 = check_swap_condition(spec, kernel)
        reports.append(ConditionReport("swap", ok5, attained=info5))
    except EmptySublevel as exc:
        reports.append(ConditionReport("swap", False, witness=str(exc)))

    ok6 = bool(np.all(spec.rho <= spec.d ** spec.delta + CONDITION_TOL))
    reports.append(ConditionReport("rho_dominated_by_d_power", ok6,
                                   attained={"delta": spec.delta}))

    # (7): minimal feasible constant for M^kappa <= K7 (1 + V)
    K7 = float((M ** spec.kappa / (1.0 + spec.V)).max())
    reports.append(ConditionReport(
        "moment_vs_lyapunov", bool(np.isfinite(K7)),
        attained={"kappa": spec.kappa, "smallest_K": K7}))
    return reports


# ---------------------------------------------------------------------------
# return times (exponential moments)
# ---------------------------------------------------------------------------

def return_time_exp_moments(kernel: FiniteKernel, target, rate: float,
                            V=None, lambda_=None, K=None,
                            M=None) -> ReturnTimeReport:
    """E_x[rate^tau] for the first return time tau to `target`.

    Solves the linear system h = rate * P (1_target + 1_complement h)
    exactly.  With Lyapunov data (V, lambda_, K, M) and target equal to
    the sublevel set {V <= M}, the report also carries the comparison
    bounds (V(x) outside, rate * P V(x) inside) and their verdicts; with
    V alone it reports the smallest C with E_x[rate^tau] <= C V(x).
    """
    target = frozenset(int(t) for t in target)
    n = kernel.n
    if not target:
        raise EmptyTarget("empty target set")
    P = kernel.P
    inside = np.zeros(n, dtype=bool)
    inside[list(target)] = True
    a_idx = np.nonzero(inside)[0]
    b_idx = np.nonzero(~inside)[0]
    P_BB = P[np.ix_(b_idx, b_idx)]
    sr = float(np.max(np.abs(np.linalg.eigvals(rate * P_BB)))) if len(b_idx) else 0.0
    if sr >= 1.0:
        raise Divergent(sr)
    h = np.empty(n)
    if len(b_idx):
        rhs = rate * P[np.ix_(b_idx, a_idx)].sum(axis=1)
        h_B = np.linalg.solve(np.eye(len(b_idx)) - rate * P_BB, rhs)
        h[b_idx] = h_B
    else:
        h_B = np.zeros(0)
    # first-step decomposition also covers starts inside the target
    h[a_idx] = rate * (P[np.ix_(a_idx, a_idx)].sum(axis=1)
                       + P[np.ix_(a_idx, b_idx)] @ h_B)

    bound = verdict = None
    smallest_C = None
    if V is not None:
        V = np.asarray(V, dtype=float)
        smallest_C = float((h / V).max())
        if M is not None and lambda_ is not None and K is not None:
            expected_r = 1.0 / (lambda_ + K / M)
            if abs(rate - expected_r) < 1e-9 and target == frozenset(
                    np.nonzero(V <= M)[0].tolist()):
                PV = P @ V
                bound = np.where(inside, rate * PV, V)
                verdict = h <= bound + 1e-8
    return ReturnTimeReport(target=target, rate=rate, moments=h, bound=bound,
                            verdict=verdict, spectral_radius=sr,
                            smallest_C=smallest_C)


# ---------------------------------------------------------------------------
# domination times on the product chain
# ---------------------------------------------------------------------------

def domination_time_tail(kernel: FiniteKernel, poset: FinitePoset,
                         x: int, y: int, horizon: int) -> np.ndarray:
    """P(tau > t) for tau = first time independent copies from x, y are
    ordered (copy-from-x below copy-from-y), t = 0..horizon."""
    n = kernel.n
    if n > PRODUCT_CHAIN_LIMIT:
        raise TooLarge(f"n={n} exceeds product-chain guard {PRODUCT_CHAIN_LIMIT}")
    leq = poset.leq
    tails = np.empty(horizon + 1)
    if leq[x, y]:
        tails[:] = 0.0
        return tails
    mass = np.zeros((n, n))
    mass[x, y] = 1.0
    tails[0] = 1.0
    P = kernel.P
    for t in range(1, horizon + 1):
        mass = P.T @ mass @ P
        mass[leq] = 0.0  # absorbed on the ordered set
        tails[t] = float(mass.sum())
    return tails


def absorbed_chain_second_eigenvalue(kernel: FiniteKernel,
                                     poset: FinitePoset) -> float:
    """Spectral radius of the product chain restricted to unordered pairs."""
    n = kernel.n
    leq = poset.leq
    unordered = [(a, b) for a in range(n) for b in range(n) if not leq[a, b]]
    idx = {ab: k for k, ab in enumerate(unordered)}
    T = np.zeros((len(unordered), len(unordered)))
    P = kernel.P
    for (a, b), k in idx.items():
        for a2 in range(n):
            for b2 in range(n):
                if not leq[a2, b2]:
                    T[k, idx[(a2, b2)]] += P[a, a2] * P[b, b2]
    if not len(T):
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(T))))


# ---------------------------------------------------------------------------
# Theorem-style Wasserstein decay on exact marginals
# ---------------------------------------------------------------------------

@dataclass
class TheoremReport:
    conditions: list
    pairs: list                 # (x, y)
    series: list                # W_{d^1}(P^t d_x, P^t d_y) per pair
    times: np.ndarray
    fits: list                  # RateFit per pair
    verdict: bool

    def to_json_obj(self):
        return {
            "conditions": [c.to_json_obj() for c in self.conditions],
            "pairs": [list(p) for p in self.pairs],
            "times": self.times.tolist(),
            "series": [s.tolist() for s in self.series],
            "fits": [{"C": f.C, "rate": f.rate, "r_squared": f.r_squared,
                      "verdict": f.verdict} for f in self.fits],
            "verdict": self.verdict,
        }


def theorem_main_verify(spec: OrderedSpaceSpec, kernel: FiniteKernel,
                        pairs, horizon: int, burn_in_frac: float = 0.25,
                        r2_threshold: float = 0.99) -> TheoremReport:
    """Exact W_{d^1} decay between P^t delta_x and P^t delta_y plus rate fit.

    The overall verdict requires all condition checks and, for each pair
    with a nonzero series, a positive fitted rate with good fit quality.
    """
    conditions = check_all_conditions(spec, kernel)
    conditions_ok = all(c.holds for c in conditions)
    cost = transport.CostMatrix(np.minimum(spec.d, 1.0))
    times = np.arange(horizon + 1)
    series_all, fits = [], []
    pair_ok = True
    for (x, y) in pairs:
        mu = np.zeros(kernel.n)
        nu = np.zeros(kernel.n)
        mu[x] = 1.0
        nu[y] = 1.0
        series = np.empty(horizon + 1)
        for t in range(horizon + 1):
            if t > 0:
                mu = mu @ kernel.P
                nu = nu @ kernel.P
            series[t] = 0.0 if x == y else transport.wasserstein_exact(
                mu, nu, cost).value
        series_all.append(series)
        fit = fit_exponential_rate(times, series, burn_in_frac=burn_in_frac,
                                   r2_threshold=r2_threshold)
        fits.append(fit)
        if x != y and not fit.verdict:
            pair_ok = False
    return TheoremReport(conditions=conditions, pairs=list(pairs),
                         series=series_all, times=times, fits=fits,
                         verdict=bool(conditions_ok and pair_ok))


# ---------------------------------------------------------------------------
# domination-distance lemmas
# ---------------------------------------------------------------------------

def _max_monotone_coupling_value(X_law, Y_law, objective, leq):
    """LP: maximize sum(plan * objective) over couplings supported on the
    order graph.  Returns the optimal value."""
    n = len(X_law)
    cells = [(i, j) for i in range(n) for j in range(n) if leq[i, j]]
    nv = len(cells)
    A_eq = np.zeros((2 * n, nv))
    for k, (i, j) in enumerate(cells):
        A_eq[i, k] = 1.0
        A_eq[n + j, k] = 1.0
    b_eq = np.concatenate([X_law, Y_law])
    c = -np.array([objective[i, j] for (i, j) in cells])
    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * nv,
                  method="highs")
    if not res.success:
        raise ChainError(f"monotone-coupling LP failed: {res.message}")
    return float(-res.fun)


@dataclass
class InequalityReport:
    lhs: float
    rhs: float
    holds: bool
    details: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds,
                "details": serialize._convert(self.details)}


def lemma33_verify(spec: OrderedSpaceSpec, X_law, Y_law, psi,
                   k: float) -> InequalityReport:
    """Distance-vs-transport bound for ordered random elements.

    Premises: a monotone coupling of (X_law, Y_law) exists, and the
    Hoelder-type bound |phi(x) - phi(y)| <= d(x,y)^k (psi(x) + psi(y))
    holds on all pairs.  The left side E d(X, Y) is maximized over all
    monotone couplings (worst case), the right side uses
    eps = W_d(X_law, Y_law).
    """
    X_law = np.asarray(getattr(X_law, "p", X_law), dtype=float)
    Y_law = np.asarray(getattr(Y_law, "p", Y_law), dtype=float)
    psi = np.asarray(psi, dtype=float)
    if not (0 < k < 1):
        raise ChainError("need k in (0, 1)")
    cpl = strassen_coupling(Distribution(X_law), Distribution(Y_law),
                            spec.poset)
    if isinstance(cpl, Infeasible):
        raise PremiseViolated("ordered_coupling_exists",
                              sorted(cpl.witness_upset))
    n = spec.poset.n
    for i in range(n):
        for j in range(n):
            if abs(spec.phi[i] - spec.phi[j]) > \
                    spec.d[i, j] ** k * (psi[i] + psi[j]) + CONDITION_TOL:
                raise PremiseViolated("holder_bound", (i, j))
    lhs = _max_monotone_coupling_value(X_law, Y_law, spec.d, spec.poset.leq)
    eps = transport.wasserstein_exact(X_law, Y_law,
                                      transport.CostMatrix(spec.d)).value
    ex = 1.0 / (1.0 - k)
    mom_x = float((X_law @ psi ** ex) ** (1.0 - k))
    mom_y = float((Y_law @ psi ** ex) ** (1.0 - k))
    rhs = eps ** k * (mom_x + mom_y)
    return InequalityReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-10),
                            details={"epsilon": eps, "k": k})


def lemma44_verify(spec: OrderedSpaceSpec, joint_law, p: float,
                   q: float) -> InequalityReport:
    """Equal-marginal sandwich bound from a joint law over triples.

    joint_law[i, j, k] = P(X = i, Y = j, Xtilde = k); requires the X and
    Xtilde marginals to coincide and 1/p + 1/q = 1.
    """
    w = np.asarray(joint_law, dtype=float)
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise ChainError("need 1/p + 1/q = 1")
    if abs(w.sum() - 1.0) > 1e-10 or np.any(w < -1e-15):
        raise ChainError("joint law must be a probability array")
    mx = w.sum(axis=(1, 2))
    mxt = w.sum(axis=(0, 1))
    if np.abs(mx - mxt).max() > 1e-10:
        raise MarginalMismatch(
            f"X and Xtilde marginals differ by {np.abs(mx - mxt).max():.3g}")
    leq = spec.poset.leq
    ordered = leq[:, :, None] & leq.T[:, None, :].swapaxes(0, 1)
    # ordered[i, j, k] <=> i <= j and j <= k
    eps = float(1.0 - w[ordered].sum())
    eps = max(eps, 0.0)
    lhs = float((w.sum(axis=2) * spec.d).sum())
    mom = float((mx @ np.abs(spec.phi) ** q) ** (1.0 / q))
    rhs = 2.0 * eps ** (1.0 / p) * mom + eps
    return InequalityReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-10),
                            details={"epsilon": eps, "p": p, "q": q})


# ---------------------------------------------------------------------------
# three-element coupling construction
# ---------------------------------------------------------------------------

def _conditional_cubes(kernel: FiniteKernel, poset: FinitePoset):
    """Conditional sampling cubes for the latched phases.

    below[a, b, b', x'] = P(lower copy steps to x' | lower at a, driver at
    b, driver steps to b') for a <= b, via a monotone coupling of the two
    rows; above[c, b, b', x'] = same with the extra copy kept above the
    driver (b <= c).  Unused (unordered) slots fall back to the plain row.
    """
    n = kernel.n
    P = kernel.P
    leq = poset.leq
    below = np.tile(P[:, None, None, :], (1, n, n, 1)).copy()
    above = np.tile(P[:, None, None, :], (1, n, n, 1)).copy()
    for a in range(n):
        for b in range(n):
            if a != b and not leq[a, b]:
                continue
            plan = strassen_coupling(Distribution(P[a]), Distribution(P[b]),
                                     poset)
            if isinstance(plan, Infeasible):
                raise ChainError(
                    f"kernel is not order-preserving at pair ({a}, {b})")
            m = plan.plan  # rows: lower successor, cols: upper successor
            for bp in range(n):
                if P[b, bp] > 0:
                    below[a, b, bp, :] = m[:, bp] / P[b, bp]
            for ap in range(n):
                if P[a, ap] > 0:
                    above[b, a, ap, :] = m[ap, :] / P[a, ap]
    return below, above


def _sample_rows(prob_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(prob_rows, axis=1)
    cdf[:, -1] = 1.0
    return (cdf < u[:, None]).sum(axis=1)


@dataclass
class CouplingSimReport:
    estimate: float
    std_error: float
    exact: float | None
    lower_bound: float
    tail_xy: np.ndarray
    tail_yx: np.ndarray
    marginal_tv_zx: float
    marginal_tv_zxt: float


def triple_order_exact(kernel: FiniteKernel, poset: FinitePoset, x: int,
                       y: int, t: int) -> float:
    """Exact P(Z^x <= Z^y <= Ztilde^x) for the simulated construction, by
    pushing the joint law of (states, latch flags) through the chain."""
    n = kernel.n
    P = kernel.P
    leq = poset.leq.astype(float)
    below, above = _conditional_cubes(kernel, poset)
    plain = np.tile(P[:, None, None, :], (1, n, n, 1))
    ind1 = leq[:, :, None] * np.ones((1, 1, n))        # [p, q, r]: p <= q
    ind2 = np.ones((n, 1, 1)) * leq[None, :, :]        # [p, q, r]: q <= r
    # w[a, b, c, l1, l2]: states of (lower, driver, upper) plus latch flags
    w = np.zeros((n, n, n, 2, 2))
    w[x, y, x, int(poset.leq[x, y]), int(poset.leq[y, x])] = 1.0
    for _ in range(t):
        w2 = np.zeros_like(w)
        for l1 in (0, 1):
            stepx = below if l1 else plain
            for l2 in (0, 1):
                stepc = above if l2 else plain
                joint = np.einsum("abc,bq,abqp,cbqr->pqr",
                                  w[:, :, :, l1, l2], P, stepx, stepc,
                                  optimize=True)
                f1_hi = np.ones_like(ind1) if l1 else ind1
                f2_hi = np.ones_like(ind2) if l2 else ind2
                w2[:, :, :, 1, 1] += joint * f1_hi * f2_hi
                if not l1:
                    w2[:, :, :, 0, 1] += joint * (1 - f1_hi) * f2_hi
                if not l2:
                    w2[:, :, :, 1, 0] += joint * f1_hi * (1 - f2_hi)
                if not l1 and not l2:
                    w2[:, :, :, 0, 0] += joint * (1 - f1_hi) * (1 - f2_hi)
        w = w2
    return float(w[:, :, :, 1, 1].sum())


def coupling_construct_simulate(kernel: FiniteKernel, poset: FinitePoset,
                                x: int, y: int, t: int, n_paths: int,
                                rng, with_exact: bool = False
                                ) -> CouplingSimReport:
    """Monte-Carlo run of the three-element coupling construction.

    The driver copy starts at y.  A lower copy starts at x, runs
    independently until it first sits below the driver and is then carried
    along monotonically; an upper copy of the same law latches above the
    driver symmetrically.  Reports the empirical probability that the
    sandwich order holds at time t, together with the union-bound envelope
    1 - tail_xy(t) - tail_yx(t) from the exact domination-time tails.
    """
    n = kernel.n
    P = kernel.P
    leq = poset.leq
    below, above = _conditional_cubes(kernel, poset)
    zx = np.full(n_paths, x)
    zy = np.full(n_paths, y)
    zxt = np.full(n_paths, x)
    lat1 = np.full(n_paths, bool(leq[x, y]))
    lat2 = np.full(n_paths, bool(leq[y, x]))
    for _ in range(t):
        u = rng.random((3, n_paths))
        zy2 = _sample_rows(P[zy], u[0])
        rows_x = np.where(lat1[:, None], below[zx, zy, zy2], P[zx])
        zx2 = _sample_rows(rows_x, u[1])
        rows_c = np.where(lat2[:, None], above[zxt, zy, zy2], P[zxt])
        zxt2 = _sample_rows(rows_c, u[2])
        lat1 = lat1 | leq[zx2, zy2]
        lat2 = lat2 | leq[zy2, zxt2]
        zx, zy, zxt = zx2, zy2, zxt2
    both = leq[zx, zy] & leq[zy, zxt]
    est = float(both.mean())
    se = float(both.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0

    tail_xy = domination_time_tail(kernel, poset, x, y, t)
    tail_yx = domination_time_tail(kernel, poset, y, x, t)
    lower = max(0.0, 1.0 - tail_xy[t] - tail_yx[t])

    # marginal correctness of the two x-copies against the exact law
    mu_t = np.zeros(n)
    mu_t[x] = 1.0
    for _ in range(t):
        mu_t = mu_t @ P
    emp_zx = np.bincount(zx, minlength=n) / n_paths
    emp_zxt = np.bincount(zxt, minlength=n) / n_paths
    tv_zx = transport.total_variation(emp_zx, mu_t)
    tv_zxt = transport.total_variation(emp_zxt, mu_t)

    exact = triple_order_exact(kernel, poset, x, y, t) if with_exact else None
    return CouplingSimReport(estimate=est, std_error=se, exact=exact,
                             lower_bound=lower, tail_xy=tail_xy,
                             tail_yx=tail_yx, marginal_tv_zx=tv_zx,
                             marginal_tv_zxt=tv_zxt)
