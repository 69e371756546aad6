"""Exact verification of the ergodicity framework on finite ordered chains.

Conditions checked against a finite kernel and an OrderedSpaceSpec, each
by one `check_*` function that returns its ConditionReport:
(1) order preservation, (2) one-step Lyapunov drift (the continuous-time
integral form reduces to Q V <= lambda V + K with gamma = -log lambda),
(3) premetric sandwich 0 <= d <= phi(y) - phi(x) on ordered pairs,
(4) finiteness of M(x) = sup_t P_t phi^2(x), (5) the swap condition on
the Lyapunov sublevel set, (6) rho <= d^delta, (7) M^kappa <= K(1 + V).
The spec itself checks only the shapes and ranges of its data.
Plus return-time exponential moments, domination-time tails, the
three-element coupling construction, and the two domination-distance
lemmas, all computed exactly where possible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from . import transport
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
        try:
            P = np.asarray(self.P, dtype=float)
        except (TypeError, ValueError):
            raise ChainError("kernel 'P' is not a numeric array")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ChainError("kernel must be square")
        # written as "not (holds)", so that a NaN entry fails each check
        if not np.all(P >= 0):
            raise ChainError("negative or NaN kernel entry")
        bad = ~(np.abs(P.sum(axis=1) - 1.0) <= 1e-12)
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
        return FiniteKernel(obj["P"])


# what each array of the space is, for input error messages
_SPACE_ARRAYS = {"d": "premetric", "phi": "premetric potential",
                 "rho": "metric", "V": "Lyapunov function"}
_SPACE_KEYS = ("d", "phi", "rho", "V", "gamma", "K", "swap_A", "swap_B",
               "swap_eps")


@dataclass(frozen=True)
class OrderedSpaceSpec:
    """The ordered-space data of the framework on a finite poset.

    Construction checks the input only: d and rho are n x n and phi and V
    have length n, every entry is finite, V is nonnegative, the swap sets
    hold elements of the poset and the constants lie in their ranges.
    Whether the data satisfy the framework's conditions is for
    `check_all_conditions`.
    """
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
        n = self.poset.n
        for name, shape in (("d", (n, n)), ("phi", (n,)), ("rho", (n, n)),
                            ("V", (n,))):
            field_name = f"space field {name!r} ({_SPACE_ARRAYS[name]})"
            try:
                arr = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError):
                raise ChainError(f"{field_name} is not a numeric array")
            if arr.shape != shape:
                raise ChainError(f"{field_name} has shape {arr.shape}, not "
                                 f"{shape} for a {n}-element poset")
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise ChainError(f"{field_name}: entry "
                                 f"{tuple(bad[0].tolist())} is not finite")
            if name == "V" and np.any(arr < 0):
                raise ChainError(f"{field_name} takes the negative value "
                                 f"{arr.min()!r}")
            object.__setattr__(self, name, arr)
        for name in ("swap_A", "swap_B"):
            try:
                elements = frozenset(map(operator.index, getattr(self, name)))
            except TypeError:
                raise ChainError(f"space field {name!r} must be a list of "
                                 f"element indices")
            outside = sorted(a for a in elements if not 0 <= a < n)
            if outside:
                raise ChainError(f"space field {name!r}: {outside[0]} is not "
                                 f"an element of the {n}-element poset")
            object.__setattr__(self, name, elements)
        for name in ("gamma", "K", "swap_eps", "delta", "kappa"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError):
                raise ChainError(f"space field {name!r} must be a number")
        in_range = {"gamma": 0 < self.gamma < math.inf,
                    "K": 0 < self.K < math.inf,
                    "swap_eps": math.isfinite(self.swap_eps),
                    "delta": 0 < self.delta <= 1,
                    "kappa": 0 < self.kappa < math.inf}
        for name, ok in in_range.items():
            if not ok:
                raise ChainError(f"space field {name!r} out of range: "
                                 f"{getattr(self, name)!r}")

    @property
    def lambda_(self) -> float:
        return math.exp(-self.gamma)

    @staticmethod
    def from_json_obj(obj, poset: FinitePoset) -> "OrderedSpaceSpec":
        missing = [key for key in _SPACE_KEYS if key not in obj]
        if missing:
            raise ChainError(f"space: missing field(s) {missing}")
        unknown = sorted(set(obj) - {*_SPACE_KEYS, "delta", "kappa"})
        if unknown:
            raise ChainError(f"space: unknown field(s) {unknown}")
        return OrderedSpaceSpec(
            poset=poset, **{key: obj[key] for key in _SPACE_KEYS},
            **{key: obj[key] for key in ("delta", "kappa") if key in obj})


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    witness: object = None
    attained: object = None

    def to_json_obj(self):
        return {"condition": self.condition, "holds": self.holds,
                "witness": self.witness, "attained": self.attained}


@dataclass
class ReturnTimeReport:
    target: frozenset
    rate: float
    moments: np.ndarray            # E_x[rate^tau] per state
    bound: np.ndarray | None       # comparison bound per state, if available
    verdict: np.ndarray | None     # moments <= bound per state
    spectral_radius: float
    smallest_C: float | None = None  # min C with E_x[rate^tau] <= C V(x)


def _one_closed_class(P) -> bool:
    """Whether the chain has exactly one closed communicating class."""
    reach = (P > 0) | np.eye(len(P), dtype=bool)
    for _ in range(len(P).bit_length()):
        reach = reach @ reach
    # x is recurrent iff every state it reaches reaches it back; the
    # closed classes are one iff all recurrent states reach each other
    recurrent = np.all(reach <= reach.T, axis=1)
    return bool(reach[np.ix_(recurrent, recurrent)].all())


def moment_bound_M(kernel: FiniteKernel, phi, t_max: int = M_SCAN_STEPS):
    """M(x) = sup_t P_t phi^2(x), scanned over t <= t_max plus stationarity.

    The stationary value pi phi^2 is added only when the chain has one
    closed class: then the time averages of P_t phi^2(x) tend to it from
    every start x, so the sup is at least that value. With two or more
    closed classes pi is not unique and need not be reached from x.

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
    if _one_closed_class(kernel.P):
        M = np.maximum(M, float(kernel.stationary() @ phi2))
    return M, bool(last_improve >= t_max - 50)


# ---------------------------------------------------------------------------
# condition checks: one function per condition, each returning its report;
# a failed pair condition names the first failing pair as its witness
# ---------------------------------------------------------------------------

def _first_failure(failed):
    """The first index pair (i, j), in row-major order, where the n x n
    mask `failed` holds; None where it holds nowhere."""
    hits = np.argwhere(failed)
    return tuple(hits[0].tolist()) if len(hits) else None


def check_order_preserving(kernel: FiniteKernel,
                           poset: FinitePoset) -> ConditionReport:
    """(1): P(i, .) is dominated by P(j, .) for every ordered pair i <= j;
    the witness is (i, j, an up-set U with P(i, U) > P(j, U))."""
    for i, j in poset.comparable_pairs():
        mu = Distribution(kernel.P[i])
        nu = Distribution(kernel.P[j])
        if not stochastically_dominates(mu, nu, poset):
            return ConditionReport("order_preserving", False, witness=(
                i, j, violating_upset(mu, nu, poset)))
    return ConditionReport("order_preserving", True)


def check_lyapunov(kernel: FiniteKernel, V, lambda_: float,
                   K: float) -> ConditionReport:
    """(2): one-step drift P V <= lambda V + K; the witness is the state
    of least slack."""
    slack = lambda_ * V + K - kernel.P @ V
    ok = bool(slack.min() >= -CONDITION_TOL)
    return ConditionReport(
        "lyapunov_drift", ok, witness=None if ok else int(np.argmin(slack)),
        attained={"gamma": -math.log(lambda_), "K": K,
                  "min_slack": float(slack.min())})


def check_premetric_sandwich(poset: FinitePoset, d, phi) -> ConditionReport:
    """(3): 0 <= d(i, j) <= phi(j) - phi(i) on every ordered pair i <= j."""
    gap = phi[None, :] - phi[:, None]
    witness = _first_failure(poset.leq & ~(
        (d >= -CONDITION_TOL) & (d <= gap + CONDITION_TOL)))
    return ConditionReport("premetric_sandwich", witness is None,
                           witness=witness)


def check_moment_bound(M, truncated: bool) -> ConditionReport:
    """(4): M(x) = sup_t P_t phi^2(x), from `moment_bound_M`, is finite."""
    return ConditionReport("phi_second_moment_bounded",
                           bool(np.all(np.isfinite(M))),
                           attained={"M": M, "scan_truncated": truncated})


def check_swap_condition(spec: OrderedSpaceSpec,
                         kernel: FiniteKernel) -> ConditionReport:
    """(5): every a in swap_A precedes every b in swap_B (else the witness
    is a pair (a, b) that is not ordered), and from each state of the
    sublevel set {V <= 4K/gamma} both sets are hit with probability above
    swap_eps."""
    A = sorted(spec.swap_A)
    B = sorted(spec.swap_B)
    unordered = [(a, b) for a in A for b in B if not spec.poset.leq[a, b]]
    if unordered:
        return ConditionReport("swap", False, witness=unordered[0])
    level = 4.0 * spec.K / spec.gamma
    sub = np.nonzero(spec.V <= level)[0]
    if len(sub) == 0:
        return ConditionReport("swap", False,
                               witness=f"{{V <= {level:.6g}}} is empty")
    pA = kernel.P[np.ix_(sub, A)].sum(axis=1)
    pB = kernel.P[np.ix_(sub, B)].sum(axis=1)
    return ConditionReport(
        "swap", bool(pA.min() > spec.swap_eps and pB.min() > spec.swap_eps),
        attained={"sublevel": sub.tolist(), "level": level,
                  "attained_eps": float(min(pA.min(), pB.min())),
                  "argmin_state": int(sub[np.argmin(np.minimum(pA, pB))]),
                  "min_P_A": float(pA.min()), "min_P_B": float(pB.min())})


def check_rho_dominated(d, rho, delta: float) -> ConditionReport:
    """(6): rho <= d^delta on every pair."""
    witness = _first_failure(~(rho <= d ** delta + CONDITION_TOL))
    return ConditionReport("rho_dominated_by_d_power", witness is None,
                           witness=witness, attained={"delta": delta})


def check_moment_vs_lyapunov(M, V, kappa: float) -> ConditionReport:
    """(7): M^kappa <= K7 (1 + V) for a finite K7; attains the smallest."""
    K7 = float((M ** kappa / (1.0 + V)).max())
    return ConditionReport("moment_vs_lyapunov", bool(np.isfinite(K7)),
                           attained={"kappa": kappa, "smallest_K": K7})


def check_all_conditions(spec: OrderedSpaceSpec, kernel: FiniteKernel,
                         t_max: int = M_SCAN_STEPS) -> list[ConditionReport]:
    """The reports of conditions (1)-(7), in order."""
    M, truncated = moment_bound_M(kernel, spec.phi, t_max=t_max)
    return [check_order_preserving(kernel, spec.poset),
            check_lyapunov(kernel, spec.V, spec.lambda_, spec.K),
            check_premetric_sandwich(spec.poset, spec.d, spec.phi),
            check_moment_bound(M, truncated),
            check_swap_condition(spec, kernel),
            check_rho_dominated(spec.d, spec.rho, spec.delta),
            check_moment_vs_lyapunov(M, spec.V, spec.kappa)]


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
    free = np.flatnonzero(~poset.leq)
    T = np.kron(kernel.P, kernel.P)[np.ix_(free, free)]
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
            "pairs": self.pairs, "times": self.times, "series": self.series,
            "fits": [{"C": f.C, "rate": f.rate, "r_squared": f.r_squared,
                      "verdict": f.verdict} for f in self.fits],
            "verdict": self.verdict,
        }


def _element_pairs(pairs, n: int) -> list:
    """`pairs` as a list of (x, y) tuples of elements of range(n)."""
    try:
        pairs = [tuple(map(operator.index, p)) for p in pairs]
    except TypeError:
        raise ChainError("'pairs' must be a list of [x, y] element pairs")
    for p in pairs:
        if len(p) != 2 or not all(0 <= v < n for v in p):
            raise ChainError(f"'pairs': {list(p)} is not a pair of "
                             f"elements of the {n}-element poset")
    return pairs


# times t in the decay fit's window that a horizon must give: through two
# points every line fits with R^2 = 1, so the fit's gate could not fail
_MIN_FIT_TIMES = 3


def theorem_main_verify(spec: OrderedSpaceSpec, kernel: FiniteKernel,
                        pairs, horizon: int, burn_in_frac: float = 0.25,
                        r2_threshold: float = 0.99) -> TheoremReport:
    """Exact W_{d^1} decay between P^t delta_x and P^t delta_y plus rate fit.

    The overall verdict requires all condition checks and, for each pair
    with a nonzero series, a positive fitted rate with good fit quality.
    A kernel on another number of states than the poset's, a pair that is
    not two elements of the poset or a horizon whose fit window
    (t >= burn_in_frac * horizon) holds fewer than _MIN_FIT_TIMES times is
    a ChainError.
    """
    if kernel.n != spec.poset.n:
        raise ChainError(f"'kernel' has {kernel.n} states, but the poset "
                         f"has {spec.poset.n} elements")
    times = np.arange(horizon + 1)
    # the times fit_exponential_rate keeps, before it drops zero values
    fitted = int(np.count_nonzero(times >= burn_in_frac * horizon - 1e-12))
    if fitted < _MIN_FIT_TIMES:
        raise ChainError(
            f"'horizon' {horizon} with burn_in_frac {burn_in_frac} leaves "
            f"{fitted} times in the fit window t >= burn_in_frac * horizon; "
            f"a decay fit needs at least {_MIN_FIT_TIMES}")
    pairs = _element_pairs(pairs, kernel.n)
    conditions = check_all_conditions(spec, kernel)
    conditions_ok = all(c.holds for c in conditions)
    cost = transport.CostMatrix(np.minimum(spec.d, 1.0))
    series_all, fits = [], []
    pair_ok = True
    for (x, y) in pairs:
        mu, nu = np.eye(kernel.n)[[x, y]]
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
    return TheoremReport(conditions=conditions, pairs=pairs,
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
                "details": self.details}


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
    failed = _first_failure(
        np.abs(spec.phi[:, None] - spec.phi[None, :])
        > spec.d ** k * (psi[:, None] + psi[None, :]) + CONDITION_TOL)
    if failed is not None:
        raise PremiseViolated("holder_bound", failed)
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
