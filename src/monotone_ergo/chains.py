"""Exact verification of the ergodicity framework on finite ordered chains.

Conditions checked against a finite kernel and an OrderedSpaceSpec, each
by one `check_*` function that returns its ConditionReport:
(1) order preservation, (2) one-step Lyapunov drift (the continuous-time
integral form reduces to Q V <= lambda V + K with gamma = -log lambda),
(3) premetric sandwich 0 <= d <= phi(y) - phi(x) on ordered pairs,
(4) finiteness of M(x) = sup_t P_t phi^2(x), (5) the swap condition on
the Lyapunov sublevel set, (6) rho <= d^delta, (7) M^kappa <= K(1 + V).
The spec itself checks only the shapes and ranges of its data.
`theorem_main_verify` runs all seven checks and the exact W_{d^1} decay
between point masses, which `chain-verify` reports.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import transport
from .fitting import fit_exponential_rate
from .posets import (Distribution, FinitePoset, stochastically_dominates,
                     violating_upset)
from .serialize import ConfigError, array, number, read_keys
# perfbench/spans.py traces strassen_coupling under this module's name
from .posets import strassen_coupling  # noqa: F401

CONDITION_TOL = 1e-10
M_SCAN_STEPS = 10_000


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteKernel:
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
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
        return FiniteKernel(**read_keys(obj, _KERNEL_READERS, "kernel",
                                        _KERNEL_READERS))


# the kernel object's keys, all required, with their readers
_KERNEL_READERS = {"P": array(2, float)}


# what each array of the space is, for input error messages
_SPACE_ARRAYS = {"d": "premetric", "phi": "premetric potential",
                 "rho": "metric", "V": "Lyapunov function"}


@dataclass(frozen=True)
class OrderedSpaceSpec:
    """The ordered-space data of the framework on a finite poset.

    Construction checks the input only: d and rho are n x n and phi and V
    have length n, every entry is finite, V is nonnegative, the swap sets
    hold elements of the poset and the constants lie in their ranges; a
    failed check is a ConfigError.  Whether the data satisfy the
    framework's conditions is for `check_all_conditions`.
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
            field_name = f"field {name!r} ({_SPACE_ARRAYS[name]})"
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ConfigError(f"{field_name} has shape {arr.shape}, not "
                                  f"{shape} for a {n}-element poset")
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                raise ConfigError(f"{field_name}: entry "
                                  f"{tuple(bad[0].tolist())} is not finite")
            if name == "V" and np.any(arr < 0):
                raise ConfigError(f"{field_name} takes the negative value "
                                  f"{arr.min()!r}")
            object.__setattr__(self, name, arr)
        for name in ("swap_A", "swap_B"):
            elements = frozenset(map(operator.index, getattr(self, name)))
            outside = sorted(a for a in elements if not 0 <= a < n)
            if outside:
                raise ConfigError(f"field {name!r}: {outside[0]} is not an "
                                  f"element of the {n}-element poset")
            object.__setattr__(self, name, elements)
        in_range = {"gamma": 0 < self.gamma < math.inf,
                    "K": 0 < self.K < math.inf,
                    "swap_eps": math.isfinite(self.swap_eps),
                    "delta": 0 < self.delta <= 1,
                    "kappa": 0 < self.kappa < math.inf}
        for name, ok in in_range.items():
            if not ok:
                raise ConfigError(f"field {name!r} out of range: "
                                  f"{getattr(self, name)!r}")

    @property
    def lambda_(self) -> float:
        return math.exp(-self.gamma)

    @staticmethod
    def from_json_obj(obj, poset: FinitePoset) -> "OrderedSpaceSpec":
        return OrderedSpaceSpec(poset=poset, **read_keys(
            obj, _SPACE_READERS, "space",
            _SPACE_READERS.keys() - {"delta", "kappa"}))


# the space keys; the defaults of delta and kappa live in OrderedSpaceSpec
_SPACE_READERS = {"d": array(2, float), "phi": array(1, float),
                  "rho": array(2, float), "V": array(1, float),
                  "gamma": number, "K": number, "swap_A": array(1, int),
                  "swap_B": array(1, int), "swap_eps": number,
                  "delta": number, "kappa": number}


@dataclass
class ConditionReport:
    condition: str
    holds: bool
    witness: object = None
    attained: object = None


def _one_closed_class(P) -> bool:
    """Whether the chain has exactly one closed communicating class."""
    reach = (P > 0) | np.eye(len(P), dtype=bool)
    for _ in range(len(P).bit_length()):
        reach = reach @ reach
    # x is recurrent iff every state it reaches reaches it back; the
    # closed classes are one iff all recurrent states reach each other
    recurrent = np.all(reach <= reach.T, axis=1)
    return bool(reach[np.ix_(recurrent, recurrent)].all())


def moment_bound_M(kernel: FiniteKernel, phi):
    """M(x) = sup_t P_t phi^2(x), scanned over t <= M_SCAN_STEPS plus
    stationarity.

    The stationary value pi phi^2 is added only when the chain has one
    closed class: then the time averages of P_t phi^2(x) tend to it from
    every start x, so the sup is at least that value. With two or more
    closed classes pi is not unique and need not be reached from x.

    Returns (M vector, saturated_flag): saturated_flag notes whether the
    scan was still increasing at M_SCAN_STEPS (sup possibly not attained).
    """
    phi2 = np.asarray(phi, dtype=float) ** 2
    v = phi2.copy()
    M = v.copy()
    last_improve = 0
    for t in range(1, M_SCAN_STEPS + 1):
        v = kernel.P @ v
        newM = np.maximum(M, v)
        if np.any(newM > M + 1e-15):
            last_improve = t
        M = newM
        if t - last_improve > 50:
            break
    if _one_closed_class(kernel.P):
        M = np.maximum(M, float(kernel.stationary() @ phi2))
    return M, bool(last_improve >= M_SCAN_STEPS - 50)


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


def check_all_conditions(spec: OrderedSpaceSpec,
                         kernel: FiniteKernel) -> list[ConditionReport]:
    """The reports of conditions (1)-(7), in order."""
    M, truncated = moment_bound_M(kernel, spec.phi)
    return [check_order_preserving(kernel, spec.poset),
            check_lyapunov(kernel, spec.V, spec.lambda_, spec.K),
            check_premetric_sandwich(spec.poset, spec.d, spec.phi),
            check_moment_bound(M, truncated),
            check_swap_condition(spec, kernel),
            check_rho_dominated(spec.d, spec.rho, spec.delta),
            check_moment_vs_lyapunov(M, spec.V, spec.kappa)]


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
            "conditions": [asdict(c) for c in self.conditions],
            "pairs": self.pairs, "times": self.times, "series": self.series,
            "fits": [{"C": f.C, "rate": f.rate, "r_squared": f.r_squared,
                      "verdict": f.verdict} for f in self.fits],
            "verdict": self.verdict,
        }


# the decay fit of `theorem_main_verify`: the times 0..DECAY_HORIZON, the
# window t >= DECAY_BURN_IN * DECAY_HORIZON and the R^2 gate; read at call
# time
DECAY_HORIZON = 40
DECAY_BURN_IN = 0.125
DECAY_R2 = 0.99


def theorem_main_verify(spec: OrderedSpaceSpec,
                        kernel: FiniteKernel) -> TheoremReport:
    """Exact W_{d^1} decay between P^t delta_x and P^t delta_y for every
    pair of elements x < y, at t = 0..DECAY_HORIZON, plus rate fit.

    The overall verdict requires all condition checks and, for each pair,
    a positive fitted rate with good fit quality.  A kernel on another
    number of states than the poset's is a ChainError.
    """
    if kernel.n != spec.poset.n:
        raise ChainError(f"'kernel' has {kernel.n} states, but the poset "
                         f"has {spec.poset.n} elements")
    horizon = DECAY_HORIZON
    times = np.arange(horizon + 1)
    pairs = [(x, y) for x in range(kernel.n) for y in range(x + 1, kernel.n)]
    conditions = check_all_conditions(spec, kernel)
    conditions_ok = all(c.holds for c in conditions)
    cost = transport.CostMatrix(np.minimum(spec.d, 1.0))
    series_all, fits = [], []
    for (x, y) in pairs:
        mu, nu = np.eye(kernel.n)[[x, y]]
        series = np.empty(horizon + 1)
        for t in range(horizon + 1):
            if t > 0:
                mu = mu @ kernel.P
                nu = nu @ kernel.P
            res = transport.wasserstein_exact(mu, nu, cost)
            if not res.converged:
                raise transport.NotConverged(
                    f"simplex did not converge for pair ({x}, {y}) at "
                    f"t = {t} in {res.iterations} iterations")
            series[t] = res.value
        series_all.append(series)
        fits.append(fit_exponential_rate(times, series, DECAY_BURN_IN,
                                         DECAY_R2))
    return TheoremReport(conditions=conditions, pairs=pairs,
                         series=series_all, times=times, fits=fits,
                         verdict=bool(conditions_ok and all(
                             fit.verdict for fit in fits)))
