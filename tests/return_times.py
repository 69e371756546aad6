"""Exact return-time exponential moments and the spectral radius of the
product chain absorbed on ordered pairs, for the tests: neither feeds a
verdict of the laboratory.

`return_time_exp_moments` solves for E_x[rate^tau], tau the first return
time to a target set, and checks the Lyapunov comparison bounds against
it; `absorbed_chain_second_eigenvalue` bounds the decay of the
domination-time tails (`coupling_construction.domination_time_tail`).
"""

from dataclasses import dataclass

import numpy as np

from monotone_ergo.chains import ChainError, FiniteKernel
from monotone_ergo.posets import FinitePoset


class Divergent(ChainError):
    def __init__(self, spectral_radius):
        self.spectral_radius = spectral_radius
        super().__init__(f"return-time series diverges (spectral radius "
                         f"{spectral_radius:.6g} >= 1)")


class EmptyTarget(ChainError):
    pass


@dataclass
class ReturnTimeReport:
    rate: float
    moments: np.ndarray            # E_x[rate^tau] per state
    bound: np.ndarray | None       # comparison bound per state, if available
    verdict: np.ndarray | None     # moments <= bound per state
    spectral_radius: float
    smallest_C: float | None = None  # min C with E_x[rate^tau] <= C V(x)


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
    sr = float(np.max(np.abs(np.linalg.eigvals(rate * P_BB)))) \
        if len(b_idx) else 0.0
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
    return ReturnTimeReport(rate=rate, moments=h, bound=bound,
                            verdict=verdict, spectral_radius=sr,
                            smallest_C=smallest_C)


def absorbed_chain_second_eigenvalue(kernel: FiniteKernel,
                                     poset: FinitePoset) -> float:
    """Spectral radius of the product chain restricted to unordered pairs."""
    free = np.flatnonzero(~poset.leq)
    T = np.kron(kernel.P, kernel.P)[np.ix_(free, free)]
    if not len(T):
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(T))))
