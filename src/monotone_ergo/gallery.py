"""Executable counterexamples and sharpness demonstrations.

Each case builds a small construction, exact except for the seeded
samples of example-2-6-2-7, evaluates a list of machine-checkable claims
(equalities to 1e-10), and returns a JSON-ready report {name, claims:
[{statement, lhs, rhs, holds}]}.  No case calls an LP solver:
example-3-5 proves the optimum of its LP by a primal and a dual solution
whose feasibility and zero duality gap are claims that can fail.
"""

from __future__ import annotations

import numpy as np

from .chains import (FiniteKernel, check_lyapunov, check_order_preserving,
                     check_premetric_sandwich, moment_bound_M)
from .posets import antichain_poset
from .spde import ConfigError, l2_sq, phi
from .transport import CostMatrix, NotConverged, wasserstein_exact

TOL = 1e-10


def _claim(statement, lhs, rhs, tol=TOL, op="eq"):
    lhs, rhs = float(lhs), float(rhs)
    if op == "eq":
        holds = abs(lhs - rhs) <= tol
    elif op == "le":
        holds = lhs <= rhs + tol
    else:  # ge
        holds = lhs >= rhs - tol
    return {"statement": statement, "lhs": lhs, "rhs": rhs,
            "holds": bool(holds)}


def _report(name, claims, **extra):
    rep = {"name": name, "claims": claims,
           "all_hold": bool(all(c["holds"] for c in claims))}
    rep.update(extra)
    return rep


# ---------------------------------------------------------------------------
# two-state antichain with identity kernel: drift conditions alone do not
# force a unique invariant measure
# ---------------------------------------------------------------------------

def run_example_2_4():
    poset = antichain_poset(2)
    kernel = FiniteKernel(np.eye(2))
    # premetric and moment conditions hold trivially with phi == 0 and the
    # discrete metric (only ordered pairs are constrained, i.e. the diagonal)
    phi = np.zeros(2)
    d = 1.0 - np.eye(2)
    claims = [_claim(statement, float(report.holds), 1.0)
              for statement, report in (
                  ("identity kernel is order-preserving under the trivial "
                   "order", check_order_preserving(kernel, poset)),
                  ("constant V satisfies the one-step drift bound",
                   check_lyapunov(kernel, np.ones(2), lambda_=0.5, K=1.0)),
                  ("premetric sandwich holds with phi identically 0",
                   check_premetric_sandwich(poset, d, phi)))]
    M, _ = moment_bound_M(kernel, phi)
    claims.append(_claim("M(x) = sup_t P_t phi^2(x) is 0", M.max(), 0.0))

    for s, name in ((0, "delta_0"), (1, "delta_1")):
        p = np.zeros(2)
        p[s] = 1.0
        claims.append(_claim(f"{name} is stationary",
                             np.abs(p @ kernel.P - p).max(), 0.0, tol=1e-12))

    # exhaustive search: no ordered pair of distinct subsets exists, so the
    # swap condition is unsatisfiable
    found = []
    subsets = [frozenset(s for s in range(2) if mask >> s & 1)
               for mask in range(1, 4)]
    for A in subsets:
        for B in subsets:
            if A != B and all(poset.leq[a, b] for a in A for b in B):
                found.append((sorted(A), sorted(B)))
    claims.append(_claim("number of ordered distinct subset pairs (A, B)",
                         float(len(found)), 0.0))

    # the two point masses stay at coupling distance 1 forever
    cost = CostMatrix(d)
    mu, nu = np.eye(2)
    w_min = np.inf
    for t in range(21):
        res = wasserstein_exact(mu, nu, cost)
        if not res.converged:
            raise NotConverged(f"example-2-4: simplex did not converge at "
                               f"t = {t} in {res.iterations} iterations")
        w_min = min(w_min, res.value)
        mu, nu = mu @ kernel.P, nu @ kernel.P
    claims.append(_claim("W_{d^1}(P_t delta_0, P_t delta_1), smallest over "
                         "t <= 20", w_min, 1.0))
    return _report("example-2-4", claims)


# ---------------------------------------------------------------------------
# dyadic-block construction: total variation can shrink geometrically while
# the expected distance does not
# ---------------------------------------------------------------------------

# the largest n_max of example 3.2 whose TV bounds 2^-(2n+1) are floats
# (2^-1074 is the smallest), so that each ratio is exactly 2^n
_EXAMPLE_3_2_MAX_N = 536


def run_example_3_2(n_max: int):
    """X lands in block [2^i, 2^{i+1}] with weight p_i = 2^-(i+1), i <= n_max
    (uniform inside); Y_n shifts block n by +1.  Exact per-n table of the
    TV bound p_n 2^-n versus the expected capped distance p_n."""
    if not 0 <= n_max <= _EXAMPLE_3_2_MAX_N:
        raise ConfigError(f"need 0 <= n <= {_EXAMPLE_3_2_MAX_N}, "
                          f"got {n_max}")
    p = np.array([2.0 ** -(i + 1) for i in range(n_max + 1)])
    p = p / p.sum()  # truncation renormalization
    claims = []
    table = []
    for n in range(n_max + 1):
        tv_bound = p[n] * 2.0 ** -n
        expected = p[n]   # the shift is exactly 1 on a block of mass p_n
        ratio = expected / tv_bound
        table.append({"n": n, "tv_bound": tv_bound,
                      "expected_distance": expected, "ratio": ratio})
        claims.append(_claim(f"n={n}: distance/TV-bound ratio equals 2^n",
                             ratio, 2.0 ** n))
    claims.append(_claim("n=0 ratio is 1", table[0]["ratio"], 1.0))
    return _report("example-3-2", claims, table=table)


# ---------------------------------------------------------------------------
# staircase functions: equal laws, high order probability, yet unit distance;
# no premetric certificate can exist
# ---------------------------------------------------------------------------

def _staircase(k: int, n: int, grid: np.ndarray) -> np.ndarray:
    lo, hi = k / n, (k + 1) / n
    return np.clip((hi - grid) / (hi - lo), 0.0, 1.0)


def run_example_3_5(n: int):
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    grid = np.arange(4 * n + 1) / (4 * n)
    fs = [_staircase(k, n, grid) for k in range(1, n + 1)]
    claims = []

    ordered = sum(1 for k in range(n)
                  if np.all(fs[k] <= fs[(k + 1) % n] + TOL))
    claims.append(_claim("P(X below Y below Xtilde) under the cyclic shift",
                         ordered / n, 1.0 - 1.0 / n))
    dist = np.mean([min(np.abs(fs[(k + 1) % n] - fs[k]).max(), 1.0)
                    for k in range(n)])
    claims.append(_claim("E[sup-distance capped at 1]", dist, 1.0))

    # premetric infeasibility: over phi(bottom), phi(f_1), ..., phi(f_n) ==
    # phi(top), minimize c phi = phi(top) - phi(bottom) subject to A phi <= b,
    # row k being phi_k - phi_{k+1} <= -step_k: phi increments dominate the
    # distances along the chain bottom <= f_1 <= ... <= f_n = top.  The primal
    # phi = (0, cumsum(steps)) and the dual y = 1 certify that the minimum is
    # sum(steps): each is feasible, and their objectives agree
    steps = [min(np.abs(fs[0] - 0.0).max(), 1.0)]
    steps += [min(np.abs(fs[k + 1] - fs[k]).max(), 1.0) for k in range(n - 1)]
    A = np.eye(n, n + 1) - np.eye(n, n + 1, 1)
    b = -np.asarray(steps)
    c = np.r_[-1.0, np.zeros(n - 1), 1.0]
    phi_opt = np.cumsum([0.0, *steps])
    y = np.ones(n)
    min_spread = float(c @ phi_opt)
    claims.append(_claim("certificate: phi = (0, cumsum(steps)) is primal "
                         "feasible, largest entry of A phi - b",
                         (A @ phi_opt - b).max(), 0.0, op="le"))
    claims.append(_claim("certificate: y = 1 is dual feasible, largest "
                         "violation of y >= 0 and A^T y = -c",
                         max((-y).max(), np.abs(A.T @ y + c).max()), 0.0,
                         op="le"))
    claims.append(_claim("certificate: zero duality gap, primal c phi "
                         "against dual -b y", min_spread, -b @ y))
    claims.append(_claim(
        "minimal phi(top) - phi(bottom) compatible with the premetric "
        "constraints grows linearly (certificate of infeasibility)",
        min_spread, float(sum(steps))))
    claims.append(_claim("that minimum is at least n", min_spread, float(n),
                         op="ge"))
    return _report("example-3-5", claims,
                   infeasibility_certificate={
                       "chain_steps": steps, "forced_spread": min_spread})


# ---------------------------------------------------------------------------
# integer cycle shift: premetric holds but the moment term blows up, making
# the sandwich bound vacuous
# ---------------------------------------------------------------------------

def run_example_3_6(n: int):
    if n < 2:
        raise ConfigError(f"need n >= 2, got {n}")
    xs = np.arange(1, n + 1, dtype=float)
    ys = np.where(xs < n, xs + 1, 1.0)
    claims = []
    p_order = float(np.mean(xs <= ys))  # Y == Xtilde here
    claims.append(_claim("P(X <= Y <= Xtilde)", p_order, 1.0 - 1.0 / n))
    e_dist = float(np.mean(np.minimum(np.abs(xs - ys), 1.0)))
    claims.append(_claim("E[|X - Y| ^ 1]", e_dist, 1.0))
    e_phi = float(np.mean(np.abs(xs)))
    claims.append(_claim("E|phi(X)| with phi(x) = x", e_phi, (n + 1) / 2.0))
    eps = 1.0 / n
    rhs = 2.0 * eps ** 0.5 * float(np.mean(xs ** 2)) ** 0.5 + eps
    claims.append(_claim(
        "sandwich bound at p = q = 2 is vacuous (right side >= 1)",
        rhs, 1.0, op="ge"))
    return _report("example-3-6", claims)


# ---------------------------------------------------------------------------
# signed-power inequality and the L_p premetric sandwich (property tests)
# ---------------------------------------------------------------------------

def run_example_2_6_2_7(samples: int, seed: int):
    if samples < 1000:
        raise ConfigError(f"need samples >= 1000, got {samples}")
    if seed < 0:
        raise ConfigError(f"'seed' must be >= 0, not {seed}")
    rng = np.random.default_rng(seed)
    claims = []

    # one claim per p; at p = 1 the sampled inequalities are identities
    # (|a - b| = b - a for a <= b, and d = phi(y) - phi(x) on ordered
    # fields), so no p = 1 claim is made
    for p in (2, 3):
        a = rng.uniform(-5, 5, samples)
        b = a + rng.uniform(0, 5, samples)
        lhs = np.abs(a - b) ** p
        rhs = 2.0 ** (p - 1) * (np.abs(b) ** p * np.sign(b)
                                - np.abs(a) ** p * np.sign(a))
        claims.append(_claim(
            "|a-b|^p <= 2^(p-1)(|b|^p sign b - |a|^p sign a) for a <= b, "
            f"p = {p}: worst violation", (lhs - rhs).max(), 0.0, op="le"))

    a, b, p = -1.0, 1.0, 2
    claims.append(_claim("equality case a=-1, b=1, p=2",
                         abs(a - b) ** p,
                         2.0 ** (p - 1) * (abs(b) ** p * np.sign(b)
                                           - abs(a) ** p * np.sign(a))))

    # discrete-field sandwich at p = 2: the solver's premetric d = ||x-y||^2
    # against its signed-square functional phi (d >= 0 holds by
    # construction)
    x = rng.uniform(-3, 3, (samples // 10, 16))
    y = x + np.abs(rng.normal(0, 1, x.shape))
    claims.append(_claim(
        "d <= phi(y) - phi(x) on ordered random fields, p = 2",
        float((l2_sq(x - y) - (phi(y) - phi(x))).max()), 0.0, op="le"))
    return _report("example-2-6-2-7", claims)


# each case's runner (looking its function up at call time, for stand-ins)
# and the options it takes, with their defaults
ALL_CASES = {
    "example-2-4": (lambda: run_example_2_4(), {}),
    "example-3-2": (lambda n: run_example_3_2(n), {"n": 12}),
    "example-3-5": (lambda n: run_example_3_5(n), {"n": 4}),
    "example-3-6": (lambda n: run_example_3_6(n), {"n": 10}),
    "example-2-6-2-7": (lambda samples, seed: run_example_2_6_2_7(
        samples, seed), {"samples": 10_000, "seed": 0}),
}


def run_case(name: str, **options):
    """Case `name`, each option it takes but is not given at its default."""
    run, defaults = ALL_CASES[name]
    return run(**{**defaults, **options})
