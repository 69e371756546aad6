"""Acceptance gate: eleven end-to-end criteria at pinned tolerances.

Each criterion is one test (one pass/fail line under pytest -v); each also
prints a summary line with the measured quantities.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import linprog

from conftest import (abs_cost, comparison_check, marginal_error,
                      random_dist, random_poset, series)
from monotone_ergo import cli, fixture_path, gallery, serialize, transport
from monotone_ergo.chains import (FiniteKernel, OrderedSpaceSpec,
                                  theorem_main_verify)
from monotone_ergo.experiments import (constants_obstruction_demo,
                                       energy_moments, ergodicity_experiment,
                                       swap_probability_estimate,
                                       synchronization_experiment)
from monotone_ergo.posets import (Coupling, FinitePoset, strassen_coupling,
                                  stochastically_dominates)
from monotone_ergo.spde import DriftSpec, Field, SpdeConfig
from return_times import return_time_exp_moments


def load_chain(name):
    """(poset, kernel, space) of the shipped chain-verify config `name`."""
    cfg = serialize.load(fixture_path(name))
    poset = FinitePoset.from_json_obj(cfg["poset"])
    kernel = FiniteKernel.from_json_obj(cfg["kernel"])
    space = OrderedSpaceSpec.from_json_obj(cfg["space"], poset)
    return poset, kernel, space


def _spde_config(name, sub):
    """(solver config, experiment keyword arguments) with which
    `spde sub` runs the fixture `name`."""
    return cli.read_spde(fixture_path(name), sub)


def report(k, line, elapsed, cap):
    print(f"[criterion {k:2d}] PASS: {line} ({elapsed:.1f}s < {cap}s cap)")
    assert elapsed < cap


def test_criterion_01_strassen_equivalence():
    """Coupling feasibility (transport simplex) agrees with the up-set
    domination oracle on 200 random posets; feasible plans are supported on
    the order graph with marginal error < 1e-10."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        poset = random_poset(rng, n)
        mu = random_dist(rng, n)
        nu = random_dist(rng, n)
        oracle = stochastically_dominates(mu, nu, poset)
        res = strassen_coupling(mu, nu, poset)
        feasible = isinstance(res, Coupling)
        assert feasible == oracle
        if feasible:
            assert marginal_error(res, mu, nu) < 1e-10
            assert np.all(res.plan[~poset.leq] <= 1e-12)
        agree += 1
    report(1, f"{agree}/200 dual-route agreements", time.monotonic() - t0, 10)


def test_criterion_02_return_time_exactness():
    """Return-time exponential moments: closed form to 1e-10, Monte-Carlo
    oracle within 3 SE, Lyapunov comparison bounds with slack <= 1e-8."""
    t0 = time.monotonic()
    # 2-state closed form E_0[r^tau] = r p / (1 - r (1 - p))
    p, r = 0.3, 1.05
    P2 = np.array([[1 - p, p], [0.5, 0.5]])
    rep2 = return_time_exp_moments(FiniteKernel(P2), {1}, r)
    closed = r * p / (1 - r * (1 - p))
    assert abs(rep2.moments[0] - closed) < 1e-10

    # 10-state downward-biased walk vs a 1e5-path Monte-Carlo oracle
    n, rr = 10, 1.02
    P = np.zeros((n, n))
    for i in range(n):
        P[i, max(i - 1, 0)] += 0.5
        P[i, min(i + 1, n - 1)] += 0.2
        P[i, i] += 0.3
    walk = FiniteKernel(P)
    rep10 = return_time_exp_moments(walk, {0}, rr)
    rng = np.random.default_rng(99)
    n_paths, start = 100_000, 4
    state = np.full(n_paths, start)
    alive = np.ones(n_paths, dtype=bool)
    tau = np.zeros(n_paths, dtype=int)
    cdf = np.cumsum(P, axis=1)
    for t in range(1, 5000):
        u = rng.random(int(alive.sum()))
        state[alive] = (cdf[state[alive]] < u[:, None]).sum(axis=1)
        tau[alive] = t
        alive &= state != 0
        if not alive.any():
            break
    assert not alive.any()
    vals = rr ** tau.astype(float)
    se = vals.std(ddof=1) / math.sqrt(n_paths)
    assert abs(rep10.moments[start] - vals.mean()) < 3 * se

    # Lyapunov comparison bounds on the fixtures
    _, kernel, space = load_chain("chain5_verify.json")
    lam, K = space.lambda_, space.K
    for M in (2.0, 3.0, 4.0):
        assert M > max(K / (1 - lam), 1.0)
        target = set(np.nonzero(space.V <= M)[0].tolist())
        rep = return_time_exp_moments(kernel, target, 1.0 / (lam + K / M),
                                      V=space.V, lambda_=lam, K=K, M=M)
        assert rep.bound is not None
        assert np.all(rep.moments <= rep.bound + 1e-8)
    # geometric Lyapunov function on the biased walk
    rho = 1.3
    V = rho ** np.arange(n)
    lam_w, K_w, M_w = 0.95, 0.2, 5.0
    assert np.all(walk.P @ V <= lam_w * V + K_w + 1e-12)
    target = set(np.nonzero(V <= M_w)[0].tolist())
    rep = return_time_exp_moments(walk, target, 1.0 / (lam_w + K_w / M_w),
                                  V=V, lambda_=lam_w, K=K_w, M=M_w)
    assert rep.bound is not None
    assert np.all(rep.moments <= rep.bound + 1e-8)
    report(2, f"closed form |err| {abs(rep2.moments[0] - closed):.2e}; "
              f"MC within 3 SE; bounds slack <= 1e-8",
           time.monotonic() - t0, 30)


def test_criterion_03_theorem_on_reference_chain():
    """Exact coupling-distance decay on the 5-chain fits log-linear with
    R^2 >= 0.99 and positive rate on every start pair x < y (the cost is
    symmetric, so the pair y, x has the same series); the 2-state
    antichain counterexample stays at distance >= 0.5 with two invariant
    measures."""
    t0 = time.monotonic()
    poset, kernel, space = load_chain("chain5_verify.json")
    rep = theorem_main_verify(space, kernel)
    assert np.array_equal(space.d, space.d.T)
    assert len(rep.fits) == 10
    assert rep.verdict
    for fit in rep.fits:
        assert fit.rate > 0
        assert fit.r_squared >= 0.99

    _, anti_kernel, anti_space = load_chain("antichain2_verify.json")
    arep = theorem_main_verify(anti_space, anti_kernel)
    assert not arep.verdict
    assert np.all(arep.series[0] >= 0.5)
    for s in (0, 1):
        delta = np.zeros(2)
        delta[s] = 1.0
        assert np.abs(delta @ anti_kernel.P - delta).max() <= 1e-12
    report(3, f"min rate {min(f.rate for f in rep.fits):.4f}, "
              f"min R^2 {min(f.r_squared for f in rep.fits):.6f}; "
              f"antichain W >= 0.5 with two invariant measures",
           time.monotonic() - t0, 60)


def test_criterion_04_gallery_exactness():
    """Gallery identities hold exactly: TV-vs-distance ratio 2^n, cyclic
    staircase probabilities, premetric infeasibility certificate, and the
    first-moment formula."""
    t0 = time.monotonic()
    r32 = gallery.run_example_3_2(12)
    assert r32["all_hold"]
    for row in r32["table"]:
        assert abs(row["ratio"] - 2.0 ** row["n"]) < 1e-10
    r35 = gallery.run_example_3_5(4)
    assert r35["all_hold"]
    assert "infeasibility_certificate" in r35
    r36 = gallery.run_example_3_6(10)
    assert r36["all_hold"]
    c = {cl["statement"]: cl for cl in r36["claims"]}
    assert abs(c["E|phi(X)| with phi(x) = x"]["lhs"] - 5.5) < 1e-10
    report(4, "ratios 2^n, staircase identities, certificate, E|phi| exact",
           time.monotonic() - t0, 5)


def test_criterion_05_spde_monotonicity():
    """100 shared-noise ordered pairs under the cubic drift keep pointwise
    order with violation <= 1e-12 (N=64, dt=1e-3, T=2)."""
    t0 = time.monotonic()
    cfg = SpdeConfig(N=64, dt=1e-3, T=2.0,
                     drift=DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5,
                                     K3=1.0),
                     noise=_noise1(), seed=5, n_paths=20, clamp_R=15.0)
    rng = np.random.default_rng(17)
    worst = 0.0
    for k in range(5):  # 5 initial pairs x 20 noise paths = 100 pairs
        base = rng.normal(0.0, 1.0, cfg.N)
        x = Field(base)
        y = Field(base + np.abs(rng.normal(0.0, 1.0, cfg.N)))
        cfg_k = replace(cfg, seed=cfg.seed + k)
        worst = max(worst, comparison_check(cfg_k, x, y, T=2.0, n_paths=20))
    assert worst <= 1e-12
    report(5, f"max order violation {worst:.2e} over 100 pairs",
           time.monotonic() - t0, 120)


def _noise1():
    from monotone_ergo.spde import NoiseSpec
    return NoiseSpec(1, ({"kind": "const", "amp": 1.0},))


def test_criterion_06_energy_estimates():
    """The discrete dissipation inequality holds at all recorded time
    pairs within 3 SE, the drift meets the growth and Lipschitz bounds
    that inequality assumes, and a finite fourth-moment constant C4 < 1e3
    is certified."""
    t0 = time.monotonic()
    config, kwargs = _spde_config("spde_energy.json", "energy")
    rec = energy_moments(config, kwargs["u0"])
    assert rec.extra["dissipation_inequality_holds"]
    assert rec.extra["drift_dissipativity"]["holds"]
    c4 = rec.extra["smallest_C4"]
    assert np.isfinite(c4) and c4 < 1e3
    report(6, f"worst margin {rec.extra['worst_margin']:.3g} <= 0, "
              f"C4 = {c4:.3g} < 1e3", time.monotonic() - t0, 300)


def test_criterion_07_synchronization():
    """Shared-noise solutions from x = -2 and y = +2 synchronize: the
    distance curve decreases after burn-in within CI and fits a positive
    rate with R^2 >= 0.95; every distance lies in its interval, inside
    [0, 1]; the zero-noise control stays on a plateau."""
    t0 = time.monotonic()
    config, kwargs = _spde_config("spde_sync.json", "sync")
    rec = synchronization_experiment(config, kwargs["x"], kwargs["y"])
    fit = rec.fits["sync_rate"]
    assert fit["rate"] > 0
    assert fit["r_squared"] >= 0.95
    rows = [r for r in rec.statistics if r["stat"] == "sync_l2_capped"]
    for r in rows:
        assert 0.0 <= r["ci_low"] <= r["value"] <= r["ci_high"] <= 1.0
    late = [r for r in rows if r["t"] >= config.T / 4]
    for a, b in zip(late, late[1:]):
        assert b["value"] <= a["ci_high"] + 1e-12  # decreasing within CI

    ccfg, ckwargs = _spde_config("spde_sync_zero_noise.json", "sync")
    crec = synchronization_experiment(ccfg, ckwargs["x"], ckwargs["y"])
    _, cvals = series(crec, "sync_l2_capped")
    assert cvals[-1] >= 0.9  # no decay without noise
    report(7, f"rate {fit['rate']:.3f}, R^2 {fit['r_squared']:.3f}; "
              f"zero-noise plateau {cvals[-1]:.3f} >= 0.9",
           time.monotonic() - t0, 600)


def test_criterion_08_ergodicity():
    """Empirical coupling distance between independent ensembles decays
    across the doubling time grid with positive fitted rate; the
    stationarity self-check at t=32 vs t=64 sits inside the permutation
    null at 2 SD; every W lies in its interval, inside [0, 1]."""
    t0 = time.monotonic()
    config, kwargs = _spde_config("spde_ergodicity.json", "ergodicity")
    rec = ergodicity_experiment(
        config, kwargs["x"], kwargs["y"], time_grid=kwargs["time_grid"],
        extra_x_times=kwargs["extra_x_times"])
    fit = rec.fits["w_rate"]
    assert fit["rate"] > 0
    _, vals = series(rec, "w_l2_capped")
    assert vals[-1] < vals[0]
    for r in rec.statistics:
        if r["stat"] == "w_l2_capped":
            assert 0.0 <= r["ci_low"] <= r["value"] <= r["ci_high"] <= 1.0
    check = rec.extra["stationarity"][0]
    assert check["below_2se"]
    report(8, f"rate {fit['rate']:.4f} > 0; stationarity excess "
              f"{check['w'] - check['null_mean']:.4f} < 2 x "
              f"{check['bootstrap_se']:.4f}", time.monotonic() - t0, 900)


def test_criterion_09_swap_condition():
    """With zero drift from x = 0 both half-space probabilities exceed
    0.15 and agree within 3 SE; the m=0 control is exactly zero."""
    t0 = time.monotonic()
    config, kwargs = _spde_config("spde_swap.json", "swap")
    rec = swap_probability_estimate(config, kwargs["x"])
    pb, pa = rec.extra["p_below_zero"], rec.extra["p_above_zero"]
    se = math.hypot(rec.extra["p_below_zero_se"],
                    rec.extra["p_above_zero_se"])
    assert pb > 0.15 and pa > 0.15
    assert abs(pb - pa) <= 3 * se

    ccfg, ckwargs = _spde_config("spde_swap_control.json", "swap")
    crec = swap_probability_estimate(ccfg, ckwargs["x"])
    assert crec.extra["p_below_zero"] == 0.0
    report(9, f"p_below {pb:.4f}, p_above {pa:.4f}, |diff| <= 3 SE; "
              f"control exactly 0", time.monotonic() - t0, 120)


def test_criterion_10_tv_obstruction():
    """Constant initial data stays exactly constant on every path, while
    the single-mode start keeps a spatial range above 1e-6, so the
    constancy indicator separates the two laws in total variation."""
    t0 = time.monotonic()
    config, _ = _spde_config("spde_constants.json", "constants-demo")
    N = config.N
    rec = constants_obstruction_demo(
        config,
        x_nonconst=Field(np.cos(2 * np.pi * np.arange(N) / N)),
        x_const=Field(np.zeros(N)))
    assert rec.extra["fraction_constant_const"] == 1.0
    assert rec.extra["max_range_const"] == 0.0  # machine-exact constancy
    assert rec.extra["fraction_constant_nonconst"] == 0.0
    assert rec.extra["min_range_nonconst"] > 1e-6
    report(10, f"const paths 100% constant; nonconst min range "
               f"{rec.extra['min_range_nonconst']:.2e} > 1e-6",
           time.monotonic() - t0, 120)


def test_criterion_11_transport_solvers():
    """Exact solver vs dense-LP oracle to 1e-8 on 50 random instances;
    Sinkhorn at epsilon = 0.001 converged and within 1%; empirical
    Gaussian W1 within 0.1 of the closed form."""
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    worst_rel = 0.0
    most_iterations = 0
    for _ in range(50):
        m, n = rng.integers(2, 9, size=2)
        a = rng.random(m) + 0.05
        b = rng.random(n) + 0.05
        a, b = a / a.sum(), b / b.sum()
        c = rng.random((m, n))
        exact = transport.wasserstein_exact(a, b,
                                            transport.CostMatrix(c)).value
        A_eq = np.zeros((m + n, m * n))
        for i in range(m):
            A_eq[i, i * n:(i + 1) * n] = 1.0
        for j in range(n):
            A_eq[m + j, j::n] = 1.0
        lp = linprog(c.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                     bounds=[(0, None)] * (m * n), method="highs")
        assert lp.success
        worst_gap = max(worst_gap, abs(exact - lp.fun))
        assert abs(exact - lp.fun) < 1e-8
        res = transport.sinkhorn(a, b, transport.CostMatrix(c),
                                 epsilon=0.001)
        assert res.converged
        most_iterations = max(most_iterations, res.iterations)
        sk = res.value
        rel = abs(sk - exact) / max(exact, 1e-9)
        worst_rel = max(worst_rel, rel)
        assert rel <= 0.01 or abs(sk - exact) < 1e-4

    xs = rng.normal(0.0, 1.0, size=512)
    ys = rng.normal(1.0, 1.0, size=512)
    emp = transport.assignment_value(abs_cost(xs, ys))
    assert abs(emp - 1.0) < 0.1
    report(11, f"LP gap {worst_gap:.1e} < 1e-8, Sinkhorn rel "
               f"{worst_rel:.3f} (all converged, at most "
               f"{most_iterations} iterations), Gaussian W1 err "
               f"{abs(emp - 1.0):.3f}",
           time.monotonic() - t0, 60)
