"""Finite-chain verification: condition checks, return-time moments,
domination tails, the theorem-style decay report, the two
domination-distance inequalities, and the coupling construction."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_poset
from coupling_construction import (domination_time_tail, simulate,
                                   triple_order_exact)
from monotone_ergo import chains, fixture_path, serialize
from monotone_ergo.chains import (ChainError, FiniteKernel, OrderedSpaceSpec,
                                  check_all_conditions, check_lyapunov,
                                  check_order_preserving,
                                  check_swap_condition, moment_bound_M,
                                  theorem_main_verify)
from monotone_ergo.fitting import LOG_FLOOR, fit_exponential_rate
from monotone_ergo.posets import (Coupling, Distribution, FinitePoset,
                                  antichain_poset, chain_poset,
                                  strassen_coupling)
from monotone_ergo.serialize import ConfigError
from monotone_ergo.transport import (CostMatrix, total_variation,
                                     wasserstein_exact)
from return_times import (Divergent, EmptyTarget,
                          absorbed_chain_second_eigenvalue,
                          return_time_exp_moments)


def report_of(reports, condition):
    return next(r for r in reports if r.condition == condition)


CHAIN5 = serialize.load(fixture_path("chain5_verify.json"))


def load_chain5():
    poset = FinitePoset.from_json_obj(CHAIN5["poset"])
    kernel = FiniteKernel.from_json_obj(CHAIN5["kernel"])
    space = OrderedSpaceSpec.from_json_obj(CHAIN5["space"], poset)
    return poset, kernel, space


class TestKernel:
    def test_row_sum_validation_names_row(self):
        P = np.eye(3)
        P[1, 1] = 0.99
        with pytest.raises(ChainError, match="row 1"):
            FiniteKernel(P)

    def test_negative_entry(self):
        P = np.array([[1.1, -0.1], [0.0, 1.0]])
        with pytest.raises(ChainError):
            FiniteKernel(P)

    def test_nan_entry(self):
        with pytest.raises(ChainError, match="NaN"):
            FiniteKernel([[np.nan, 0.5], [0.5, 0.5]])

    def test_stationary_distribution(self):
        P = np.array([[0.9, 0.1], [0.4, 0.6]])
        pi = FiniteKernel(P).stationary()
        assert np.abs(pi @ P - pi).max() < 1e-12
        assert pi == pytest.approx([0.8, 0.2])


class TestConditions:
    def test_chain5_all_pass(self):
        _, kernel, space = load_chain5()
        reports = check_all_conditions(space, kernel)
        assert [r.condition for r in reports] == [
            "order_preserving", "lyapunov_drift", "premetric_sandwich",
            "phi_second_moment_bounded", "swap", "rho_dominated_by_d_power",
            "moment_vs_lyapunov"]
        assert all(r.holds for r in reports)

    def test_order_preserving_detects_violation(self):
        # a kernel that maps the top state down and the bottom up
        poset = chain_poset(2)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = check_order_preserving(FiniteKernel(P), poset)
        assert not rep.holds
        i, j, U = rep.witness
        assert (i, j) == (0, 1)
        assert U is not None

    def test_lyapunov_slack_sign(self):
        _, kernel, space = load_chain5()
        rep = check_lyapunov(kernel, space.V, space.lambda_, space.K)
        assert rep.holds
        assert rep.attained["min_slack"] == pytest.approx(0.04, abs=1e-12)
        assert not check_lyapunov(kernel, space.V, space.lambda_, 0.01).holds

    def test_swap_attained_epsilon(self):
        _, kernel, space = load_chain5()
        rep = check_swap_condition(space, kernel)
        assert rep.holds
        assert rep.attained["attained_eps"] == pytest.approx(0.09, abs=1e-12)
        assert set(rep.attained["sublevel"]) == {0, 1, 2, 3, 4}

    def test_swap_sets_not_ordered(self):
        # the spec accepts any swap sets; the report names a pair (a, b)
        # of them with a not below b
        _, kernel, space = load_chain5()
        rep = check_swap_condition(replace(space, swap_A=[3, 1],
                                           swap_B=[2]), kernel)
        assert (rep.holds, rep.witness) == (False, (3, 2))

    def test_empty_sublevel_fails_swap(self):
        _, kernel, space = load_chain5()
        rep = check_swap_condition(replace(space, V=space.V + 100.0), kernel)
        assert not rep.holds
        assert rep.witness.endswith("is empty")

    def test_moment_bound_matches_geometry(self):
        # for the lazy-mixture kernel, P_t phi^2 = pi(phi^2) +
        # 0.55^t (phi^2 - pi(phi^2)), so the sup is attained at t = 0
        # where phi^2 is above its mean, else at stationarity
        _, kernel, space = load_chain5()
        M, truncated = moment_bound_M(kernel, space.phi)
        assert not truncated
        pi = kernel.stationary()
        stat = float(pi @ space.phi ** 2)
        expect = np.maximum(space.phi ** 2, stat)
        assert M == pytest.approx(expect, abs=1e-9)

    def test_moment_bound_on_reducible_kernels(self, monkeypatch):
        # the identity never moves: M = phi^2, not raised to a stationary
        # value that state 1 never sees
        M, _ = moment_bound_M(FiniteKernel(np.eye(2)), [1.0, 0.0])
        assert np.array_equal(M, [1.0, 0.0])
        # state 0 drains into the absorbing state 1 at rate 1/2, so
        # P_t phi^2(0) = 1 - 2^-t climbs to the stationary value 1 and
        # the sup over all t is 1 even where the scan stops short of it
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        monkeypatch.setattr(chains, "M_SCAN_STEPS", 3)
        M, truncated = moment_bound_M(FiniteKernel(P), [0.0, 1.0])
        assert M == pytest.approx([1.0, 1.0], abs=1e-12)
        assert truncated

    def test_report_fails_bad_premetric(self):
        # d(0, 1) = 5 exceeds the phi gap 1 on the ordered pair (0, 1)
        space = OrderedSpaceSpec(
            poset=chain_poset(2), d=[[0.0, 5.0], [5.0, 0.0]],
            phi=[0.0, 1.0], rho=np.zeros((2, 2)), V=np.ones(2), gamma=0.5,
            K=1.0, swap_A=[0], swap_B=[1], swap_eps=0.1)
        rep = report_of(check_all_conditions(space, FiniteKernel(np.eye(2))),
                        "premetric_sandwich")
        assert (rep.holds, rep.witness) == (False, (0, 1))

    def test_report_fails_rho_above_d_power(self):
        # rho = 0.5 > d^delta = 0.2 on both off-diagonal pairs
        space = OrderedSpaceSpec(
            poset=chain_poset(2), d=[[0.0, 0.2], [0.2, 0.0]],
            phi=[0.0, 1.0], rho=[[0.0, 0.5], [0.5, 0.0]], V=np.ones(2),
            gamma=0.5, K=1.0, swap_A=[0], swap_B=[1], swap_eps=0.1)
        rep = report_of(check_all_conditions(space, FiniteKernel(np.eye(2))),
                        "rho_dominated_by_d_power")
        assert (rep.holds, rep.witness) == (False, (0, 1))
        assert rep.attained == {"delta": 1.0}

    def test_spec_validation_rejects_nan_distance(self):
        poset = chain_poset(2)
        with pytest.raises(ConfigError, match="premetric"):
            OrderedSpaceSpec(poset=poset,
                             d=np.array([[0.0, np.nan], [1.0, 0.0]]),
                             phi=np.array([0.0, 1.0]),
                             rho=np.zeros((2, 2)), V=np.ones(2),
                             gamma=0.5, K=1.0, swap_A=[0], swap_B=[1],
                             swap_eps=0.1)


CHAIN5_SPACE = CHAIN5["space"]


class TestSpecShapes:
    @pytest.mark.parametrize("key, value", [
        ("d", np.zeros((4, 4))), ("rho", np.zeros((5, 4))),
        ("phi", [0.0, 1.0, 2.0, 3.0]), ("V", [5.0, 2.0, 1.0]),
        ("d", [[0.0] * 5] * 4 + [[0.0] * 4]), ("V", "high"),
        ("phi", [0.0, 1.0, np.inf, 3.0, 4.0]),
        ("V", [5.0, 2.0, -1.0, 2.0, 5.0]),
        ("swap_A", [7]), ("swap_B", [-1]), ("swap_A", [1.5]),
        ("gamma", 0.0), ("K", "one"), ("delta", 1.5), ("kappa", np.nan),
        ("swap_eps", np.inf),
    ])
    def test_malformed_field_is_named(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            OrderedSpaceSpec.from_json_obj({**CHAIN5_SPACE, key: value},
                                           chain_poset(5))

    @pytest.mark.parametrize("key", ["d", "rho"])
    def test_negative_distance_entry_is_named(self, key):
        value = np.array(CHAIN5_SPACE[key])
        value[0, 2] = -1.0
        with pytest.raises(ConfigError, match=rf"field '{key}' \(.*\): entry "
                           rf"\(0, 2\) is negative, -1\.0"):
            OrderedSpaceSpec.from_json_obj({**CHAIN5_SPACE, key: value},
                                           chain_poset(5))

    def test_missing_field_is_named(self):
        obj = {k: v for k, v in CHAIN5_SPACE.items() if k != "rho"}
        with pytest.raises(ConfigError,
                           match="field 'rho': missing from the space"):
            OrderedSpaceSpec.from_json_obj(obj, chain_poset(5))

    def test_unknown_field_is_named(self):
        # a misspelled optional constant would otherwise take its default
        with pytest.raises(ConfigError,
                           match="field 'kapa': not a key of the space"):
            OrderedSpaceSpec.from_json_obj({**CHAIN5_SPACE, "kapa": 2.0},
                                           chain_poset(5))

    def test_conditions_are_not_checked(self):
        # data that fail (3), (5) and (6) make a spec all the same
        space = OrderedSpaceSpec.from_json_obj(
            {**CHAIN5_SPACE, "d": np.full((5, 5), 9.0), "swap_A": [4],
             "swap_B": [0]}, chain_poset(5))
        assert space.swap_A == frozenset({4})
        assert space.d.dtype == float

    def test_ragged_kernel(self):
        with pytest.raises(ConfigError, match="field 'P'"):
            FiniteKernel.from_json_obj({"P": [[1.0, 0.0], [1.0]]})


class TestReturnTimes:
    def test_two_state_closed_form(self):
        # E_0[r^tau] for tau = hitting time of state 1 from 0 equals
        # r p / (1 - r (1 - p))
        p, r = 0.3, 1.05
        P = np.array([[1 - p, p], [0.5, 0.5]])
        rep = return_time_exp_moments(FiniteKernel(P), {1}, r)
        assert rep.moments[0] == pytest.approx(r * p / (1 - r * (1 - p)),
                                               abs=1e-10)
        # the series sum_t (r (1 - p))^t converges at that ratio
        assert rep.spectral_radius == pytest.approx(r * (1 - p), abs=1e-15)

    def test_monte_carlo_oracle_ten_state_walk(self):
        # downward-biased lazy walk on 10 states, target {0}
        n, r = 10, 1.02
        P = np.zeros((n, n))
        for i in range(n):
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            P[i, lo] += 0.5
            P[i, hi] += 0.2
            P[i, i] += 0.3
        rep = return_time_exp_moments(FiniteKernel(P), {0}, r)
        rng = np.random.default_rng(7)
        n_paths = 100_000
        start = 3
        state = np.full(n_paths, start)
        alive = np.ones(n_paths, dtype=bool)
        tau = np.zeros(n_paths, dtype=int)
        cdf = np.cumsum(P, axis=1)
        for t in range(1, 2000):
            u = rng.random(alive.sum())
            state[alive] = (cdf[state[alive]] < u[:, None]).sum(axis=1)
            tau[alive] = t
            alive &= state != 0
            if not alive.any():
                break
        assert not alive.any()
        vals = r ** tau.astype(float)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(n_paths)
        assert abs(rep.moments[start] - mc) < 3 * se

    def test_divergent_rate(self):
        P = np.array([[0.999, 0.001], [0.5, 0.5]])
        with pytest.raises(Divergent):
            return_time_exp_moments(FiniteKernel(P), {1}, 1.5)

    def test_empty_target(self):
        with pytest.raises(EmptyTarget):
            return_time_exp_moments(FiniteKernel(np.eye(2)), set(), 1.0)

    def test_lyapunov_comparison_bounds_chain5(self):
        # with M = 2 the target {V <= M} and rate 1/(lambda + K/M)
        # activate the comparison bounds, which must dominate the exact
        # moments with tiny slack
        _, kernel, space = load_chain5()
        lam, K, M = space.lambda_, space.K, 2.0
        assert M > max(K / (1 - lam), 1.0)
        rate = 1.0 / (lam + K / M)
        target = set(np.nonzero(space.V <= M)[0].tolist())
        rep = return_time_exp_moments(kernel, target, rate, V=space.V,
                                      lambda_=lam, K=K, M=M)
        assert rep.bound is not None
        assert np.all(rep.moments <= rep.bound + 1e-8)
        assert rep.verdict.all()
        assert rep.smallest_C is not None and rep.smallest_C > 0


class TestDominationTails:
    def test_ordered_start_is_zero(self):
        _, kernel, _ = load_chain5()
        tails = domination_time_tail(kernel, chain_poset(5), 1, 3, 10)
        assert np.all(tails == 0.0)

    def test_tail_decreasing_and_geometric(self):
        _, kernel, _ = load_chain5()
        poset = chain_poset(5)
        tails = domination_time_tail(kernel, poset, 3, 1, 30)
        assert tails[0] == 1.0
        assert np.all(np.diff(tails) <= 1e-12)
        # eventual decay rate bounded by the absorbed-chain spectral radius
        sr = absorbed_chain_second_eigenvalue(kernel, poset)
        assert sr < 1.0
        assert tails[30] <= tails[20] * sr ** 10 * 10  # loose envelope

    def test_absorbed_chain_matches_pair_by_pair_matrix(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 7):
            P = rng.random((n, n))
            kernel = FiniteKernel(P / P.sum(axis=1, keepdims=True))
            for poset in (random_poset(rng, n), chain_poset(n),
                          antichain_poset(n)):
                free = [(a, b) for a in range(n) for b in range(n)
                        if not poset.leq[a, b]]
                T = np.array([[kernel.P[a, a2] * kernel.P[b, b2]
                               for a2, b2 in free] for a, b in free])
                expect = float(np.max(np.abs(np.linalg.eigvals(T)))) \
                    if free else 0.0
                assert absorbed_chain_second_eigenvalue(kernel, poset) \
                    == expect


class TestTheorem:
    def test_chain5_geometric_decay(self):
        poset, kernel, space = load_chain5()
        rep = theorem_main_verify(space, kernel)
        assert rep.pairs == [(x, y) for x in range(5) for y in range(x + 1, 5)]
        assert rep.times.tolist() == list(range(41))
        assert rep.verdict
        # the lazy-mixture chain has W = 0.55^t exactly
        for series in rep.series:
            assert np.allclose(series, 0.55 ** rep.times, atol=1e-9)
        for fit in rep.fits:
            assert fit.rate == pytest.approx(-math.log(0.55), abs=1e-6)
            assert fit.r_squared > 0.9999

    def test_antichain_counterexample_declines(self):
        poset = antichain_poset(2)
        antichain2 = serialize.load(fixture_path("antichain2_verify.json"))
        kernel = FiniteKernel.from_json_obj(antichain2["kernel"])
        space = OrderedSpaceSpec.from_json_obj(antichain2["space"], poset)
        rep = theorem_main_verify(space, kernel)
        assert not rep.verdict
        assert np.all(rep.series[0] >= 0.5)

    def test_two_cycle_counterexample(self):
        # deterministic swap under the trivial order: order-preserving,
        # drift conditions hold, yet W stays at 1 forever
        poset = antichain_poset(2)
        kernel = FiniteKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
        space = OrderedSpaceSpec(
            poset=poset, d=1.0 - np.eye(2), phi=np.zeros(2),
            rho=1.0 - np.eye(2), V=np.ones(2), gamma=math.log(2.0), K=1.0,
            swap_A=[0], swap_B=[0], swap_eps=0.05)
        rep = theorem_main_verify(space, kernel)
        assert not rep.verdict
        assert np.all(rep.series[0] == 1.0)


    def test_kernel_size_must_match_poset(self):
        _, _, space = load_chain5()
        with pytest.raises(ChainError, match="'kernel' has 4 states"):
            theorem_main_verify(space, FiniteKernel(np.eye(4)))

    # a fit window of fewer than 3 times fails every pair, however well
    # its points lie on a line
    @pytest.mark.parametrize("horizon, burn_in_frac",
                             [(2, 0.5), (3, 0.5), (40, 1.0)])
    def test_fit_window_needs_three_times(self, monkeypatch, horizon,
                                          burn_in_frac):
        _, kernel, space = load_chain5()
        monkeypatch.setattr(chains, "DECAY_HORIZON", horizon)
        monkeypatch.setattr(chains, "DECAY_BURN_IN", burn_in_frac)
        rep = theorem_main_verify(space, kernel)
        assert all(c.holds for c in rep.conditions)
        assert [fit.verdict for fit in rep.fits] == [False] * 10
        assert not rep.verdict

    @pytest.mark.parametrize("horizon, burn_in_frac", [(2, 0.0), (4, 0.5)])
    def test_three_fitted_times_run(self, monkeypatch, horizon,
                                    burn_in_frac):
        _, kernel, space = load_chain5()
        monkeypatch.setattr(chains, "DECAY_HORIZON", horizon)
        monkeypatch.setattr(chains, "DECAY_BURN_IN", burn_in_frac)
        rep = theorem_main_verify(space, kernel)
        assert [fit.n_points for fit in rep.fits] == [3] * 10
        assert rep.verdict


class TestRateFit:
    def test_two_points_left_by_the_zero_drop_fail(self):
        # the window t >= 1 keeps four points, and the values at or below
        # LOG_FLOOR drop two of them: the line through the other two fits
        # with R^2 = 1, but two points cannot test a decay
        t = np.arange(5.0)
        values = np.array([1.0, 0.5, 0.25, 0.0, LOG_FLOOR])
        fit = fit_exponential_rate(t, values, 0.25, 0.99)
        assert fit.n_points == 2
        assert fit.rate == pytest.approx(math.log(2.0))
        assert fit.r_squared == 1.0
        assert not fit.verdict


def ordered_coupling_lp(mu, nu, cost, leq):
    """The linear program min E[-cost(X, Y)] over the couplings of mu and
    nu supported on the order graph (X below Y): its -fun is the largest
    E cost(X, Y), and its status is 2 when no such coupling exists."""
    n = len(mu)
    cells = np.argwhere(leq)
    A_eq = np.zeros((2 * n, len(cells)))
    A_eq[cells[:, 0], np.arange(len(cells))] = 1.0
    A_eq[n + cells[:, 1], np.arange(len(cells))] = 1.0
    return linprog(-cost[leq], A_eq=A_eq, b_eq=np.concatenate([mu, nu]),
                   bounds=(0, None), method="highs")


def chain5_laws(kernel, t):
    """The time-t laws of chain5's `kernel` from its bottom and top
    states."""
    mu, nu = np.eye(5)[[0, 4]]
    for _ in range(t):
        mu, nu = mu @ kernel.P, nu @ kernel.P
    return mu, nu


class TestLemma33:
    """Lemma 3.3: if mu is below nu and |phi(x) - phi(y)| <= d(x, y)^k
    (psi(x) + psi(y)), every coupling with X below Y has E d(X, Y) <=
    W_d(mu, nu)^k (||psi||_{L^(1/(1-k))(mu)} + ||psi||_{L^(1/(1-k))(nu)})."""

    def test_holds_on_chain5_marginals(self):
        poset, kernel, space = load_chain5()
        mu, nu = chain5_laws(kernel, 3)
        psi, k = 1.0 + space.phi ** 2, 0.5
        # the two premises
        assert isinstance(strassen_coupling(Distribution(mu),
                                            Distribution(nu), poset),
                          Coupling)
        assert np.all(np.abs(space.phi[:, None] - space.phi[None, :])
                      <= space.d ** k * (psi[:, None] + psi[None, :]) + 1e-10)
        # the left side at its worst over the ordered couplings
        res = ordered_coupling_lp(mu, nu, space.d, poset.leq)
        assert res.success
        eps = wasserstein_exact(mu, nu, CostMatrix(space.d)).value
        ex = 1.0 / (1.0 - k)
        rhs = eps ** k * ((mu @ psi ** ex) ** (1.0 - k)
                          + (nu @ psi ** ex) ** (1.0 - k))
        assert 0.0 < -res.fun <= rhs + 1e-10

    def test_premise_violation_reported(self):
        # mu above nu: the Strassen test certifies that no coupling has X
        # below Y, and the left side's linear program finds none either
        poset, kernel, space = load_chain5()
        nu, mu = chain5_laws(kernel, 3)
        cpl = strassen_coupling(Distribution(mu), Distribution(nu), poset)
        assert not isinstance(cpl, Coupling)
        assert 4 in cpl.witness_upset
        assert ordered_coupling_lp(mu, nu, space.d, poset.leq).status == 2


class TestLemma44:
    """Lemma 4.4: if X and Xtilde have one law and eps = P(not X <= Y <=
    Xtilde), then E d(X, Y) <= 2 eps^(1/p) ||phi(X)||_q + eps for
    1/p + 1/q = 1."""

    def make_joint(self, eps):
        # X uniform; Xtilde = X; Y = X with prob 1-eps, else one step
        # down the cycle
        n = 5
        w = np.zeros((n, n, n))
        for i in range(n):
            w[i, i, i] += 0.2 * (1 - eps)
            w[i, (i - 1) % n, i] += 0.2 * eps
        return w

    def test_inequality_holds(self):
        _, _, space = load_chain5()
        w = self.make_joint(0.1)
        law_x, law_xt = w.sum(axis=(1, 2)), w.sum(axis=(0, 1))
        assert np.abs(law_x - law_xt).max() <= 1e-12
        leq = space.poset.leq
        # sandwiched[i, j, k] <=> i <= j and j <= k
        sandwiched = leq[:, :, None] & leq[None, :, :]
        eps = max(0.0, 1.0 - w[sandwiched].sum())
        # every step down leaves the sandwich: from X = 0 it goes up to
        # Y = 4, above X but not below Xtilde = 0
        assert eps == pytest.approx(0.1, abs=1e-12)
        p = q = 2.0
        lhs = (w.sum(axis=2) * space.d).sum()
        rhs = (2.0 * eps ** (1.0 / p)
               * (law_x @ np.abs(space.phi) ** q) ** (1.0 / q) + eps)
        assert lhs <= rhs + 1e-10


class TestCouplingConstruction:
    def test_simulation_matches_exact_enumeration(self):
        _, kernel, _ = load_chain5()
        poset = chain_poset(5)
        x, y, t, n_paths = 3, 1, 6, 40_000
        zx, zy, zxt = simulate(kernel, poset, x, y, t, n_paths,
                               np.random.default_rng(11))
        both = poset.leq[zx, zy] & poset.leq[zy, zxt]
        std_error = both.std(ddof=1) / math.sqrt(n_paths)
        exact = triple_order_exact(kernel, poset, x, y, t)
        assert abs(both.mean() - exact) < 4 * max(std_error, 1e-4)
        # union-bound envelope from the exact domination tails
        lower = 1.0 - domination_time_tail(kernel, poset, x, y, t)[t] \
            - domination_time_tail(kernel, poset, y, x, t)[t]
        assert exact >= lower - 1e-12
        # the two x-copies keep the exact time-t law
        law = np.eye(5)[x] @ np.linalg.matrix_power(kernel.P, t)
        for z in (zx, zxt):
            assert total_variation(np.bincount(z, minlength=5) / n_paths,
                                   law) < 0.02

    def test_exact_probability_increases_with_time(self):
        _, kernel, _ = load_chain5()
        poset = chain_poset(5)
        vals = [triple_order_exact(kernel, poset, 3, 1, t) for t in range(5)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]

    def test_ordered_start_latches_immediately(self):
        # x <= y initially, so the lower sandwich holds from the start and
        # the upper copy, independent of the driver until it latches,
        # completes the sandwich at the domination time of (y, x)
        _, kernel, _ = load_chain5()
        poset = chain_poset(5)
        assert np.all(domination_time_tail(kernel, poset, 1, 3, 4) == 0.0)
        tail_yx = domination_time_tail(kernel, poset, 3, 1, 4)
        assert triple_order_exact(kernel, poset, 1, 3, 4) \
            == pytest.approx(1.0 - tail_yx[4], abs=1e-12)
