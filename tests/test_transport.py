"""Transport solvers: exact simplex vs dense-LP oracle, Sinkhorn,
total variation, and empirical estimation."""

import dataclasses
import functools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from conftest import abs_cost, set_usable_cpus
from monotone_ergo import experiments, shards, transport
from reference_simplex import reference_exact
from reference_sinkhorn import reference_sinkhorn
from monotone_ergo.spde import DriftSpec, Field, NoiseSpec, SpdeConfig
from monotone_ergo.transport import (CostMatrix, UnequalSampleCounts,
                                     pairwise_cost, sinkhorn,
                                     total_variation, wasserstein_empirical,
                                     wasserstein_exact)


def lp_oracle(a, b, c):
    """Independent dense-LP optimal transport value."""
    m, n = len(a), len(b)
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=[(0, None)] * (m * n), method="highs")
    assert res.success
    return float(res.fun)


def random_instance(rng, m, n):
    a = rng.random(m) + 0.05
    b = rng.random(n) + 0.05
    a, b = a / a.sum(), b / b.sum()
    c = rng.random((m, n))
    return a, b, c


class TestExact:
    def test_identical_is_zero(self):
        p = np.array([0.3, 0.7])
        c = 1.0 - np.eye(2)
        assert wasserstein_exact(p, p, CostMatrix(c)).value == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_lp_oracle(self, rng):
        for _ in range(30):
            m, n = rng.integers(2, 9, size=2)
            a, b, c = random_instance(rng, m, n)
            res = wasserstein_exact(a, b, CostMatrix(c))
            assert res.value == pytest.approx(lp_oracle(a, b, c), abs=1e-8)

    def test_plan_and_duals_certify_optimality(self, rng):
        a, b, c = random_instance(rng, 6, 5)
        res = wasserstein_exact(a, b, CostMatrix(c))
        assert res.converged is True
        assert np.abs(res.plan.sum(axis=1) - a).max() < 1e-10
        assert np.abs(res.plan.sum(axis=0) - b).max() < 1e-10
        # complementary slackness: all reduced costs nonnegative
        red = c - res.dual_u[:, None] - res.dual_v[None, :]
        assert red.min() > -1e-9
        assert res.value == pytest.approx(
            float(a @ res.dual_u + b @ res.dual_v), abs=1e-9)

    def test_discrete_cost_equals_tv(self, rng):
        for _ in range(10):
            a, b, _ = random_instance(rng, 5, 5)
            c = 1.0 - np.eye(5)
            assert wasserstein_exact(a, b, CostMatrix(c)).value == \
                pytest.approx(total_variation(a, b), abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_triangle_like_monotonicity(self, seed):
        # scaling every cost by t scales the optimum by t
        rng = np.random.default_rng(seed)
        a, b, c = random_instance(rng, 4, 4)
        v1 = wasserstein_exact(a, b, CostMatrix(c)).value
        v2 = wasserstein_exact(a, b, CostMatrix(2.0 * c)).value
        assert v2 == pytest.approx(2.0 * v1, abs=1e-9)

    def test_degenerate_masses(self):
        with pytest.raises(transport.Degenerate):
            wasserstein_exact(np.zeros(2), np.zeros(2),
                              CostMatrix(np.zeros((2, 2))))

    def test_rounding_short_last_column_keeps_a_spanning_basis(self):
        # the rows outweigh the columns by 1e-13, within the balance
        # tolerance; the north-west start must still span both rows
        a, b = np.array([1.0, 1e-12]), np.array([0.4, 0.6 - 1e-13])
        res = wasserstein_exact(a, b, CostMatrix(1.0 - np.eye(2)))
        assert res.converged is True
        assert res.value == pytest.approx(0.6, abs=1e-12)
        assert np.all(np.isfinite(res.dual_u)) and \
            np.all(np.isfinite(res.dual_v))


def assert_same_result(new, ref):
    """Every TransportResult field equal, arrays entry for entry (the
    duals of zero-mass rows and columns are NaN in both)."""
    for f in dataclasses.fields(transport.TransportResult):
        x, y = getattr(new, f.name), getattr(ref, f.name)
        if isinstance(y, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y, f.name


def degenerate_instance(rng):
    """Integer masses with zeros and equal totals, integer costs with
    ties; every fifth instance has one row, every seventh one column."""
    m, n = rng.integers(1, 12, size=2)
    k = int(rng.integers(0, 35))
    m = 1 if k % 5 == 0 else m
    n = 1 if k % 7 == 0 else n
    a = rng.integers(0, 4, size=m).astype(float)
    b = rng.integers(0, 4, size=n).astype(float)
    a[rng.integers(0, m)] += 1.0
    gap = a.sum() - b.sum()
    if gap > 0:
        b[rng.integers(0, n)] += gap
    else:
        a[rng.integers(0, m)] -= gap
    return a, b, rng.integers(0, 3, size=(m, n)).astype(float)


class TestReferenceSimplex:
    """The tree-held simplex against the list-held one it replaced
    (`tests/reference_simplex.py`): same pivots, so the same bits."""

    def test_exact_workload_sizes(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            m, n = rng.integers(20, 61, size=2)
            a = rng.random(m) + 1e-3
            b = rng.random(n) + 1e-3
            xs, ys = rng.random((m, 2)), rng.random((n, 2))
            cost = CostMatrix(np.sqrt(
                ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=2)))
            a, b = a / a.sum(), b / b.sum()
            assert_same_result(wasserstein_exact(a, b, cost),
                               reference_exact(a, b, cost))

    def test_small_degenerate_instances(self):
        rng = np.random.default_rng(7)
        shapes = set()
        for _ in range(400):
            a, b, c = degenerate_instance(rng)
            shapes.add((len(a) == 1, len(b) == 1, bool(np.any(a == 0))))
            assert_same_result(wasserstein_exact(a, b, CostMatrix(c)),
                               reference_exact(a, b, CostMatrix(c)))
        # single rows, single columns and zero masses all occurred
        assert {s[0] for s in shapes} == {s[1] for s in shapes} == \
            {s[2] for s in shapes} == {True, False}

    def test_comparison_sees_a_changed_dual(self, rng):
        a, b, c = random_instance(rng, 6, 5)
        ref = reference_exact(a, b, CostMatrix(c))
        bad = dataclasses.replace(ref, dual_v=np.nextafter(ref.dual_v, 9.0))
        with pytest.raises(AssertionError, match="dual_v"):
            assert_same_result(bad, ref)


class TestMassChecks:
    @pytest.mark.parametrize("mu, nu", [
        ([0.5, 0.5], [0.3, 0.3]),
        ([-0.5, 1.5], [0.5, 0.5]),
        ([0.5, np.nan], [0.5, 0.5]),
        ([0.5, 0.5], [np.inf, 0.5]),
    ], ids=["unbalanced", "negative", "nan", "inf"])
    @pytest.mark.parametrize("solve", [
        wasserstein_exact,
        lambda mu, nu, cost: sinkhorn(mu, nu, cost, epsilon=0.1),
        lambda mu, nu, cost: total_variation(mu, nu),
    ], ids=["exact", "sinkhorn", "tv"])
    def test_rejected(self, solve, mu, nu):
        cost = CostMatrix(1.0 - np.eye(2))
        with pytest.raises(transport.TransportError):
            solve(np.array(mu), np.array(nu), cost)

    def test_totals_equal_to_rounding_accepted(self):
        a = np.array([0.1, 0.2, 0.7])
        b = np.array([0.3, 0.3, 0.4 + 1e-12])
        res = wasserstein_exact(a, b, CostMatrix(1.0 - np.eye(3)))
        assert res.converged is True
        assert res.value == pytest.approx(0.3, abs=1e-9)

    def test_unnormalized_equal_totals_accepted(self):
        res = wasserstein_exact([2.0, 0.0], [1.0, 1.0],
                                CostMatrix(1.0 - np.eye(2)))
        assert res.value == 1.0


class TestTotalVariation:
    def test_known_value(self):
        assert total_variation([0.5, 0.3, 0.2], [0.2, 0.3, 0.5]) == \
            pytest.approx(0.3)

    def test_bounds(self, rng):
        a = rng.random(6)
        a /= a.sum()
        b = rng.random(6)
        b /= b.sum()
        assert 0.0 <= total_variation(a, b) <= 1.0


class TestSinkhorn:
    def test_close_to_exact_small_epsilon(self, rng):
        a, b, c = random_instance(rng, 6, 6)
        exact = wasserstein_exact(a, b, CostMatrix(c)).value
        reg = sinkhorn(a, b, CostMatrix(c), epsilon=0.001).value
        assert abs(reg - exact) <= 0.01 * max(exact, 1e-6) + 1e-6

    def test_marginals_converge(self, rng):
        a, b, c = random_instance(rng, 5, 7)
        res = sinkhorn(a, b, CostMatrix(c), epsilon=0.01)
        assert np.abs(res.plan.sum(axis=1) - a).sum() < 1e-6
        assert res.reg_value is not None

    def test_converged_flag(self, rng, monkeypatch):
        a, b, c = random_instance(rng, 5, 7)
        monkeypatch.setattr(transport, "SINKHORN_MAX_ITER", 10)
        capped = sinkhorn(a, b, CostMatrix(c), epsilon=0.001)
        monkeypatch.undo()
        assert (capped.converged, capped.iterations) == (False, 10)
        assert capped.gap >= 1e-9
        done = sinkhorn(a, b, CostMatrix(c), epsilon=0.05)
        assert done.converged is True
        assert done.gap < 1e-9

    def test_bad_epsilon(self):
        # NaN fails every comparison, so only a check that epsilon lies in
        # (0, inf) rejects it
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(transport.TransportError, match="'epsilon'"):
                sinkhorn([1.0], [1.0], CostMatrix(np.zeros((1, 1))),
                         epsilon=epsilon)

    def test_cost_shape_mismatch(self):
        with pytest.raises(transport.TransportError, match="shape"):
            sinkhorn([0.5, 0.5], [0.5, 0.5], CostMatrix(np.zeros((3, 3))),
                     epsilon=0.1)

    def test_tiny_masses(self, rng):
        # a row and a column of mass 1e-300: a kernel that held the masses
        # would have all their entries below the kernel floor
        a, b, c = random_instance(rng, 6, 7)
        a[2], b[3] = 1e-300, 1e-300
        a, b = a / a.sum(), b / b.sum()
        res = sinkhorn(a, b, CostMatrix(c), epsilon=0.001)
        assert res.converged is True
        assert res.value == pytest.approx(
            reference_sinkhorn(a, b, CostMatrix(c), 0.001).value, abs=1e-9)


def criterion_11_instances():
    """The 50 instances of criterion 11 (`tests/test_acceptance.py`),
    drawn in its order."""
    rng = np.random.default_rng(31)
    for _ in range(50):
        m, n = rng.integers(2, 9, size=2)
        a = rng.random(m) + 0.05
        b = rng.random(n) + 0.05
        yield a / a.sum(), b / b.sum(), rng.random((m, n))


class TestReferenceSinkhorn:
    """The stabilized scaling loop against the log-domain loop it replaced
    (`tests/reference_sinkhorn.py`): the same value to 1e-9 wherever the
    oracle converges."""

    def test_exact_workload_sizes(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            m, n = rng.integers(20, 61, size=2)
            a = rng.random(m) + 1e-3
            b = rng.random(n) + 1e-3
            xs, ys = rng.random((m, 2)), rng.random((n, 2))
            cost = CostMatrix(np.sqrt(
                ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=2)))
            a, b = a / a.sum(), b / b.sum()
            new = sinkhorn(a, b, cost, 0.05)
            ref = reference_sinkhorn(a, b, cost, 0.05)
            assert new.converged is True and ref.converged is True
            assert new.value == pytest.approx(ref.value, abs=1e-9)

    def test_criterion_11_instances(self):
        unconverged = 0
        for a, b, c in criterion_11_instances():
            new = sinkhorn(a, b, CostMatrix(c), 0.001)
            ref = reference_sinkhorn(a, b, CostMatrix(c), 0.001)
            assert new.converged is True
            if ref.converged:
                assert new.value == pytest.approx(ref.value, abs=1e-9)
            else:
                unconverged += 1
        # the oracle stops at its cap on one instance
        assert unconverged == 1

    def test_zero_masses(self, rng):
        a, b, c = random_instance(rng, 7, 6)
        a[[1, 4]] = 0.0
        b[2] = 0.0
        a, b = a / a.sum(), b / b.sum()
        new = sinkhorn(a, b, CostMatrix(c), 0.01)
        ref = reference_sinkhorn(a, b, CostMatrix(c), 0.01)
        assert new.converged is True and ref.converged is True
        assert new.value == pytest.approx(ref.value, abs=1e-9)
        assert np.all(new.plan[[1, 4]] == 0.0)
        assert np.all(new.plan[:, 2] == 0.0)

    def test_capped_128_l2_capped_instance(self):
        # two seeded 128-sample ensembles at epsilon = 0.001: neither loop
        # converges in 20000 iterations, but every stage before the last
        # must end in time for the last one to reach epsilon
        rng = np.random.default_rng(12345)
        xs = rng.normal(0.0, 1.0, size=(128, 3))
        ys = rng.normal(0.3, 1.0, size=(128, 3))
        cost = CostMatrix(pairwise_cost(xs, ys))
        a = np.full(128, 1.0 / 128)
        exact = wasserstein_exact(a, a, cost).value
        new = sinkhorn(a, a, cost, 0.001)
        ref = reference_sinkhorn(a, a, cost, 0.001)
        assert abs(new.value - exact) <= 0.01 * exact
        assert new.gap <= ref.gap


class TestEmpirical:
    def test_identical_samples_zero(self, rng):
        xs = rng.normal(size=(64, 4))
        res = wasserstein_empirical(pairwise_cost(xs, xs))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_shift_w1(self, rng):
        # 1-D W1 between N(0,1) and N(1,1) is exactly 1
        xs = rng.normal(0.0, 1.0, size=512)
        ys = rng.normal(1.0, 1.0, size=512)
        value = transport.assignment_value(abs_cost(xs, ys))
        assert abs(value - 1.0) < 0.1

    def test_unequal_counts(self, rng):
        with pytest.raises(UnequalSampleCounts):
            wasserstein_empirical(
                abs_cost(rng.normal(size=5), rng.normal(size=6)))

    @pytest.mark.parametrize("entry", [1.5, -0.5, math.nan])
    def test_cost_outside_unit_interval_rejected(self, entry):
        # the interval's bounded-differences argument needs costs in [0, 1]
        with pytest.raises(transport.TransportError):
            wasserstein_empirical(np.array([[0.0, entry], [0.5, 0.0]]))

    def test_half_width(self):
        # h = sqrt(ln 40 / n), 0.085 at the fixtures' 512 paths, and the
        # interval clipped to [0, 1]
        h = math.sqrt(math.log(40) / 512)
        res = wasserstein_empirical(np.full((512, 512), 0.5))
        assert res.value == 0.5
        assert res.ci_low == 0.5 - h and res.ci_high == 0.5 + h
        assert round(h, 3) == 0.085
        for fill, ci in ((0.0, (0.0, h)), (1.0, (1.0 - h, 1.0))):
            res = wasserstein_empirical(np.full((512, 512), fill))
            assert (res.ci_low, res.ci_high) == ci

    def test_exact_assignment_above_old_sample_default(self, rng):
        # the exact assignment holds at every size up to
        # EXACT_SUPPORT_LIMIT, not only up to 1024 samples
        xs = rng.normal(0.0, 1.0, size=(1025, 1))
        ys = rng.normal(0.5, 1.0, size=(1025, 1))
        cmat = pairwise_cost(xs, ys)
        res = wasserstein_empirical(cmat)
        assert res.method == "exact"
        assert res.value == transport.assignment_value(cmat)

    def test_too_large_rejected_before_arithmetic(self, monkeypatch):
        # an ergodicity run with more paths than the exact assignment takes
        # is refused before its first step, and the estimator refuses such
        # a cost matrix before its first assignment
        def never(*args, **kwargs):
            raise AssertionError("work done for too many samples")

        for owner, name in ((experiments, "simulate"),
                            (transport, "pairwise_cost"),
                            (transport, "linear_sum_assignment")):
            monkeypatch.setattr(owner, name, never)
        n = transport.EXACT_SUPPORT_LIMIT + 1
        cfg = SpdeConfig(N=2, dt=0.01, T=0.01,
                         drift=DriftSpec("zero", {}, K1=1.0, K2=1.0, K3=1.0),
                         noise=NoiseSpec(0, ()), n_paths=n)
        with pytest.raises(transport.TooLarge):
            experiments.ergodicity_experiment(
                cfg, Field(np.zeros(2)), Field(np.ones(2)), [0.01], [])
        with pytest.raises(transport.TooLarge):
            wasserstein_empirical(np.broadcast_to(0.0, (n, n)))

    def test_capped_cost_bounded(self, rng):
        xs = rng.normal(0.0, 10.0, size=(32, 2))
        ys = rng.normal(50.0, 10.0, size=(32, 2))
        res = wasserstein_empirical(pairwise_cost(xs, ys))
        assert res.value <= 1.0 + 1e-12


@functools.cache
def interval_draws(shift, reps):
    """`wasserstein_empirical` on `reps` draws of two 64-sample ensembles,
    N(0, 1) and N(shift, 1), under the 1-D capped cost min(1, |x - y|)."""
    rng = np.random.default_rng(2024)
    return [wasserstein_empirical(pairwise_cost(
        rng.normal(0.0, 1.0, size=(64, 1)),
        rng.normal(shift, 1.0, size=(64, 1)))) for _ in range(reps)]


def coverage(results, target):
    return np.mean([r.ci_low <= target <= r.ci_high for r in results])


class TestIntervalCoverage:
    REPS = 400
    # the nominal 0.95 less three binomial standard errors of a coverage
    # estimated from REPS draws
    BOUND = 0.95 - 3 * math.sqrt(0.95 * 0.05 / REPS)

    @pytest.mark.parametrize("shift", [0.0, 0.5],
                             ids=["same-law", "shifted"])
    def test_covers_mean_of_estimate(self, shift):
        # the replicate mean of W_n stands in for E W_n
        results = interval_draws(shift, self.REPS)
        mean = np.mean([r.value for r in results])
        assert coverage(results, mean) >= self.BOUND

    def test_same_law_covers_zero(self):
        # W = 0 lies below the sampling floor E W_n, so only an interval
        # as wide as the floor covers it
        assert coverage(interval_draws(0.0, self.REPS), 0.0) >= self.BOUND


def broadcast_cost(xs, ys):
    """The capped L2 cost matrix from one (n_x, n_y, N) broadcast
    temporary."""
    diff_sq = ((xs[:, None, :] - ys[None, :, :]) ** 2).mean(axis=2)
    return np.minimum(np.sqrt(diff_sq), 1.0)


class TestCosts:
    def test_pairwise_cost_shape_and_range(self, rng):
        xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        c = pairwise_cost(xs, ys)
        assert c.shape == (4, 5)
        assert np.all(c >= 0) and np.all(c <= 1)

    def test_cost_matrix_validation(self):
        with pytest.raises(transport.TransportError):
            CostMatrix(np.array([[-1.0]]))

    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_blocked_equals_broadcast(self, rng, extra_rows):
        ys = rng.normal(size=(64, 16))
        # rows of xs whose difference temporary fills exactly one block
        block_rows = transport._BLOCK_BYTES // ys.nbytes
        xs = rng.normal(size=(block_rows + extra_rows, 16))
        xs[::7] = ys[0]  # some zero distances
        assert np.array_equal(pairwise_cost(xs, ys), broadcast_cost(xs, ys))

    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_pooled_equals_broadcast_and_is_symmetric(self, rng, monkeypatch,
                                                      blocks, extra_rows):
        # a pooled ensemble (`ys is xs`) computes its upper triangle a block
        # of 40 rows at a time and mirrors it
        pool = rng.normal(size=(40 * blocks + extra_rows, 16))
        pool[::7] = pool[3]  # some zero distances
        monkeypatch.setattr(transport, "_BLOCK_BYTES", 40 * pool.nbytes)
        c = pairwise_cost(pool, pool)
        assert np.array_equal(c, broadcast_cost(pool, pool))
        assert np.array_equal(c, c.T)

    def test_pooled_1d_equals_broadcast(self, rng):
        pool = rng.normal(size=(300, 1))
        assert np.array_equal(pairwise_cost(pool, pool),
                              broadcast_cost(pool, pool))

    def test_blocked_equals_broadcast_1d(self, rng):
        # samples of one grid point each
        xs = rng.normal(size=(300, 1))
        ys = np.concatenate([xs[:5], rng.normal(size=(200, 1))])
        assert np.array_equal(pairwise_cost(xs, ys), broadcast_cost(xs, ys))

    def test_memory_bounded(self, rng):
        # the pooled 1024-row, 64-point ensemble of the permutation null;
        # one broadcast temporary would take 1024 * 1024 * 64 * 8 B = 512 MiB
        pool = rng.normal(size=(1024, 64))
        tracemalloc.start()
        try:
            pairwise_cost(pool, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


def serial_assignment_values(cmat, draws):
    """The resample loop run one assignment after another."""
    vals = np.empty(len(draws))
    for k, (row_idx, col_idx) in enumerate(draws):
        sub = cmat.take(row_idx, 0).take(col_idx, 1)
        ri, cj = linear_sum_assignment(sub)
        vals[k] = float(sub[ri, cj].mean())
    return vals


def resplit_jobs(cmat, draws):
    """One `transport.resplit_value` job per (row_idx, col_idx) draw."""
    return [functools.partial(transport.resplit_value, cmat, row_idx, col_idx)
            for row_idx, col_idx in draws]


def batch_values(cmat, draws):
    """The resample loop as one `transport.assignment_batch`."""
    cells = sum(len(row_idx) * len(col_idx) for row_idx, col_idx in draws)
    return np.array(transport.assignment_batch(resplit_jobs(cmat, draws),
                                               cells))


class TestResampledAssignments:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_draws", [1, 3, 200])
    def test_bootstrap_draws_equal_serial(self, rng, monkeypatch, workers,
                                          n_draws):
        set_usable_cpus(monkeypatch, workers)
        # no work floor, so every batch is split over `workers` shards
        monkeypatch.setattr(transport, "_SHARD_MIN_CELLS", 1)
        n = 150
        # spread 0.5 keeps most costs below the cap of 1
        cmat = pairwise_cost(rng.normal(0.0, 0.5, size=(n, 8)),
                             rng.normal(0.1, 0.5, size=(n, 8)))
        draws = [(rng.integers(0, n, size=n), rng.integers(0, n, size=n))
                 for _ in range(n_draws)]
        assert np.array_equal(
            batch_values(cmat, draws),
            serial_assignment_values(cmat, draws))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_draws", [1, 3, 200])
    def test_split_draws_equal_serial(self, rng, monkeypatch, workers,
                                      n_draws):
        # the permutation null: n rows and n other columns of the 2n x 2n
        # pooled cost matrix
        set_usable_cpus(monkeypatch, workers)
        monkeypatch.setattr(transport, "_SHARD_MIN_CELLS", 1)
        n = 150
        pool = rng.normal(0.0, 0.5, size=(2 * n, 8))
        cmat = pairwise_cost(pool, pool)
        perms = [rng.permutation(2 * n) for _ in range(n_draws)]
        draws = [(perm[:n], perm[n:]) for perm in perms]
        assert np.array_equal(
            batch_values(cmat, draws),
            serial_assignment_values(cmat, draws))

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert shards.usable_cpus() == 3

    def test_full_size_null_batch_forks_and_equals_serial(self, rng,
                                                          monkeypatch):
        # the permutation null of the ergodicity workload: 50 re-splits of
        # two 512-path ensembles, split over 2 forked shards
        set_usable_cpus(monkeypatch, 2)
        n = 512
        pool = rng.normal(0.0, 0.5, size=(2 * n, 8))
        cmat = pairwise_cost(pool, pool)
        perms = [rng.permutation(2 * n) for _ in range(50)]
        draws = [(perm[:n], perm[n:]) for perm in perms]
        forked, run_forked = [], shards._run_forked

        def counted(jobs):
            forked.append(len(jobs))
            return run_forked(jobs)

        monkeypatch.setattr(shards, "_run_forked", counted)
        assert np.array_equal(
            batch_values(cmat, draws),
            serial_assignment_values(cmat, draws))
        assert forked == [2]

    def test_memory_bounded(self, rng, monkeypatch):
        # the resampled n x n matrices (2 MiB each) are built in the
        # workers; the caller holds only the cost matrix and the values
        set_usable_cpus(monkeypatch, 2)
        n = 512
        cmat = pairwise_cost(rng.normal(size=(n, 64)),
                             rng.normal(size=(n, 64)))
        draws = [(rng.integers(0, n, size=n), rng.integers(0, n, size=n))
                 for _ in range(200)]
        jobs = resplit_jobs(cmat, draws)
        tracemalloc.start()
        try:
            transport.assignment_batch(jobs, 200 * n * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_jobs_dealt_in_turn_and_returned_in_order(self, monkeypatch,
                                                      workers):
        set_usable_cpus(monkeypatch, workers)
        monkeypatch.setattr(transport, "_SHARD_MIN_CELLS", 1)
        jobs = [functools.partial(lambda i: (i, os.getpid()), i)
                for i in range(7)]
        results = transport.assignment_batch(jobs, 7)
        assert [i for i, _ in results] == list(range(7))
        pids = [pid for _, pid in results]
        # job i runs in shard i mod `workers`, in-process for one shard
        assert pids == [pids[i % workers] for i in range(7)]
        assert len(set(pids)) == workers
        assert (os.getpid() in pids) == (workers == 1)

    def test_small_batch_runs_in_process(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(shards, "_run_forked", None)
        jobs = [functools.partial(lambda i: i, i) for i in range(3)]
        assert transport.assignment_batch(
            jobs, 2 * transport._SHARD_MIN_CELLS - 1) == [0, 1, 2]
