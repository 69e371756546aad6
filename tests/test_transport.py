"""Transport solvers: exact simplex vs dense-LP oracle, Sinkhorn,
total variation, and empirical estimation."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from conftest import set_usable_cpus
from monotone_ergo import shards, transport
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

    def test_converged_flag(self, rng):
        a, b, c = random_instance(rng, 5, 7)
        capped = sinkhorn(a, b, CostMatrix(c), epsilon=0.001, max_iter=10)
        assert capped.converged is False
        assert capped.gap >= 1e-9
        done = sinkhorn(a, b, CostMatrix(c), epsilon=0.05)
        assert done.converged is True
        assert done.gap < 1e-9

    def test_bad_epsilon(self):
        with pytest.raises(transport.TransportError):
            sinkhorn([1.0], [1.0], CostMatrix(np.zeros((1, 1))), epsilon=0.0)


class TestEmpirical:
    def test_identical_samples_zero(self, rng):
        xs = rng.normal(size=(64, 4))
        res = wasserstein_empirical(xs, xs, bootstrap=0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_shift_w1(self, rng):
        # 1-D W1 between N(0,1) and N(1,1) is exactly 1
        xs = rng.normal(0.0, 1.0, size=512)
        ys = rng.normal(1.0, 1.0, size=512)
        res = wasserstein_empirical(xs, ys, cost_fn="abs", bootstrap=0)
        assert abs(res.value - 1.0) < 0.1

    def test_unequal_counts(self, rng):
        with pytest.raises(UnequalSampleCounts):
            wasserstein_empirical(rng.normal(size=5), rng.normal(size=6))

    def test_bootstrap_ci_brackets_value_scale(self, rng):
        xs = rng.normal(0.0, 1.0, size=(64, 2))
        ys = rng.normal(0.5, 1.0, size=(64, 2))
        res = wasserstein_empirical(xs, ys, bootstrap=50,
                                    rng=np.random.default_rng(0))
        assert res.ci_low is not None and res.ci_low <= res.ci_high

    def test_exact_assignment_above_old_sample_default(self, rng):
        # the exact assignment holds at every size up to
        # EXACT_SUPPORT_LIMIT, not only up to 1024 samples
        xs = rng.normal(0.0, 1.0, size=1025)
        ys = rng.normal(0.5, 1.0, size=1025)
        res = wasserstein_empirical(xs, ys, cost_fn="abs", bootstrap=0)
        assert res.method == "exact"
        assert res.value == transport._uniform_assignment_value(
            pairwise_cost(xs, ys, "abs"))

    def test_too_large_rejected_before_arithmetic(self, monkeypatch):
        def no_cost(*args):
            raise AssertionError("cost matrix built for too many samples")
        monkeypatch.setattr(transport, "pairwise_cost", no_cost)
        xs = np.zeros(transport.EXACT_SUPPORT_LIMIT + 1)
        with pytest.raises(transport.TooLarge):
            wasserstein_empirical(xs, xs, bootstrap=0)

    def test_capped_cost_bounded(self, rng):
        xs = rng.normal(0.0, 10.0, size=(32, 2))
        ys = rng.normal(50.0, 10.0, size=(32, 2))
        res = wasserstein_empirical(xs, ys, cost_fn="l2_capped", bootstrap=0)
        assert res.value <= 1.0 + 1e-12


COST_NAMES = ("l2_capped", "abs")


def broadcast_cost(xs, ys, cost_fn):
    """The cost matrix from one (n_x, n_y, N) broadcast temporary."""
    xs, ys = transport._as_matrix(xs), transport._as_matrix(ys)
    diff_sq = ((xs[:, None, :] - ys[None, :, :]) ** 2).mean(axis=2)
    return {"l2_capped": np.minimum(np.sqrt(diff_sq), 1.0),
            "abs": np.sqrt(diff_sq)}[cost_fn]


class TestCosts:
    def test_pairwise_cost_names(self, rng):
        xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        for name in COST_NAMES:
            c = pairwise_cost(xs, ys, name)
            assert c.shape == (4, 5)
            assert np.all(c >= 0)
        with pytest.raises(transport.TransportError):
            pairwise_cost(xs, ys, "bogus")

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
        for name in COST_NAMES:
            assert np.array_equal(pairwise_cost(xs, ys, name),
                                  broadcast_cost(xs, ys, name))

    def test_blocked_equals_broadcast_1d(self, rng):
        xs = rng.normal(size=300)
        ys = np.concatenate([xs[:5], rng.normal(size=200)])
        for name in COST_NAMES:
            assert np.array_equal(pairwise_cost(xs, ys, name),
                                  broadcast_cost(xs, ys, name))

    def test_unknown_cost_rejected_before_arithmetic(self, monkeypatch):
        def no_matrix(samples):
            raise AssertionError("samples converted for an unknown cost")
        monkeypatch.setattr(transport, "_as_matrix", no_matrix)
        with pytest.raises(transport.TransportError, match="bogus"):
            pairwise_cost(np.zeros((2, 2)), np.zeros((2, 2)), "bogus")

    def test_memory_bounded(self, rng):
        # the pooled 1024-row, 64-point ensemble of the permutation null;
        # one broadcast temporary would take 1024 * 1024 * 64 * 8 B = 512 MiB
        pool = rng.normal(size=(1024, 64))
        tracemalloc.start()
        try:
            pairwise_cost(pool, pool, "l2_capped")
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


class TestResampledAssignments:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_draws", [1, 3, 200])
    def test_bootstrap_draws_equal_serial(self, rng, monkeypatch, workers,
                                          n_draws):
        set_usable_cpus(monkeypatch, workers)
        n = 150
        # spread 0.5 keeps most costs below the cap of 1
        cmat = pairwise_cost(rng.normal(0.0, 0.5, size=(n, 8)),
                             rng.normal(0.1, 0.5, size=(n, 8)), "l2_capped")
        draws = [(rng.integers(0, n, size=n), rng.integers(0, n, size=n))
                 for _ in range(n_draws)]
        assert np.array_equal(
            transport._resampled_assignment_values(cmat, draws),
            serial_assignment_values(cmat, draws))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_draws", [1, 3, 200])
    def test_split_draws_equal_serial(self, rng, monkeypatch, workers,
                                      n_draws):
        # the permutation null: n rows and n other columns of the 2n x 2n
        # pooled cost matrix
        set_usable_cpus(monkeypatch, workers)
        n = 150
        pool = rng.normal(0.0, 0.5, size=(2 * n, 8))
        cmat = pairwise_cost(pool, pool, "l2_capped")
        perms = [rng.permutation(2 * n) for _ in range(n_draws)]
        draws = [(perm[:n], perm[n:]) for perm in perms]
        assert np.array_equal(
            transport._resampled_assignment_values(cmat, draws),
            serial_assignment_values(cmat, draws))

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert shards.usable_cpus() == 3

    @pytest.mark.parametrize("workers", [1, 3])
    def test_bootstrap_ci_and_generator_state_equal_serial(
            self, rng, monkeypatch, workers):
        set_usable_cpus(monkeypatch, workers)
        xs = rng.normal(0.0, 0.5, size=(96, 8))
        ys = rng.normal(0.1, 0.5, size=(96, 8))
        ref_rng = np.random.default_rng(3)
        cmat = pairwise_cost(xs, ys, "l2_capped")
        vals = serial_assignment_values(
            cmat, [(ref_rng.integers(0, 96, size=96),
                    ref_rng.integers(0, 96, size=96)) for _ in range(50)])
        res_rng = np.random.default_rng(3)
        res = wasserstein_empirical(xs, ys, bootstrap=50, rng=res_rng)
        assert res.ci_low == float(np.quantile(vals, 0.025))
        assert res.ci_high == float(np.quantile(vals, 0.975))
        assert res_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_memory_bounded(self, rng, monkeypatch):
        # the resampled n x n matrices (2 MiB each) are built in the
        # workers; the caller holds only the cost matrix and the values
        set_usable_cpus(monkeypatch, 2)
        n = 512
        cmat = pairwise_cost(rng.normal(size=(n, 64)),
                             rng.normal(size=(n, 64)), "l2_capped")
        draws = [(rng.integers(0, n, size=n), rng.integers(0, n, size=n))
                 for _ in range(200)]
        tracemalloc.start()
        try:
            transport._resampled_assignment_values(cmat, draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
