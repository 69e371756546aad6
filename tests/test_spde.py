"""Solver invariants: monotonicity, constants closure, translation
equivariance, dissipativity, reproducibility, and config validation."""

import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from conftest import set_usable_cpus
from monotone_ergo import shards, spde
from monotone_ergo.experiments import synchronization_experiment
from monotone_ergo.spde import (ConfigError, DriftSpec, Field, NoiseSpec,
                                NonFinite, NotOrdered, SpdeConfig, Stepper,
                                comparison_check, field_distance_sq, l2_sq,
                                noise_draws, phi, phi_condition_check, psi,
                                simulate)


def make_config(**over):
    base = dict(
        N=32, dt=1e-3, T=0.1,
        drift=DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0),
        noise=NoiseSpec(1, ({"kind": "const", "amp": 1.0},)),
        seed=0, n_paths=4, clamp_R=15.0)
    base.update(over)
    return SpdeConfig(**base)


class TestConfig:
    def test_monotonicity_guard(self):
        with pytest.raises(ConfigError, match="monotonicity restriction"):
            make_config(dt=0.01)  # dt * L_R = 0.01 * 674 > 1

    def test_unknown_keys_rejected(self):
        obj = make_config().to_json_obj()
        obj["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            SpdeConfig.from_json_obj(obj)

    def test_json_round_trip(self):
        cfg = make_config()
        cfg2 = SpdeConfig.from_json_obj(cfg.to_json_obj())
        assert cfg2 == cfg

    def test_unknown_drift(self):
        with pytest.raises(ConfigError):
            DriftSpec("quartic", {}, K1=1.0, K2=1.0, K3=1.0)

    def test_noise_profile_count(self):
        with pytest.raises(ConfigError):
            NoiseSpec(2, ({"kind": "const"},))


class TestDrift:
    def test_cubic_dissipativity(self):
        d = DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0)
        ok, rep = d.check_dissipativity()
        assert ok
        assert rep["min_growth_margin"] >= -1e-9

    def test_wrong_constants_fail(self):
        d = DriftSpec("cubic", {"K": 10.0}, K1=0.1, K2=0.5, K3=1.0)
        ok, _ = d.check_dissipativity()
        assert not ok

    def test_dissipativity_closed_form(self):
        # cubic: K1 - (K2 + K) x^2 + x^4 is smallest at x^2 = (K2 + K) / 2
        d = DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0)
        ok, rep = d.check_dissipativity()
        assert ok
        assert rep == {"min_growth_margin": 1.0 - 1.5 ** 2 / 4.0,
                       "min_lipschitz_margin": 0.0,
                       "Cf": (2.0 / 3.0) * np.sqrt(1.0 / 3.0)}
        # vertex x^2 = 2 beyond R^2 = 1: the edge value 1 - 4 + 1
        _, rep = DriftSpec("cubic", {"K": 3.0}, K1=1.0, K2=1.0,
                           K3=1.0).check_dissipativity(R=1.0)
        assert rep == {"min_growth_margin": -2.0,
                       "min_lipschitz_margin": -2.0, "Cf": 2.0}
        _, rep = DriftSpec("linear", {"a": -2.0}, K1=1.0, K2=1.0,
                           K3=0.0).check_dissipativity()
        assert rep == {"min_growth_margin": 1.0,
                       "min_lipschitz_margin": 2.0, "Cf": 0.0}
        _, rep = DriftSpec("zero", {}, K1=1.0, K2=1.0,
                           K3=1.0).check_dissipativity(R=2.0)
        assert rep == {"min_growth_margin": -3.0,
                       "min_lipschitz_margin": 1.0, "Cf": 0.0}

    def test_negative_slope_bound(self):
        d = DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0)
        # f' = 1 - 3x^2, most negative at the clamp edge
        assert d.negative_slope_bound(15.0) == 3 * 15 ** 2 - 1
        lin = DriftSpec("linear", {"a": -2.0}, K1=1.0, K2=1.0, K3=1.0)
        assert lin.negative_slope_bound(15.0) == 2.0
        z = DriftSpec("zero", {}, K1=1.0, K2=1.0, K3=1.0)
        assert z.negative_slope_bound(15.0) == 0.0


class TestMonotonicity:
    def test_shared_noise_preserves_order(self, rng):
        cfg = make_config(n_paths=20)
        base = rng.normal(0.0, 1.0, cfg.N)
        x = Field(base)
        y = Field(base + np.abs(rng.normal(0.0, 1.0, cfg.N)))
        worst = comparison_check(cfg, x, y, T=0.1, n_paths=20)
        assert worst <= 1e-12

    def test_requires_ordered_start(self):
        cfg = make_config()
        x = Field(np.ones(cfg.N))
        y = Field(np.zeros(cfg.N))
        with pytest.raises(Exception):
            comparison_check(cfg, x, y, T=0.01, n_paths=2)

    def test_single_step_monotone(self, rng):
        cfg = make_config()
        g = rng.normal(size=cfg.noise.m)
        a = rng.normal(0.0, 2.0, cfg.N)
        b = a + np.abs(rng.normal(0.0, 2.0, cfg.N))
        st = Stepper(cfg)
        ua = st.step(a[None], st.increment(g[None]))
        ub = st.step(b[None], st.increment(g[None]))
        assert np.all(ua <= ub + 1e-12)


DRIFTS = {
    "cubic": DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0),
    "linear": DriftSpec("linear", {"a": -2.0}, K1=1.0, K2=1.0, K3=1.0),
    "zero": DriftSpec("zero", {}, K1=1.0, K2=1.0, K3=1.0),
}


def reference_step(cfg, u, draws):
    """Stepper.step written out directly, with K x - x**3 and numpy.fft."""
    N, d = cfg.N, cfg.drift
    c = np.clip(u, -cfg.clamp_R, cfg.clamp_R)
    f = {"cubic": lambda: d.params.get("K", 1.0) * c - c ** 3,
         "linear": lambda: d.params.get("a", -1.0) * c,
         "zero": lambda: np.zeros_like(c)}[d.name]()
    rhs = u + cfg.dt * f + np.sqrt(cfg.dt) * (draws @ cfg.noise.tabulate(N))
    lam = -2.0 * N * N * (1.0 - np.cos(2.0 * np.pi * np.arange(N // 2 + 1)
                                       / N))
    return np.fft.irfft(np.fft.rfft(rhs, axis=-1) / (1.0 - cfg.dt * lam),
                        n=N, axis=-1)


class TestStep:
    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_matches_reference(self, rng, drift):
        cfg = make_config(N=64, drift=DRIFTS[drift], n_paths=50,
                          noise=NoiseSpec(2, ({"kind": "cos", "amp": 0.5},
                                              {"kind": "sin", "freq": 3})))
        u = rng.normal(0.0, 2.0, (50, cfg.N))
        u[0, :4] = [-40.0, -16.0, 16.0, 40.0]  # beyond the clamp
        draws = noise_draws(5, 1, 50, 2)
        st = Stepper(cfg)
        out = st.step(u, st.increment(draws))
        ref = reference_step(cfg, u, draws)
        if drift == "cubic":
            # x (K - x x) and K x - x**3 round differently in the last bit;
            # atol covers outputs that cancel to near zero
            np.testing.assert_allclose(out, ref, rtol=1e-13,
                                       atol=1e-13 * np.abs(ref).max())
        else:
            assert np.array_equal(out, ref)

    def test_constant_ensemble_stays_exactly_constant(self):
        cfg = make_config(N=64, n_paths=8)
        u = np.linspace(-3.0, 3.0, 8)[:, None] * np.ones(cfg.N)
        st = Stepper(cfg)
        for k in range(1, 201):
            u = st.step(u, st.increment(noise_draws(cfg.seed, k, 8, 1)))
        assert np.ptp(u, axis=-1).max() == 0.0

    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_no_order_violation(self, rng, drift):
        cfg = make_config(drift=DRIFTS[drift])
        for _ in range(3):
            x = rng.normal(0.0, 2.0, cfg.N)
            y = x + np.abs(rng.normal(0.0, 1.0, cfg.N))
            assert comparison_check(cfg, Field(x), Field(y), T=0.05,
                                    n_paths=10) == 0.0


class TestStructure:
    def test_constants_closure(self):
        # constant field + constant noise + space-independent drift stays
        # exactly constant
        cfg = make_config(n_paths=1)
        u = np.full((1, cfg.N), 0.7)
        st = Stepper(cfg)
        for k in range(1, 51):
            u = st.step(u, st.increment(noise_draws(cfg.seed, k, 1, 1)))
        assert u.max() - u.min() <= 1e-13 * max(1.0, abs(u).max())

    def test_translation_equivariance(self, rng):
        shift = 5
        cfg = make_config(n_paths=1)
        u = rng.normal(0.0, 1.0, (1, cfg.N))
        st = Stepper(cfg)
        g = st.increment(rng.normal(size=(1, 1)))
        out = st.step(u, g)
        # constant sigma is shift-invariant, so stepping commutes with
        # cyclic index shifts
        out_shifted = st.step(np.roll(u, shift, axis=1), g)
        assert np.abs(np.roll(out, shift, axis=1) - out_shifted).max() < 1e-12

    def test_energy_decreases_from_large_data(self):
        cfg = make_config(noise=NoiseSpec(0, ()), n_paths=1)
        u = np.full((1, cfg.N), 8.0)
        st = Stepper(cfg)
        out = st.step(u, st.increment(np.zeros((1, 0))))
        assert l2_sq(out)[0] < l2_sq(u)[0]

    @pytest.mark.parametrize("run", [
        lambda cfg, x, y: simulate(cfg, x, [5.0]),
        lambda cfg, x, y: comparison_check(cfg, x, y, T=5.0, n_paths=2),
        lambda cfg, x, y: synchronization_experiment(cfg, x, y, T=5.0,
                                                     n_paths=2),
    ], ids=["simulate", "comparison_check", "synchronization_experiment"])
    def test_nonfinite_detection(self, run):
        # an explosive linear drift overflows in the first step's FFT
        cfg = make_config(noise=NoiseSpec(0, ()),
                          drift=DriftSpec("linear", {"a": 1e308},
                                          K1=1.0, K2=1.0, K3=1e308),
                          dt=1.0, T=5.0)
        x = Field(np.full(cfg.N, 1.0))
        y = Field(np.full(cfg.N, 2.0))
        with pytest.raises(NonFinite) as exc:
            run(cfg, x, y)
        assert exc.value.step_index == 1


class TestReproducibility:
    def test_noise_draws_deterministic(self):
        a = noise_draws(42, 7, 5, 3)
        b = noise_draws(42, 7, 5, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, noise_draws(42, 8, 5, 3))
        assert not np.array_equal(a, noise_draws(43, 7, 5, 3))

    def test_simulate_bit_identical(self):
        cfg = make_config()
        u0 = Field(np.linspace(-1, 1, cfg.N))
        s1 = simulate(cfg, u0, [0.05, 0.1])
        s2 = simulate(cfg, u0, [0.05, 0.1])
        for t in s1:
            assert np.array_equal(s1[t], s2[t])

    def test_record_time_validation(self):
        cfg = make_config()
        with pytest.raises(ConfigError, match="multiple of dt"):
            simulate(cfg, Field(np.zeros(cfg.N)), [0.00033])


@pytest.fixture
def shard_counts(monkeypatch):
    """Set the usable-CPU count with shards for jobs of any length, and
    record the shard count of each integrate call."""
    counts = []

    def counted(n, shard_count, job):
        counts.append(shard_count)
        return shards.run_sharded(n, shard_count, job)

    monkeypatch.setattr(spde, "_SHARD_MIN_WORK", 1)
    monkeypatch.setattr(spde, "run_sharded", counted)

    def use(cpus):
        set_usable_cpus(monkeypatch, cpus)
        counts.clear()
        return counts

    return use


def two_mode_config(**over):
    # two modes: the draws enter through a matrix product, not a scaling
    return make_config(noise=NoiseSpec(2, ({"kind": "const", "amp": 1.0},
                                           {"kind": "cos", "amp": 0.5})),
                       **over)


class TestShards:
    """Sharded integration equals one in-process shard bit for bit."""

    # 3 paths on 3 CPUs give one-row shards, whose own draws alone would
    # go through gemv and round differently from the gemm of the block
    @pytest.mark.parametrize("n_paths", [3, 7, 8])
    def test_simulate_snapshots(self, rng, shard_counts, n_paths):
        cfg = two_mode_config(n_paths=n_paths)
        u0 = rng.normal(0.0, 1.0, (n_paths, cfg.N))
        runs = {}
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            runs[cpus] = simulate(cfg, u0, [0.0, 0.05, 0.1])
            assert counts == [cpus]
        for snaps in runs.values():
            assert list(snaps) == [0.0, 0.05, 0.1]
            for t, snap in snaps.items():
                assert np.array_equal(snap, runs[1][t])

    def test_synchronization_curve_and_cis(self, shard_counts):
        cfg = two_mode_config()
        x = Field(np.full(cfg.N, -1.0))
        y = Field(np.full(cfg.N, 1.0))
        runs = {}
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            rec = synchronization_experiment(cfg, x, y, T=0.2, n_paths=9,
                                             n_record=8, bootstrap=50)
            assert counts == [cpus]
            runs[cpus] = (rec.times, np.array(
                [[r["t"], r["value"], r["ci_low"], r["ci_high"]]
                 for r in rec.statistics]))
        for times, stats in runs.values():
            assert times == runs[1][0]
            assert np.array_equal(stats, runs[1][1])
        assert len(runs[1][0]) == 8

    def test_comparison_check_value(self, shard_counts):
        # starts 1e-13 apart at one point: the violations are rounding
        # residues of about 1e-16 whose maximum depends on the path
        cfg = two_mode_config()
        x = np.cos(2 * np.pi * np.arange(cfg.N) / cfg.N)
        y = x.copy()
        y[3] += 1e-13
        values = {}
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            values[cpus] = comparison_check(cfg, Field(x), Field(y), T=0.05,
                                            n_paths=7)
            assert counts == [cpus]
        assert 0.0 < values[1] < 1e-15
        assert values[2] == values[1] and values[3] == values[1]

    def test_nonfinite_in_a_later_shard_reports_the_first_step(
            self, shard_counts):
        # constant rows grow tenfold a step (no clamp in reach, no noise);
        # row 6 overflows first, row 2 later, the other rows never
        cfg = make_config(noise=NoiseSpec(0, ()), n_paths=7, dt=1.0, T=10.0,
                          clamp_R=1e308,
                          drift=DriftSpec("linear", {"a": 9.0},
                                          K1=1.0, K2=1.0, K3=9.0))
        u0 = np.ones((7, cfg.N))
        u0[2], u0[6] = 1e300, 1e304
        first = {}
        for row in (2, 6):
            with pytest.raises(NonFinite) as exc:
                simulate(replace(cfg, n_paths=1), u0[row], [10.0])
            first[row] = exc.value.step_index
        assert first[6] < first[2]
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            with pytest.raises(NonFinite) as exc:
                simulate(cfg, u0, [10.0])
            assert exc.value.step_index == first[6]
            assert counts == [cpus]

    def test_short_job_steps_in_process(self, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        called = []
        monkeypatch.setattr(shards, "_run_forked", called.append)
        cfg = make_config(n_paths=8)
        simulate(cfg, Field(np.zeros(cfg.N)), [0.1])
        assert called == []

    @pytest.mark.parametrize("shard_count", [1, 2, 3])
    def test_contiguous_blocks_in_order(self, shard_count):
        blocks = shards.run_sharded(7, shard_count, lambda lo, hi: (lo, hi))
        assert blocks == [(7 * i // shard_count, 7 * (i + 1) // shard_count)
                          for i in range(shard_count)]

    def test_blocks_run_in_worker_processes(self):
        pids = shards.run_sharded(2, 2, lambda lo, hi: os.getpid())
        assert os.getpid() not in pids and pids[0] != pids[1]

    def test_worker_exception_reaches_the_caller(self):
        def job(lo, hi):
            if lo:
                raise KeyError(f"job failed on rows {lo}:{hi}")
            return lo

        with pytest.raises(KeyError, match="job failed on rows 2:4"):
            shards.run_sharded(4, 2, job)

    def test_worker_that_dies_is_reported(self):
        with pytest.raises(RuntimeError, match="exited with code 5"):
            shards.run_sharded(2, 2, lambda lo, hi: os._exit(5) if lo else lo)


def test_nonfinite_pickle_round_trip():
    exc = pickle.loads(pickle.dumps(NonFinite(7)))
    assert isinstance(exc, NonFinite)
    assert exc.step_index == 7
    assert str(exc) == str(NonFinite(7))


class TestFunctionals:
    def test_phi_signed_square(self):
        v = np.array([1.0, -1.0])
        assert phi(v) == pytest.approx(0.0)
        assert phi(np.array([2.0, 2.0])) == pytest.approx(8.0)

    def test_sandwich_on_ordered_pairs(self, rng):
        pairs = []
        for _ in range(20):
            x = rng.normal(0.0, 2.0, 16)
            pairs.append((Field(x), Field(x + np.abs(rng.normal(0, 1, 16)))))
        verdict, results = phi_condition_check(pairs)
        assert verdict
        for r in results:
            assert 0.0 <= r["d"] <= r["phi_gap"] + 1e-10

    def test_unordered_pair_rejected(self):
        a = Field(np.array([0.0, 1.0]))
        b = Field(np.array([1.0, 0.0]))
        with pytest.raises(NotOrdered):
            phi_condition_check([(a, b)])

    def test_distance_and_psi(self):
        x = np.zeros(8)
        y = np.ones(8)
        assert field_distance_sq(x, y) == pytest.approx(1.0)
        assert psi(x) == pytest.approx(4.0 * np.sqrt(2.0))
