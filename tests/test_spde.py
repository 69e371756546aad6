"""Solver invariants: monotonicity, constants closure, translation
equivariance, dissipativity, reproducibility, and config validation."""

import numpy as np
import pytest

from monotone_ergo.experiments import synchronization_experiment
from monotone_ergo.spde import (ConfigError, DriftSpec, Field, NoiseSpec,
                                NonFinite, NotOrdered, SpdeConfig, Stepper,
                                comparison_check, field_distance_sq, l2_sq,
                                noise_draws, phi, phi_condition_check, psi,
                                simulate, step)


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
        ua = step(Field(a), cfg, g)
        ub = step(Field(b), cfg, g)
        assert np.all(ua.values <= ub.values + 1e-12)


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
        out, ref = Stepper(cfg).step(u, draws), reference_step(cfg, u, draws)
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
            u = st.step(u, noise_draws(cfg.seed, k, 8, 1))
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
            u = st.step(u, noise_draws(cfg.seed, k, 1, 1))
        assert u.max() - u.min() <= 1e-13 * max(1.0, abs(u).max())

    def test_translation_equivariance(self, rng):
        shift = 5
        cfg = make_config(n_paths=1)
        u = rng.normal(0.0, 1.0, (1, cfg.N))
        g = rng.normal(size=(1, 1))
        out = Stepper(cfg).step(u, g)
        # constant sigma is shift-invariant, so stepping commutes with
        # cyclic index shifts
        out_shifted = Stepper(cfg).step(np.roll(u, shift, axis=1), g)
        assert np.abs(np.roll(out, shift, axis=1) - out_shifted).max() < 1e-12

    def test_energy_decreases_from_large_data(self):
        cfg = make_config(noise=NoiseSpec(0, ()), n_paths=1)
        u = np.full((1, cfg.N), 8.0)
        out = Stepper(cfg).step(u, np.zeros((1, 0)))
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
