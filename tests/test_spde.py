"""Solver invariants: monotonicity, constants closure, translation
equivariance, dissipativity, reproducibility, and config validation."""

import json
import os
import pathlib
import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import comparison_check, set_usable_cpus
from refinement import coarse_noise, field_gap
from monotone_ergo import fixture_path, shards, spde
from monotone_ergo.experiments import (SYNC_RECORD_TIMES,
                                       synchronization_experiment)
from monotone_ergo.spde import (ConfigError, DriftSpec, Field, NoiseSpec,
                                NonFinite, SpdeConfig, Stepper, integrate,
                                l2_sq, noise_draws, phi, simulate)
from monotone_ergo.spde import _resolvent as spde_resolvent


def make_config(**over):
    base = dict(
        N=32, dt=1e-3, T=0.1,
        drift=DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0),
        noise=NoiseSpec(1, ({"kind": "const", "amp": 1.0},)),
        seed=0, n_paths=4, clamp_R=15.0)
    base.update(over)
    return SpdeConfig(**base)


class TestConfig:
    def test_coarse_dt_accepted(self):
        # the splitting step preserves order at every dt, so the cubic
        # drift runs at dt = 0.01, where 0.01 (3 R^2 - K) = 6.74 > 1 broke
        # the order of an explicit drift step; a start beyond R steps
        # from R
        cfg = make_config(dt=0.01, T=0.05)
        snap = simulate(cfg, Field(np.full(cfg.N, 40.0)), [0.05])[0.05]
        assert np.all(np.isfinite(snap)) and snap.max() < 15.0

    def test_unknown_keys_rejected(self):
        obj = asdict(make_config())
        obj["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            SpdeConfig.from_json_obj(obj)

    def test_json_round_trip(self):
        cfg = make_config()
        cfg2 = SpdeConfig.from_json_obj(asdict(cfg))
        assert cfg2 == cfg

    def test_unknown_drift(self):
        with pytest.raises(ConfigError):
            DriftSpec("quartic", {}, K1=1.0, K2=1.0, K3=1.0)

    def test_noise_profile_count(self):
        with pytest.raises(ConfigError):
            NoiseSpec(2, ({"kind": "const"},))

    @pytest.mark.parametrize("name, params, key", [
        ("cubic", {"k": 5}, "k"), ("linear", {"K": 1}, "K"),
        ("zero", {"a": 1}, "a")], ids=["cubic", "linear", "zero"])
    def test_unknown_drift_params(self, name, params, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            DriftSpec(name, params, K1=1.0, K2=1.0, K3=1.0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ConfigError, match="field 'seed'"):
            make_config(seed=seed)
        with pytest.raises(ConfigError, match="field 'seed'"):
            replace(make_config(), seed=seed)

    def test_largest_seed_steps(self):
        cfg = make_config(seed=spde.SEED_MAX, T=0.002)
        assert simulate(cfg, Field(np.zeros(32)), [0.002])[0.002].shape \
            == (4, 32)

    def test_noise_profile_checked_at_load(self):
        obj = asdict(make_config())
        obj["noise"]["sigma"][0]["ampl"] = 7
        with pytest.raises(ConfigError, match="'ampl'"):
            SpdeConfig.from_json_obj(obj)

    def test_profiles(self):
        grid = np.arange(8) / 8
        assert np.array_equal(spde.profile({"kind": "const", "amp": 3}, 8),
                              np.full(8, 3.0))
        assert np.array_equal(
            spde.profile({"kind": "sin", "amp": 0.5, "freq": 3}, 8),
            0.5 * np.sin(2 * np.pi * 3.0 * grid))
        field = Field(spde.profile(spde.read_field(
            {"kind": "cos", "amp": 1, "freq": 1}), 8))
        assert np.array_equal(field.values, np.cos(2 * np.pi * 1.0 * grid))
        assert Field(spde.profile(spde.read_field({"values": [1, 2]}),
                                  2)).values.tolist() == [1.0, 2.0]
        # every profile key is required, and a const profile reads amp
        # alone
        for bad in ({"values": [1, 2]}, {"values": [1] * 3, "kind": "const"},
                    {"kind": "cos", "frequency": 3},
                    {"kind": "const", "freq": 3}, {"kind": "square"}, 1.0,
                    {"kind": "const"}, {"kind": "const", "value": 2},
                    {"kind": "const", "amp": 5, "value": -1},
                    {"kind": "cos"}, {"kind": "sin", "amp": 1},
                    {"kind": "cos", "freq": 2}):
            with pytest.raises(ConfigError):
                Field(spde.profile(spde.read_field(bad), 3))


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
        assert spde._dissipativity_margins("cubic", {"K": 3.0}, 1.0, 1.0, 1.0,
                                           1.0) == (-2.0, -2.0, 2.0)
        _, rep = DriftSpec("linear", {"a": -2.0}, K1=1.0, K2=1.0,
                           K3=0.0).check_dissipativity()
        assert rep == {"min_growth_margin": 1.0,
                       "min_lipschitz_margin": 2.0, "Cf": 0.0}
        # zero drift on R = 2: the edge value K1 - K2 R^2
        assert spde._dissipativity_margins("zero", {}, 1.0, 1.0, 1.0,
                                           2.0) == (-3.0, 1.0, 0.0)


class TestMonotonicity:
    def test_shared_noise_preserves_order(self, rng):
        cfg = make_config(n_paths=20)
        base = rng.normal(0.0, 1.0, cfg.N)
        x = Field(base)
        y = Field(base + np.abs(rng.normal(0.0, 1.0, cfg.N)))
        worst = comparison_check(cfg, x, y, T=0.1, n_paths=20)
        assert worst <= 1e-12

    def test_requires_ordered_start(self):
        # the check measures a violation, so from x above y it reads one
        cfg = make_config()
        x = Field(np.ones(cfg.N))
        y = Field(np.zeros(cfg.N))
        assert comparison_check(cfg, x, y, T=0.01, n_paths=2) > 0.5

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


def reference_flow(cfg, u):
    """phi_dt(clip(u, -R, R)) in its algebraic closed form: the flow of
    x' = K x - x^3 is x e^{Kt} / sqrt(1 + x^2 (e^{2Kt} - 1) / K)."""
    d, t = cfg.drift, cfg.dt
    c = np.clip(u, -cfg.clamp_R, cfg.clamp_R)
    if d.name == "cubic":
        K = d.params["K"]
        return c * np.exp(K * t) / np.sqrt(1.0 + c * c * np.expm1(2 * K * t)
                                           / K)
    if d.name == "linear":
        return c * np.exp(d.params["a"] * t)
    return u


def reference_step(cfg, u, draws):
    """Stepper.step written out directly, with the algebraic flow and
    numpy.fft."""
    N = cfg.N
    rhs = (reference_flow(cfg, u)
           + np.sqrt(cfg.dt) * (draws @ cfg.noise.tabulate(N)))
    lam = -2.0 * N * N * (1.0 - np.cos(2.0 * np.pi * np.arange(N // 2 + 1)
                                       / N))
    return np.fft.irfft(np.fft.rfft(rhs, axis=-1) / (1.0 - cfg.dt * lam),
                        n=N, axis=-1)


# the resolvent product and the FFT sum in different orders, and the two
# forms of the cubic flow round differently in the last bit
REFERENCE_TOL = 1e-13


def reference_mismatch(rng, drift):
    """Max |Stepper.step - reference_step| over 50 random rows, some of
    them beyond the clamp, which step from +-R, in units of
    max |reference_step|."""
    cfg = make_config(N=64, drift=DRIFTS[drift], n_paths=50,
                      noise=NoiseSpec(2, (
                          {"kind": "cos", "amp": 0.5, "freq": 1},
                          {"kind": "sin", "amp": 1, "freq": 3})))
    u = rng.normal(0.0, 2.0, (50, cfg.N))
    u[0, :4] = [-40.0, -16.0, 16.0, 40.0]  # beyond the clamp
    draws = noise_draws(5, 1, 50, 2)
    st = Stepper(cfg)
    out = st.step(u, st.increment(draws))
    ref = reference_step(cfg, u, draws)
    return np.abs(out - ref).max() / np.abs(ref).max()


def fft_resolvent(N, dt):
    """(I - dt L_h)^{-1} from numpy.fft applied to the identity."""
    lam = -2.0 * N * N * (1.0 - np.cos(2.0 * np.pi * np.arange(N // 2 + 1)
                                       / N))
    return np.fft.irfft(np.fft.rfft(np.eye(N), axis=-1) / (1.0 - dt * lam),
                        n=N, axis=-1)


# shards of a 300-path block: the whole block, one-row shards, and others
SHARD_ROWS = [(0, 300), (0, 1), (137, 138), (299, 300), (0, 150), (100, 233)]

SPDE_FIXTURES = sorted(
    p.name for p in pathlib.Path(fixture_path("spde_sync.json")).parent
    .glob("spde_*.json"))


class TestStep:
    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_matches_reference(self, rng, drift):
        assert reference_mismatch(rng, drift) <= REFERENCE_TOL

    @pytest.mark.parametrize("mutant", [
        lambda N, dt: spde_resolvent(N, dt / 2),
        lambda N, dt: spde_resolvent(N, dt / N),  # L_h scaled by N
    ], ids=["half_dt", "laplacian_times_N"])
    def test_reference_rejects_a_wrong_resolvent(self, rng, monkeypatch,
                                                 mutant):
        monkeypatch.setattr(spde, "_resolvent", mutant)
        assert reference_mismatch(rng, "cubic") > REFERENCE_TOL

    def test_reference_rejects_the_euler_drift(self, rng, monkeypatch):
        # u + dt f(clip(u)), the explicit drift step, in place of the flow
        def euler(name, params, dt, R):
            K = params["K"]
            return lambda u, out: np.add(u, dt * np.clip(u, -R, R) * (
                K - np.clip(u, -R, R) ** 2), out=out)
        monkeypatch.setattr(spde, "_drift_flow", euler)
        assert reference_mismatch(rng, "cubic") > REFERENCE_TOL

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("dt", [1e-3, 1e-4, 1e-6])
    def test_resolvent_is_positive_and_exact(self, N, dt):
        G = Stepper(make_config(N=N, dt=dt)).resolvent
        assert G.min() >= 0.0
        assert np.abs(G - fft_resolvent(N, dt)).max() <= 1e-15
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("name", SPDE_FIXTURES)
    def test_fixture_resolvents_are_positive(self, name):
        with open(fixture_path(name)) as fh:
            cfg = SpdeConfig.from_json_obj(json.load(fh)["spde"])
        assert Stepper(cfg).resolvent.min() >= 0.0

    def test_negative_resolvent_refused(self, monkeypatch):
        # the FFT inverse at N = 64, dt = 1e-4 rounds some entries below 0
        assert fft_resolvent(64, 1e-4).min() < 0.0
        monkeypatch.setattr(spde, "_resolvent", fft_resolvent)
        with pytest.raises(ConfigError, match="negative entry"):
            Stepper(make_config(N=64, dt=1e-4))

    def test_rows_step_independently(self, rng):
        # shards and blocks of every size and offset, across the edges of
        # the fixed-size product blocks
        cfg = two_mode_config(n_paths=300)
        u = rng.normal(0.0, 2.0, (300, cfg.N))
        draws = noise_draws(cfg.seed, 1, 300, 2)
        st = Stepper(cfg)
        full = st.step(u, st.increment(draws))
        for a in range(40):
            for b in [a + w for w in [*range(1, 20), 127, 128, 129]]:
                part = st.step(u[a:b], st.increment(draws[a:b]))
                assert np.array_equal(part, full[a:b]), (a, b)

    def test_chunked_rows_step_as_block_parts(self, rng):
        # 1000 rows run in four chunks, the last of 232 rows with a padded
        # 104-row block; each 128-row part, stepped alone, gives its bits
        cfg = two_mode_config(n_paths=1000)
        u = rng.normal(0.0, 2.0, (1000, cfg.N))
        draws = noise_draws(cfg.seed, 1, 1000, 2)
        st = Stepper(cfg)
        full = st.step(u, st.increment(draws))
        for a in range(0, 1000, 128):
            part = st.step(u[a:a + 128], st.increment(draws[a:a + 128]))
            assert np.array_equal(part, full[a:a + 128]), a

    def test_one_mode_shard_increment_is_the_block_product(self):
        st = Stepper(make_config(n_paths=300))
        for k in range(1, 50):
            draws = noise_draws(0, k, 300, 1)
            block = st.sqrt_dt * (draws @ st.sigma)
            for lo, hi in SHARD_ROWS:
                assert np.array_equal(st.increment(draws[lo:hi]),
                                      block[lo:hi])

    def test_two_mode_shard_increment_within_an_ulp_of_the_product(self):
        # sqrt(2^-10) = 2^-5 scales exactly, so the gap is the sums' own
        st = Stepper(two_mode_config(dt=2.0 ** -10, T=2.0 ** -3))
        for k in range(1, 200):
            draws = noise_draws(0, k, 300, 2)
            block = st.sqrt_dt * (draws @ st.sigma)
            ulp = np.spacing(st.sqrt_dt * (np.abs(draws) @ np.abs(st.sigma)))
            for lo, hi in SHARD_ROWS:
                gap = np.abs(st.increment(draws[lo:hi]) - block[lo:hi])
                assert np.all(gap <= ulp[lo:hi])

    @pytest.mark.parametrize("R", [15.0, 1e160, 1e300])
    def test_cubic_flow_squares_as_the_clip(self, rng, R):
        # min(u^2, R^2) in place of clip(u, -R, R)^2, bit for bit
        tiny = np.finfo(float).smallest_subnormal
        edge = np.array([0.0, np.inf, np.nan, tiny, 1e-300, 1e-160, 1.0,
                         1e154, 1e200, np.finfo(float).max, R,
                         np.nextafter(R, 0.0), np.nextafter(R, np.inf)])
        u = np.concatenate([edge, -edge, rng.normal(0.0, R, 1000),
                            rng.normal(0.0, 1.0, 1000)])
        K, dt = 1.0, 0.01
        with np.errstate(divide="ignore", over="ignore"):
            clipped = np.copysign(
                np.exp(K * dt) / np.sqrt(1.0 / np.square(np.clip(u, -R, R))
                                         + np.expm1(2.0 * K * dt) / K), u)
        flow = spde._drift_flow("cubic", {"K": K}, dt, R)
        out = flow(u, np.empty_like(u))
        assert np.array_equal(out, clipped, equal_nan=True)
        assert np.array_equal(np.signbit(out), np.signbit(clipped))

    def test_constant_ensemble_stays_exactly_constant(self):
        cfg = make_config(N=64, n_paths=8)
        u = np.linspace(-3.0, 3.0, 8)[:, None] * np.ones(cfg.N)
        st = Stepper(cfg)
        for k in range(1, 201):
            u = st.step(u, st.increment(noise_draws(cfg.seed, k, 8, 1)))
        assert np.ptp(u, axis=-1).max() == 0.0

    @pytest.mark.parametrize("drift", sorted(DRIFTS))
    def test_no_order_violation(self, rng, drift):
        # 50 steps at each dt: the step preserves order at every dt
        for dt in (1e-3, 1e-2, 1e-1, 1.0):
            cfg = make_config(drift=DRIFTS[drift], dt=dt, T=50 * dt)
            for _ in range(3):
                x = rng.normal(0.0, 2.0, cfg.N)
                y = x + np.abs(rng.normal(0.0, 1.0, cfg.N))
                assert comparison_check(cfg, Field(x), Field(y), T=cfg.T,
                                        n_paths=10) == 0.0, dt


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
        lambda cfg, x, y: synchronization_experiment(
            replace(cfg, n_paths=2), x, y),
    ], ids=["simulate", "comparison_check", "synchronization_experiment"])
    def test_nonfinite_detection(self, run):
        # an explosive linear drift overflows in the first step's drift,
        # a x = 2e308 on the smaller start already
        cfg = make_config(noise=NoiseSpec(0, ()),
                          drift=DriftSpec("linear", {"a": 1e308},
                                          K1=1.0, K2=1.0, K3=1e308),
                          dt=1.0, T=5.0)
        x = Field(np.full(cfg.N, 2.0))
        y = Field(np.full(cfg.N, 3.0))
        with pytest.raises(NonFinite) as exc:
            run(cfg, x, y)
        assert exc.value.step_index == 1


class TestExactLaw:
    def test_zero_drift_modes_have_their_exact_variance(self):
        # with the zero drift each noise profile sigma_j is an eigenvector
        # of L_h, eigenvalue -lambda_j, so from u = 0 the field after n
        # steps is sum_j Z_j sigma_j, with Z_{k+1} = (Z_k + sqrt(dt) g_k)
        # / (1 + dt lambda_j): Gaussian, mean 0, variance
        # V_j = dt sum_{i=1..n} (1 + dt lambda_j)^(-2i), which is T for
        # the const mode (lambda = 0)
        N, dt, T = 64, 1e-3, 0.5
        modes = ({"kind": "const", "amp": 1.0},
                 {"kind": "cos", "freq": 1, "amp": 1.0},
                 {"kind": "sin", "freq": 3, "amp": 0.5})
        cfg = make_config(N=N, dt=dt, T=T, drift=DRIFTS["zero"],
                          noise=NoiseSpec(3, modes), n_paths=2000)
        u = simulate(cfg, Field(np.zeros(N)), [T])[T]
        sigma = cfg.noise.tabulate(N)
        Z = u @ sigma.T / (sigma ** 2).sum(axis=1)
        assert np.abs(u - Z @ sigma).max() <= 1e-12
        freq = np.array([mode.get("freq", 0) for mode in modes])
        lam = 2 * N ** 2 * (1 - np.cos(2 * np.pi * freq / N))
        i = np.arange(1, cfg.n_steps + 1)
        V = dt * ((1 + dt * lam[:, None]) ** (-2.0 * i)).sum(axis=1)
        assert V[0] == pytest.approx(T, rel=1e-12)
        se = (Z ** 2).std(axis=0, ddof=1) / np.sqrt(cfg.n_paths)
        assert np.all(np.abs((Z ** 2).mean(axis=0) - V) <= 3 * se)
        # the const mode alone never leaves the constants
        const = replace(cfg, noise=NoiseSpec(1, modes[:1]), n_paths=8)
        u = simulate(const, Field(np.zeros(N)), [T])[T]
        assert np.ptp(u, axis=1).max() <= 1e-12


class TestReproducibility:
    def test_noise_draws_deterministic(self):
        a = noise_draws(42, 7, 5, 3)
        b = noise_draws(42, 7, 5, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, noise_draws(42, 8, 5, 3))
        assert not np.array_equal(a, noise_draws(43, 7, 5, 3))

    def test_noise_draws_of_fewer_paths_are_a_prefix(self):
        # a shard draws a step's stream only up to its own last row
        for seed in range(5):
            for k in (1, 7, 1000):
                for n, m in ((400, 1), (512, 3), (20, 2)):
                    full = noise_draws(seed, k, n, m)
                    for hi in (1, n // 3, n - 1):
                        assert np.array_equal(noise_draws(seed, k, hi, m),
                                              full[:hi])

    def test_simulate_bit_identical(self):
        cfg = make_config()
        u0 = Field(np.linspace(-1, 1, cfg.N))
        s1 = simulate(cfg, u0, [0.05, 0.1])
        s2 = simulate(cfg, u0, [0.05, 0.1])
        for t in s1:
            assert np.array_equal(s1[t], s2[t])

    def test_record_times_on_one_step_are_each_returned(self):
        # two times within the grid tolerance of one step share its snapshot
        cfg = make_config()
        times = [0.05 + 1e-13, 0.0, 0.05]
        snaps = simulate(cfg, Field(np.linspace(-1, 1, cfg.N)), times)
        assert list(snaps) == times
        assert snaps[0.05] is snaps[0.05 + 1e-13]

    def test_record_time_validation(self):
        cfg = make_config()
        with pytest.raises(ConfigError, match="field 'record_times': must "
                                              "be a nonnegative multiple of "
                                              "dt = 0.001, not 0.00033"):
            simulate(cfg, Field(np.zeros(cfg.N)), [0.00033])


@pytest.fixture
def shard_counts(monkeypatch):
    """Set the usable-CPU count with shards for jobs of any length, and
    record the shard count of each integrate call."""
    counts = []

    run = shards.run

    def counted(jobs):
        counts.append(len(jobs))
        return run(jobs)

    monkeypatch.setattr(spde, "_SHARD_MIN_WORK", 1)
    monkeypatch.setattr(shards, "run", counted)

    def use(cpus):
        set_usable_cpus(monkeypatch, cpus)
        counts.clear()
        return counts

    return use


def two_mode_config(**over):
    # two modes: the draws enter through a matrix product, not a scaling
    return make_config(noise=NoiseSpec(2, ({"kind": "const", "amp": 1.0},
                                           {"kind": "cos", "amp": 0.5,
                                            "freq": 1})),
                       **over)


def product_rounding(cfg, x, y):
    """Per step of shared-noise paths stepped from x <= y with `Stepper`:
    (violation, rounding, inherited).  The violation is max(u_x - u_y)+
    after the step; rounding is max |e_x| + |e_y|, the errors of the two
    products b + (r - b) G against the same float64 r in np.longdouble;
    inherited is max(r_x - r_y)+, the order inversion the product's input
    rows carry from earlier steps.  G is positive with unit row sums, so
    the exact products are inverted by at most the inherited part, and
    the violation is at most rounding + inherited."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    st = Stepper(cfg)
    G = st.resolvent.astype(np.longdouble)
    u = [np.broadcast_to(v, (cfg.n_paths, cfg.N)).copy() for v in (x, y)]
    steps = []
    for k in range(1, cfg.n_steps + 1):
        noise = st.increment(noise_draws(cfg.seed, k, cfg.n_paths,
                                         cfg.noise.m))
        rhs = [st.flow(v, np.empty_like(v)) + noise for v in u]
        rounding = 0.0
        for i, r in enumerate(rhs):
            u[i] = st.step(u[i], noise)
            r = r.astype(np.longdouble)
            rounding = rounding + np.abs(u[i] - (r[:, :1]
                                                 + (r - r[:, :1]) @ G))
        steps.append((max(0.0, (u[0] - u[1]).max()), rounding.max(),
                      max(0.0, (rhs[0] - rhs[1]).max())))
    return steps


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

    def test_integrate_observes_exactly_the_given_steps(self, rng,
                                                        shard_counts):
        cfg = two_mode_config(n_paths=7)
        u0 = rng.normal(0.0, 1.0, (7, cfg.N))
        runs = {}
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            calls = []

            def observe(ensembles):
                # a forked shard counts its calls in its own process, so
                # every row of a partial carries its shard's count
                calls.append(None)
                return np.column_stack([ensembles[0],
                                        np.full(len(ensembles[0]),
                                                len(calls))])

            runs[cpus] = integrate(cfg, (u0,), [0, 40, 3, 17, 3], observe)
            assert counts == [cpus]
        for out in runs.values():
            assert list(out) == [0, 3, 17, 40]
            for call, k in enumerate(out, 1):
                assert np.array_equal(out[k][:, -1], np.full(7, call))
                assert np.array_equal(out[k], runs[1][k])

    def test_synchronization_curve_and_cis(self, shard_counts):
        cfg = two_mode_config(T=0.2, n_paths=9)
        x = Field(np.full(cfg.N, -1.0))
        y = Field(np.full(cfg.N, 1.0))
        runs = {}
        for cpus in (1, 2, 3):
            counts = shard_counts(cpus)
            rec = synchronization_experiment(cfg, x, y)
            assert counts == [cpus]
            runs[cpus] = (rec.times, np.array(
                [[r["t"], r["value"], r["ci_low"], r["ci_high"]]
                 for r in rec.statistics]))
        for times, stats in runs.values():
            assert times == runs[1][0]
            assert np.array_equal(stats, runs[1][1])
        assert len(runs[1][0]) == SYNC_RECORD_TIMES

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
        steps = product_rounding(replace(cfg, T=0.05, n_paths=7), x, y)
        assert steps[0][2] == 0.0
        for violation, rounding, inherited in steps:
            assert violation <= rounding + inherited
        assert values[1] == max(violation for violation, _, _ in steps)
        assert 0.0 < values[1]
        assert values[2] == values[1] and values[3] == values[1]
    def test_nonfinite_in_a_later_shard_reports_the_first_step(
            self, shard_counts):
        # constant rows grow e^9-fold a step (no clamp in reach, no noise);
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

    @pytest.mark.parametrize("steps", [200, 250])
    def test_ergodicity_ensembles_step_on_two_shards(self, monkeypatch,
                                                     steps):
        # the 512-path, N = 64 ensembles of the `ergodicity` workload: the
        # y-ensemble runs 200 steps, the x-ensemble 250
        set_usable_cpus(monkeypatch, 2)
        forked = []

        def counted(jobs):
            # the shards are counted, not run: each reports no step
            forked.append(len(jobs))
            return [(None, {}) for _ in jobs]

        monkeypatch.setattr(shards, "_run_forked", counted)
        integrate(make_config(N=64, n_paths=512), (np.zeros((512, 64)),),
                  [steps], lambda ensembles: ensembles[0])
        assert forked == [2]

    @pytest.mark.parametrize("shard_count", [1, 2, 3])
    def test_contiguous_blocks_in_order(self, shard_counts, shard_count):
        # each path reports the process that stepped it
        counts = shard_counts(shard_count)
        cfg = two_mode_config(n_paths=7)
        pids = integrate(cfg, (np.zeros((7, cfg.N)),), [1],
                         lambda ensembles: np.full(len(ensembles[0]),
                                                   os.getpid()))[1]
        assert counts == [shard_count]
        edges = [7 * i // shard_count for i in range(shard_count + 1)]
        firsts = pids[edges[:-1]]
        assert np.array_equal(pids, np.repeat(firsts, np.diff(edges)))
        assert len(set(firsts.tolist())) == shard_count
        assert (os.getpid() in firsts) == (shard_count == 1)

    def test_blocks_run_in_worker_processes(self):
        assert shards.run([os.getpid]) == [os.getpid()]
        pids = shards.run([os.getpid, os.getpid])
        assert os.getpid() not in pids and pids[0] != pids[1]

    def test_worker_count(self, monkeypatch):
        set_usable_cpus(monkeypatch, 3)
        assert shards.workers(7, 100, 10) == 3   # one per CPU
        assert shards.workers(2, 100, 10) == 2   # one per item
        assert shards.workers(7, 29, 10) == 2    # the work floor
        assert shards.workers(7, 9, 10) == 1     # at least one

    def test_worker_exception_reaches_the_caller(self):
        def fail():
            raise KeyError("job 1 failed")

        with pytest.raises(KeyError, match="job 1 failed"):
            shards.run([lambda: 0, fail])

    def test_worker_that_dies_is_reported(self):
        with pytest.raises(RuntimeError, match="exited with code 5"):
            shards.run([lambda: 0, lambda: os._exit(5)])


class TestRefinement:
    """tests/refinement.py runs two time steps on one Brownian path."""

    def test_coarse_draws_sum_the_fine_draws(self):
        fine = spde.noise_draws
        with coarse_noise(10):
            coarse = spde.noise_draws(7, 2, 5, 2)
        assert spde.noise_draws is fine
        total = noise_draws(7, 11, 5, 2)
        for j in range(12, 21):
            total += noise_draws(7, j, 5, 2)
        assert np.array_equal(coarse, total / np.sqrt(10))

    def test_zero_drift_is_brownian_at_every_dt(self):
        # from a constant start every path is u0 + W_t at any dt, so the
        # gap is the rounding of 200 summed increments
        cfg = make_config(N=8, dt=0.01, T=0.2, drift=DRIFTS["zero"])
        assert field_gap(cfg, 10, Field(np.full(8, 2.0))) <= 1e-13

    def test_cubic_gap_is_far_below_an_independent_path(self):
        cfg = make_config(N=8, dt=0.01, T=0.2)
        u0 = Field(np.full(8, 2.0))
        independent = np.abs(
            simulate(cfg, u0, [0.2])[0.2]
            - simulate(replace(cfg, dt=0.001, seed=1), u0, [0.2])[0.2]).max()
        assert 0.0 < field_gap(cfg, 10, u0) < independent / 10


def test_nonfinite_pickle_round_trip():
    exc = pickle.loads(pickle.dumps(NonFinite(7)))
    assert isinstance(exc, NonFinite)
    assert exc.step_index == 7
    assert str(exc) == str(NonFinite(7))


def holder_weight(v):
    """psi(v) = 4 sqrt(2) (1 + ||v||^2), the weight of the square-root
    Hoelder bound on phi."""
    return 4.0 * np.sqrt(2.0) * (1.0 + l2_sq(v))


class TestFunctionals:
    """The premetric sandwich 0 <= d(x, y) <= phi(y) - phi(x) on ordered
    fields, d(x, y) = ||x - y||^2, and the Hoelder bound |phi(x) - phi(y)|
    <= d(x, y)^(1/2) (psi(x) + psi(y))."""

    def test_phi_signed_square(self):
        v = np.array([1.0, -1.0])
        assert phi(v) == pytest.approx(0.0)
        assert phi(np.array([2.0, 2.0])) == pytest.approx(8.0)

    def test_sandwich_on_ordered_pairs(self, rng):
        pairs = []
        for _ in range(20):
            x = rng.normal(0.0, 2.0, 16)
            pairs.append((x, x + np.abs(rng.normal(0, 1, 16))))
        x, y = np.array(pairs).transpose(1, 0, 2)
        d = l2_sq(x - y)
        gap = phi(y) - phi(x)
        assert np.all((0.0 <= d) & (d <= gap + 1e-10))
        assert np.all(np.abs(gap)
                      <= np.sqrt(d) * (holder_weight(x) + holder_weight(y))
                      + 1e-10)

    def test_unordered_pair_rejected(self):
        # the sandwich is for ordered pairs: crossed fields break it
        a = np.array([0.0, 1.0])
        b = np.array([1.0, 0.0])
        assert l2_sq(a - b) == 1.0
        assert phi(b) - phi(a) == 0.0

    def test_distance_and_psi(self):
        x = np.zeros(8)
        y = np.ones(8)
        assert l2_sq(x - y) == pytest.approx(1.0)
        assert holder_weight(x) == pytest.approx(4.0 * np.sqrt(2.0))
