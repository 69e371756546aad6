"""Experiment harness: records, archives, and the statistical experiments
on small, fast configurations."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import series, set_usable_cpus
from monotone_ergo import cli, fixture_path, serialize, shards, transport
from monotone_ergo.experiments import (NULL_RESAMPLES, SYNC_RECORD_TIMES,
                                       ExperimentRecord,
                                       _permutation_null,
                                       constants_obstruction_demo,
                                       energy_moments, ergodicity_experiment,
                                       swap_probability_estimate,
                                       synchronization_experiment)
from monotone_ergo.spde import (SEED_MAX, ConfigError, DriftSpec, Field,
                                NoiseSpec, SpdeConfig, l2_sq, simulate)


def small_config(**over):
    base = dict(
        N=16, dt=1e-3, T=0.5,
        drift=DriftSpec("cubic", {"K": 1.0}, K1=1.0, K2=0.5, K3=1.0),
        noise=NoiseSpec(1, ({"kind": "const", "amp": 1.0},)),
        seed=3, n_paths=100, clamp_R=15.0)
    base.update(over)
    return SpdeConfig(**base)


class TestRecord:
    def test_series_extraction(self):
        rec = ExperimentRecord(name="x", config={})
        rec.add_stat(0.0, "a", 1.0)
        rec.add_stat(1.0, "a", 2.0)
        rec.add_stat(0.5, "b", 9.0)
        t, v = series(rec, "a")
        assert t.tolist() == [0.0, 1.0]
        assert v.tolist() == [1.0, 2.0]

    def test_content_hash_stable(self):
        r1 = ExperimentRecord(name="x", config={"a": 1})
        r2 = ExperimentRecord(name="x", config={"a": 1})
        assert r1.content_hash == r2.content_hash
        assert r1.content_hash != ExperimentRecord(
            name="x", config={"a": 2}).content_hash

    def test_failed_dump_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "record.json")
        serialize.dump({"a": 1}, path)
        with pytest.raises(TypeError):
            serialize.dump({"a": object()}, path)
        assert serialize.load(path) == {"a": 1}
        assert os.listdir(tmp_path) == ["record.json"]


def reference_dissipation(config, times, snaps):
    """(holds, worst pair, worst margin) of the dissipation inequality
    E|u_t|^2 <= E|u_s|^2 - K2 int_s^t E|u_r|^2 dr + (K1 + |sigma|^2)(t - s)
    with a 3-SE slack, by one trapezoid integral over the recorded times of
    each pair s < t: the loop energy_moments once ran, kept as its
    reference."""
    e2, se2 = {}, {}
    for t in times:
        nsq = l2_sq(snaps[t])
        e2[t] = float(nsq.mean())
        se2[t] = float(nsq.std(ddof=1) / math.sqrt(len(nsq)))
    sigma_sq = float(sum(l2_sq(row)
                         for row in config.noise.tabulate(config.N)))
    K1, K2 = config.drift.K1, config.drift.K2
    worst_margin, worst_pair, ok = -np.inf, None, True
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            s, t = times[a], times[b]
            sub = times[a:b + 1]
            integral = float(np.trapezoid([e2[r] for r in sub], sub))
            rhs = e2[s] - K2 * integral + (K1 + sigma_sq) * (t - s)
            int_se = float(np.trapezoid([se2[r] for r in sub], sub))
            margin = e2[t] - rhs - 3.0 * (se2[t] + se2[s] + K2 * int_se)
            if margin > worst_margin:
                worst_margin, worst_pair = margin, (s, t)
            if margin > 0:
                ok = False
    return ok, worst_pair, worst_margin


def _fixture_energy():
    config, kwargs = cli.read_spde(fixture_path("spde_energy.json"),
                                   "energy")
    return config, kwargs["u0"]


class TestEnergy:
    @pytest.mark.parametrize("case", [
        lambda: (small_config(), Field(np.full(16, 3.0))),
        # K2 far above the drift's dissipation: the inequality fails
        lambda: (small_config(drift=DriftSpec("cubic", {"K": 1.0}, K1=0.01,
                                              K2=5.0, K3=1.0)),
                 Field(np.full(16, 3.0))),
        _fixture_energy,
    ], ids=["small", "small-violated", "fixture"])
    def test_dissipation_check_matches_the_pairwise_loop(self, case):
        config, u0 = case()
        rec = energy_moments(config, u0)
        ok, pair, margin = reference_dissipation(
            config, rec.times, simulate(config, u0, rec.times))
        assert rec.extra["dissipation_inequality_holds"] == ok
        assert rec.extra["worst_pair"] == pair
        assert rec.extra["worst_margin"] == pytest.approx(margin, abs=1e-12)

    def test_dissipation_inequality_and_c4(self):
        cfg = small_config()
        rec = energy_moments(cfg, Field(np.full(16, 3.0)))
        assert rec.extra["dissipation_inequality_holds"]
        assert rec.extra["smallest_C4"] >= 0.0
        t, e2 = series(rec, "energy_l2sq")
        assert e2[0] == pytest.approx(9.0)
        assert e2[-1] < e2[0]  # strong decay from u0 = 3

    def test_times_start_at_zero_once(self):
        rec = energy_moments(small_config(T=0.05), Field(np.full(16, 1.0)))
        assert rec.times[0] == 0.0
        assert all(a < b for a, b in zip(rec.times, rec.times[1:]))
        t, _ = series(rec, "energy_l2sq")
        assert t.tolist() == rec.times

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            energy_moments(small_config(T=0.1, n_paths=10),
                           Field(np.zeros(16)))

    def test_drift_dissipativity_of_the_fixture(self):
        # the record carries the drift's margins at the default range; the
        # fixture's cubic drift K x - x^3 with K = 1, K1 = 1, K2 = 0.5 has
        # growth margin 1 - (K2 + K)^2 / 4
        with open(fixture_path("spde_energy.json")) as fh:
            cfg = SpdeConfig.from_json_obj(json.load(fh)["spde"])
        rec = energy_moments(replace(cfg, T=0.01, n_paths=100),
                             Field(np.full(cfg.N, 3.0)))
        ok, margins = cfg.drift.check_dissipativity()
        assert rec.extra["drift_dissipativity"] == {"holds": ok, **margins}
        assert ok and margins["min_growth_margin"] == 0.4375


class TestSynchronization:
    def test_identical_starts_trivial(self):
        cfg = small_config(T=0.1, n_paths=4)
        rec = synchronization_experiment(cfg, Field(np.zeros(16)),
                                         Field(np.zeros(16)))
        assert rec.extra["verdict"] == "trivially-synchronized"

    def test_curve_recorded_with_cis(self):
        cfg = small_config(n_paths=50)
        rec = synchronization_experiment(cfg, Field(np.full(16, -0.5)),
                                         Field(np.full(16, 0.5)))
        t, v = series(rec, "sync_l2_capped")
        assert t[0] == 0.0 and v[0] == pytest.approx(1.0)
        assert "sync_rate" in rec.fits
        rows = [r for r in rec.statistics if r["stat"] == "sync_l2_capped"]
        assert all(r["ci_low"] <= r["value"] <= r["ci_high"] for r in rows)

    def test_deterministic_given_seed(self):
        cfg = small_config(T=0.2, n_paths=20)
        args = (cfg, Field(np.full(16, -1.0)), Field(np.full(16, 1.0)))
        r1 = synchronization_experiment(*args)
        r2 = synchronization_experiment(*args)
        assert serialize.dumps(r1.to_json_obj()) == \
            serialize.dumps(r2.to_json_obj())

    def test_curve_matches_shared_seed_simulations(self):
        # x and y ride one noise path: two separate runs with the same seed
        # give the same capped distances
        cfg = small_config(T=0.2, n_paths=20)
        x, y = Field(np.full(16, -0.3)), Field(np.full(16, 0.3))
        rec = synchronization_experiment(cfg, x, y)
        times, curve = series(rec, "sync_l2_capped")
        sx = simulate(cfg, x, times.tolist())
        sy = simulate(cfg, y, times.tolist())
        expected = [float(np.minimum(np.sqrt(l2_sq(sx[t] - sy[t])), 1.0)
                          .mean()) for t in times.tolist()]
        assert len(expected) == SYNC_RECORD_TIMES and max(expected) < 1.0
        assert curve.tolist() == expected


class TestErgodicity:
    def test_small_run_contract(self):
        cfg = small_config(T=0.8, n_paths=32)
        rec = ergodicity_experiment(cfg, Field(np.full(16, -1.0)),
                                    Field(np.full(16, 1.0)),
                                    time_grid=[0.1, 0.2, 0.4],
                                    extra_x_times=(0.8,))
        t, v = series(rec, "w_l2_capped")
        assert len(t) == 3
        assert "w_rate" in rec.fits
        checks = rec.extra["stationarity"]
        assert checks[0]["t_other"] == 0.8
        assert "below_2se" in checks[0]

    def test_y_ensemble_seed_must_be_a_seed(self):
        # the y-ensemble runs on seed + 1: the largest seed it allows runs
        args = (Field(np.full(16, -1.0)), Field(np.full(16, 1.0)), [0.01],
                ())
        cfg = small_config(T=0.01, n_paths=4, seed=SEED_MAX - 1)
        assert len(ergodicity_experiment(cfg, *args).times) == 1
        with pytest.raises(ConfigError, match="field 'seed'"):
            ergodicity_experiment(replace(cfg, seed=SEED_MAX), *args)

    def test_stationarity_uses_one_pooled_cost_matrix(self, monkeypatch):
        cfg = small_config(T=0.4, n_paths=32)
        x = Field(np.full(16, -1.0))
        calls = []
        pairwise_cost = transport.pairwise_cost

        def counted(*args):
            calls.append(args)
            return pairwise_cost(*args)

        monkeypatch.setattr(transport, "pairwise_cost", counted)
        rec = ergodicity_experiment(cfg, x, Field(np.full(16, 1.0)),
                                    time_grid=[0.1, 0.2],
                                    extra_x_times=(0.4,))
        monkeypatch.undo()
        assert len(calls) == 2 + 1
        snaps = simulate(cfg, x, [0.2, 0.4])
        w = transport.assignment_value(
            transport.pairwise_cost(snaps[0.2], snaps[0.4]))
        assert rec.extra["stationarity"][0]["w"] == w
        assert series(rec, "w_stationarity_l2_capped")[1].tolist() == [w]

    def test_permutation_null_equals_serial_loop(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 0.3, size=(80, 16))
        b = rng.normal(0.1, 0.3, size=(80, 16))
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        cmat = transport.pairwise_cost(np.concatenate([a, b]),
                                       np.concatenate([a, b]))
        vals = []
        for _ in range(50):
            perm = ref_rng.permutation(160)
            sub = cmat.take(perm[:80], 0).take(perm[80:], 1)
            ri, cj = linear_sum_assignment(sub)
            vals.append(float(sub[ri, cj].mean()))
        # the re-splits are drawn when the jobs are made, not when they run
        jobs = _permutation_null(cmat, rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [job() for job in jobs] == vals

    def test_null_moments_equal_serial_loop(self):
        cfg = small_config(T=0.4, n_paths=32)
        x = Field(np.full(16, -1.0))
        rec = ergodicity_experiment(cfg, x, Field(np.full(16, 1.0)),
                                    time_grid=[0.1, 0.2],
                                    extra_x_times=(0.3, 0.4))
        snaps = simulate(cfg, x, [0.2, 0.3, 0.4])
        rng = np.random.default_rng(cfg.seed + 20_000)
        for check, t_ex in zip(rec.extra["stationarity"], [0.3, 0.4]):
            pool = np.concatenate([snaps[0.2], snaps[t_ex]])
            cmat = transport.pairwise_cost(pool, pool)
            vals = []
            for _ in range(NULL_RESAMPLES):
                perm = rng.permutation(64)
                vals.append(transport.assignment_value(
                    cmat[perm[:32]][:, perm[32:]]))
            assert check["t_other"] == t_ex
            assert check["null_mean"] == float(np.mean(vals))
            assert check["bootstrap_se"] == float(np.std(vals, ddof=1))

    def test_record_independent_of_the_shards(self, monkeypatch):
        cfg = small_config(T=0.4, n_paths=32)
        args = (cfg, Field(np.full(16, -1.0)), Field(np.full(16, 1.0)),
                [0.1, 0.2], (0.3, 0.4))
        forked, run_forked = [], shards._run_forked

        def counted(jobs):
            forked.append(len(jobs))
            return run_forked(jobs)

        monkeypatch.setattr(shards, "_run_forked", counted)
        # 2 + 2 * 51 assignments of 32 x 32 cells stay under the cell floor
        in_process = serialize.dumps(
            ergodicity_experiment(*args).to_json_obj(), False)
        assert forked == []
        monkeypatch.setattr(transport, "_SHARD_MIN_CELLS", 1)
        for cpus in (2, 3):
            set_usable_cpus(monkeypatch, cpus)
            assert serialize.dumps(ergodicity_experiment(*args).to_json_obj(),
                                   False) == in_process
            assert forked.pop() == cpus and forked == []


class TestSwap:
    def test_zero_start_symmetric(self):
        cfg = small_config(drift=DriftSpec("zero", {}, K1=0.3, K2=1e-4,
                                           K3=1.0), T=0.1, n_paths=2000)
        rec = swap_probability_estimate(cfg, Field(np.zeros(16)))
        p1 = rec.extra["p_below_zero"]
        p2 = rec.extra["p_above_zero"]
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)
        assert abs(p1 - 0.5) < 5 * rec.extra["p_below_zero_se"]

    def test_no_noise_control_exact_zero(self):
        cfg = small_config(noise=NoiseSpec(0, ()),
                           drift=DriftSpec("zero", {}, K1=0.3, K2=1e-4,
                                           K3=1.0), T=0.1, n_paths=50)
        rec = swap_probability_estimate(cfg, Field(np.ones(16)))
        assert rec.extra["p_below_zero"] == 0.0
        assert rec.extra["p_above_zero"] == 1.0


class TestConstantsObstruction:
    def test_indicator_separation(self):
        cfg = small_config(drift=DriftSpec("linear", {"a": -0.1}, K1=1.0,
                                           K2=0.1, K3=1.0),
                           dt=0.25, T=1.0, n_paths=50)
        rec = constants_obstruction_demo(
            cfg, x_nonconst=Field(np.cos(2 * np.pi * np.arange(16) / 16)),
            x_const=Field(np.zeros(16)))
        assert rec.extra["fraction_constant_const"] == 1.0
        assert rec.extra["max_range_const"] == 0.0
        assert rec.extra["fraction_constant_nonconst"] == 0.0
        assert rec.extra["indicator_tv"] == 1.0
