"""Experiment harness on top of the torus solver: energy moments,
synchronization, ergodicity, swap probabilities, and the constants-set
total-variation obstruction.

Every experiment returns an ExperimentRecord, which the CLI archives as
record.json, config.json, statistics.csv and, for `snapshot_run`, binary
snapshots.  Identical (config, seed) inputs reproduce bit-identical
records.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import serialize, transport
from .fitting import RateFit, fit_exponential_rate
from .spde import (SEED_MAX, ConfigError, Field, SpdeConfig, integrate,
                   l2_sq)
# perfbench/spans.py traces noise_draws and simulate under these names
from .spde import noise_draws, simulate  # noqa: F401

RANGE_TOL = 1e-6
# re-splits of the pooled ensemble in the stationarity null
NULL_RESAMPLES = 50
# record times of the energy moments and of the synchronization curve
ENERGY_RECORD_TIMES = 26
SYNC_RECORD_TIMES = 40


@dataclass
class ExperimentRecord:
    name: str
    config: dict                      # config snapshot (plain JSON object)
    content_hash: str = ""
    times: list = field(default_factory=list)
    statistics: list = field(default_factory=list)   # rows for statistics.csv
    fits: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    # {t: (n_paths, N) array}, archived beside the record, not in its JSON
    snapshots: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.content_hash:
            self.content_hash = serialize.content_hash(
                {"name": self.name, "config": self.config})

    def add_stat(self, t, stat, value, ci_low=float("nan"),
                 ci_high=float("nan")):
        self.statistics.append({"t": float(t), "stat": stat,
                                "value": float(value), "ci_low": float(ci_low),
                                "ci_high": float(ci_high)})

    def add_fit(self, name, fit: RateFit):
        self.fits[name] = asdict(fit)

    def to_json_obj(self):
        return {"name": self.name, "config": self.config,
                "content_hash": self.content_hash, "times": list(self.times),
                "statistics": self.statistics, "fits": self.fits,
                "extra": self.extra}


def _record_grid(config: SpdeConfig, n_record: int) -> list[int]:
    """About n_record evenly spread steps from 0 to config.n_steps."""
    return sorted({int(round(f * config.n_steps))
                   for f in np.linspace(0, 1, n_record)})


def _mean_ci(samples: np.ndarray):
    """Mean, SE and 95 % CLT interval of i.i.d. samples (SE 0 for one)."""
    n = len(samples)
    m = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return m, se, m - 1.96 * se, m + 1.96 * se


# ---------------------------------------------------------------------------
# snapshots of one ensemble
# ---------------------------------------------------------------------------

def snapshot_run(config: SpdeConfig, u0: Field,
                 n_record: int) -> ExperimentRecord:
    """An ensemble from u0 with its snapshots at about n_record times in
    [0, T] and the mean squared L2 norm at each."""
    times = [k * config.dt for k in _record_grid(config, n_record)]
    snaps = simulate(config, u0, times)
    rec = ExperimentRecord(name="run", config=asdict(config),
                           times=times, snapshots=snaps)
    for t in times:
        nsq = l2_sq(snaps[t])
        m, _, lo, hi = _mean_ci(nsq)
        rec.add_stat(t, "energy_l2sq", m, lo, hi)
    return rec


# ---------------------------------------------------------------------------
# energy moments
# ---------------------------------------------------------------------------

def energy_moments(config: SpdeConfig, u0: Field) -> ExperimentRecord:
    """Monte-Carlo second and fourth moments of the L2 norm at about
    ENERGY_RECORD_TIMES times, with the dissipation inequality checked at
    all recorded time pairs, the smallest additive constant certifying
    the fourth-moment bound, and the drift's dissipativity margins
    (`DriftSpec.check_dissipativity`)."""
    if config.n_paths < 100:
        raise ConfigError(f"field 'n_paths': must be at least 100 for the "
                          f"energy moments, not {config.n_paths!r}")
    times = [k * config.dt for k in _record_grid(config, ENERGY_RECORD_TIMES)]
    snaps = simulate(config, u0, times)
    rec = ExperimentRecord(name="energy", config=asdict(config),
                           times=times)
    e2, se2, e4 = np.empty(len(times)), np.empty(len(times)), {}
    for k, t in enumerate(times):
        nsq = l2_sq(snaps[t])
        m2, se2[k], lo2, hi2 = _mean_ci(nsq)
        e4[t], _, lo4, hi4 = _mean_ci(nsq ** 2)
        e2[k] = m2
        rec.add_stat(t, "energy_l2sq", m2, lo2, hi2)
        rec.add_stat(t, "energy_l4", e4[t], lo4, hi4)

    sigma_sq = float(sum(l2_sq(row)
                         for row in config.noise.tabulate(config.N)))
    K1, K2 = config.drift.K1, config.drift.K2
    ts = np.array(times)

    def integral(y):
        """Entry [a, b]: the trapezoid integral of y over [ts[a], ts[b]],
        from one cumulative sum."""
        cum = np.cumsum(np.r_[0.0, np.diff(ts) * (y[1:] + y[:-1]) / 2.0])
        return cum[None, :] - cum[:, None]

    # row s, column t: the margin of the inequality over [s, t], for s < t
    span = ts[None, :] - ts[:, None]
    rhs = e2[:, None] - K2 * integral(e2) + (K1 + sigma_sq) * span
    slack = 3.0 * (se2[None, :] + se2[:, None] + K2 * integral(se2))
    margin = np.where(span > 0, e2[None, :] - rhs - slack, -np.inf)
    # the first largest margin in row-major order
    a, b = np.unravel_index(np.argmax(margin), margin.shape)
    worst_margin = margin[a, b]
    worst_pair = (times[a], times[b]) if a < b else None
    ok = not (margin > 0).any()
    u0_l4 = l2_sq(u0.values) ** 2
    c4 = max(0.0, max(e4[t] - u0_l4 * math.exp(-K2 * t) for t in times))
    # the growth condition, whose K1 and K2 the inequality above uses, and
    # the one-sided Lipschitz condition, on |x| <= spde.ASSUMPTION_RANGE
    drift_ok, drift_margins = config.drift.check_dissipativity()
    rec.extra = {
        "dissipation_inequality_holds": ok,
        "worst_margin": float(worst_margin),
        "worst_pair": worst_pair,
        "sigma_l2sq": sigma_sq,
        "smallest_C4": float(c4),
        "u0_l4": float(u0_l4),
        "drift_dissipativity": {"holds": drift_ok, **drift_margins},
    }
    return rec


# ---------------------------------------------------------------------------
# synchronization by noise (shared-noise pairs)
# ---------------------------------------------------------------------------

def synchronization_experiment(config: SpdeConfig, x: Field,
                               y: Field) -> ExperimentRecord:
    """Mean capped L2 distance between shared-noise ensembles from x and y
    at about SYNC_RECORD_TIMES times, each with the CLT interval of the
    per-path distances (i.i.d. across paths) clipped to [0, 1], their
    range, and a log-linear rate fit."""
    n_paths = config.n_paths
    rec = ExperimentRecord(name="sync", config=asdict(config))
    if np.array_equal(x.values, y.values):
        rec.extra = {"verdict": "trivially-synchronized"}
        rec.add_stat(0.0, "sync_l2_capped", 0.0, 0.0, 0.0)
        return rec
    Ux = np.broadcast_to(x.values, (n_paths, config.N)).copy()
    Uy = np.broadcast_to(y.values, (n_paths, config.N)).copy()
    distances = integrate(config, (Ux, Uy),
                          _record_grid(config, SYNC_RECORD_TIMES),
                          lambda ensembles: _capped_distance(*ensembles))
    times = [k * config.dt for k in distances]
    means = []
    for t, dists in zip(times, distances.values()):
        m, _, lo, hi = _mean_ci(dists)
        means.append(m)
        rec.add_stat(t, "sync_l2_capped", m, max(lo, 0.0), min(hi, 1.0))
    fit = fit_exponential_rate(np.array(times), np.array(means),
                               burn_in_frac=0.25, r2_threshold=0.95)
    rec.add_fit("sync_rate", fit)
    rec.times = times
    rec.extra = {"verdict": bool(fit.verdict)}
    return rec


def _capped_distance(Ux, Uy) -> np.ndarray:
    """Per-path L2 distance between paired ensembles, capped at 1."""
    return np.minimum(np.sqrt(l2_sq(Ux - Uy)), 1.0)


# ---------------------------------------------------------------------------
# ergodicity: mutual Wasserstein decay of independent ensembles
# ---------------------------------------------------------------------------

def ergodicity_experiment(config: SpdeConfig, x: Field, y: Field, time_grid,
                          extra_x_times) -> ExperimentRecord:
    """Empirical coupling distance (capped L2 cost) between the x- and
    y-ensembles (driven by independent noise) at each grid time, with a
    log-linear rate fit.

    Each W row's CI is `transport.wasserstein_empirical`'s closed form
    W_n +- sqrt(ln 40 / n) in [0, 1]: it covers E W_n, which lies above W
    by the sampling floor, with probability at least 95 %.

    `extra_x_times` lets the x-ensemble run further for the stationarity
    self-check (distance between x-ensemble snapshots at the last grid
    time and each extra time, against a permutation null at 2 SD), so each
    extra time must come after the last grid time (else a ConfigError).  Each
    check's `bootstrap_se` holds the permutation null's SD; the key keeps
    its old name because the benchmark reads it.  Every assignment of the
    run is one `transport.assignment_batch`, so the record's bits do not
    depend on how many CPUs solve it.

    Every grid and extra time must be a step of dt, the x-ensemble's
    horizon, the last of them, must be the config's T, and the
    y-ensemble's seed, seed + 1, must be a seed (else a ConfigError)."""
    n_paths = config.n_paths
    # too many paths for the exact assignment: refused before the first step
    if n_paths > transport.EXACT_SUPPORT_LIMIT:
        raise transport.TooLarge(f"{n_paths} paths for the exact assignment")
    time_grid = [float(t) for t in time_grid]
    extra_x_times = [float(t) for t in extra_x_times]
    grid_steps = [config.step_of(t, "time_grid") for t in time_grid]
    extra_steps = [config.step_of(t, "extra_x_times") for t in extra_x_times]
    if extra_steps and min(extra_steps) <= max(grid_steps):
        raise ConfigError(f"field 'extra_x_times': every time must come "
                          f"after the last grid time, {max(time_grid)!r}, "
                          f"not {min(extra_x_times)!r}")
    if config.n_steps != max(grid_steps + extra_steps):
        raise ConfigError(f"field 'T': must be the last grid or extra time, "
                          f"{max(time_grid + extra_x_times)!r}, not "
                          f"{config.T!r}")
    if config.seed == SEED_MAX:
        raise ConfigError(f"field 'seed': the y-ensemble runs on seed + 1, "
                          f"so seed must be below {SEED_MAX}")
    snaps_x = simulate(config, x, sorted(set(time_grid + extra_x_times)))
    snaps_y = simulate(replace(config, seed=config.seed + 1), y, time_grid)
    # every assignment of the run in one batch: the grid W's, then for each
    # extra time the observed distance and its permutation null, both from
    # one cost matrix over the pooled ensembles (its cross block and its
    # re-splits)
    jobs = [functools.partial(transport.empirical_w, snaps_x[t], snaps_y[t])
            for t in time_grid]
    t_last = max(time_grid)
    rng = np.random.default_rng(config.seed + 20_000)
    for t_ex in extra_x_times:
        pool = np.concatenate([snaps_x[t_last], snaps_x[t_ex]])
        cmat = transport.pairwise_cost(pool, pool)
        jobs.append(functools.partial(transport.assignment_value,
                                      cmat[:n_paths, n_paths:]))
        jobs += _permutation_null(cmat, rng)
    results = transport.assignment_batch(jobs, len(jobs) * n_paths ** 2)
    rec = ExperimentRecord(name="ergodicity", config=asdict(config),
                           times=time_grid)
    values = []
    for t, res in zip(time_grid, results):
        values.append(res.value)
        rec.add_stat(t, "w_l2_capped", res.value, res.ci_low, res.ci_high)
    # the empirical coupling distance between finite same-law ensembles has
    # a positive sampling floor, which contaminates late grid times; the
    # rate is therefore fitted over the whole grid (no burn-in), where the
    # genuine early decay dominates
    fit = fit_exponential_rate(np.array(time_grid), np.array(values),
                               burn_in_frac=0.0, r2_threshold=0.0)
    rec.add_fit("w_rate", fit)
    rec.extra = {"verdict": bool(fit.rate > 0)}
    if extra_x_times:
        checks = []
        per_time = 1 + NULL_RESAMPLES
        for i, t_ex in enumerate(extra_x_times):
            lo = len(time_grid) + i * per_time
            w, null = results[lo], np.array(results[lo + 1:lo + per_time])
            # under stationarity the observed distance is a draw from the
            # null, which carries the same sampling floor
            null_mean, null_se = float(null.mean()), float(null.std(ddof=1))
            checks.append({"t_ref": t_last, "t_other": t_ex,
                           "w": w, "null_mean": null_mean,
                           "bootstrap_se": null_se,
                           "below_2se": bool(w - null_mean < 2.0 * null_se)})
            rec.add_stat(t_ex, "w_stationarity_l2_capped", w,
                         null_mean - 2 * null_se, null_mean + 2 * null_se)
        rec.extra["stationarity"] = checks
    return rec


def _permutation_null(cmat, rng) -> list:
    """The jobs of the exchangeability null of a pooled ensemble, given the
    pool's (2n x 2n) cost matrix: NULL_RESAMPLES random re-splits, drawn
    here from `rng` in order, each solved by a job as the empirical
    coupling distance between its two halves."""
    n = len(cmat) // 2
    perms = [rng.permutation(len(cmat)) for _ in range(NULL_RESAMPLES)]
    return [functools.partial(transport.resplit_value, cmat, perm[:n],
                              perm[n:]) for perm in perms]


# ---------------------------------------------------------------------------
# swap probabilities (signed half-space hits at time 1)
# ---------------------------------------------------------------------------

def swap_probability_estimate(config: SpdeConfig,
                              x: Field) -> ExperimentRecord:
    T, n_paths = config.T, config.n_paths
    U = simulate(config, x, [T])[T]
    below = np.all(U <= 0.0, axis=1)
    above = np.all(U >= 0.0, axis=1)
    rec = ExperimentRecord(name="swap", config=asdict(config),
                           times=[T])
    out = {}
    for name, ev in (("p_below_zero", below), ("p_above_zero", above)):
        p = float(ev.mean())
        se = math.sqrt(max(p * (1 - p), 1.0 / n_paths) / n_paths)
        rec.add_stat(T, name, p, max(0.0, p - 1.96 * se),
                     min(1.0, p + 1.96 * se))
        out[name] = p
        out[name + "_se"] = se
    rec.extra = out
    return rec


# ---------------------------------------------------------------------------
# constants-set obstruction
# ---------------------------------------------------------------------------

def constants_obstruction_demo(config: SpdeConfig, x_nonconst: Field,
                               x_const: Field) -> ExperimentRecord:
    T = config.T
    rec = ExperimentRecord(name="constants_demo",
                           config=asdict(config), times=[T])
    out = {}
    for tag, u0 in (("const", x_const), ("nonconst", x_nonconst)):
        U = simulate(config, u0, [T])[T]
        ranges = U.max(axis=1) - U.min(axis=1)
        frac = float((ranges < RANGE_TOL).mean())
        out[f"fraction_constant_{tag}"] = frac
        out[f"min_range_{tag}"] = float(ranges.min())
        out[f"max_range_{tag}"] = float(ranges.max())
        rec.add_stat(T, f"fraction_constant_{tag}", frac)
        rec.add_stat(T, f"min_range_{tag}", float(ranges.min()))
    # total variation between the is-constant indicator laws of the two
    # ensembles (1 when the supports are disjoint)
    p1 = out["fraction_constant_const"]
    p2 = out["fraction_constant_nonconst"]
    out["indicator_tv"] = abs(p1 - p2)
    rec.extra = out
    return rec

