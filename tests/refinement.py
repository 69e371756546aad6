"""Time-step error of an SPDE configuration, measured on one Brownian
path: the refinement check of Higham ("An algorithmic introduction to
numerical simulation of stochastic differential equations", SIAM Rev.
43, 2001).

Inside `coarse_noise(r)`, step k of a run draws the fine steps
r (k - 1) + 1, ..., r k of the same seed, summed in that order and divided
by sqrt(r): a standard normal block that drives the Brownian increment
of those r fine steps.  `on_one_path(config, r, run)` runs a measurement
at the config's dt that way and at dt / r as usual, so the two differ by
the time-step error alone.

Run from the repository root to print, for the shipped sync and
ergodicity fixtures at their dt and at dt / 10, criterion 7's rate and
R^2, criterion 8's W rows and the largest pathwise gap at T:

    PYTHONPATH=src python tests/refinement.py [sync] [ergodicity]
"""

import math
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from monotone_ergo import cli, fixture_path, spde
from monotone_ergo.experiments import (ergodicity_experiment,
                                       synchronization_experiment)


@contextmanager
def coarse_noise(r: int):
    """Make every run draw, for its step k, the sum of the fine steps
    r (k - 1) + 1 .. r k divided by sqrt(r)."""
    fine = spde.noise_draws

    def draws(seed, k, n_paths, m):
        total = fine(seed, r * (k - 1) + 1, n_paths, m)
        for j in range(r * (k - 1) + 2, r * k + 1):
            total += fine(seed, j, n_paths, m)
        return total / math.sqrt(r)

    spde.noise_draws = draws
    try:
        yield
    finally:
        spde.noise_draws = fine


def on_one_path(config, r: int, run):
    """(run at config.dt, run at config.dt / r), both on the Brownian
    path of the fine run."""
    fine = run(replace(config, dt=config.dt / r))
    with coarse_noise(r):
        return run(config), fine


def field_gap(config, r: int, u0) -> float:
    """Largest |u_dt(T) - u_{dt/r}(T)| over the paths and grid points of
    an ensemble started from u0."""
    coarse, fine = on_one_path(
        config, r, lambda cfg: spde.simulate(cfg, u0, [cfg.T])[cfg.T])
    return float(np.abs(coarse - fine).max())


def _sync(r):
    config, kw = cli.read_spde(fixture_path("spde_sync.json"), "sync")
    recs = on_one_path(config, r, lambda cfg: synchronization_experiment(
        cfg, kw["x"], kw["y"]))
    for rec in recs:
        fit = rec.fits["sync_rate"]
        print(f"sync dt = {rec.config['dt']}: rate {fit['rate']:.4f}, "
              f"R^2 {fit['r_squared']:.4f}")
    print(f"sync T = {config.T}: largest pathwise gap, x "
          f"{field_gap(config, r, kw['x']):.3g}, y "
          f"{field_gap(config, r, kw['y']):.3g}")


def _ergodicity(r):
    config, kw = cli.read_spde(fixture_path("spde_ergodicity.json"),
                               "ergodicity")
    recs = on_one_path(config, r, lambda cfg: ergodicity_experiment(
        cfg, kw["x"], kw["y"], kw["time_grid"], kw["extra_x_times"]))
    for rec in recs:
        rows = [f"{s['t']:g}: {s['value']:.4f}" for s in rec.statistics
                if s["stat"] == "w_l2_capped"]
        check = rec.extra["stationarity"][0]
        print(f"ergodicity dt = {rec.config['dt']}: W {', '.join(rows)}; "
              f"rate {rec.fits['w_rate']['rate']:.4f}, R^2 "
              f"{rec.fits['w_rate']['r_squared']:.4f}; stationarity "
              f"w {check['w']:.4f}, null {check['null_mean']:.4f} "
              f"+- {check['bootstrap_se']:.4f}")
    # the y-ensemble runs on seed + 1 up to the last grid time
    y_config = replace(config, T=max(kw["time_grid"]), seed=config.seed + 1)
    print(f"ergodicity: largest pathwise gap, x at T = {config.T} "
          f"{field_gap(config, r, kw['x']):.3g}, y at {y_config.T:g} "
          f"{field_gap(y_config, r, kw['y']):.3g}")


if __name__ == "__main__":
    for name in sys.argv[1:] or ["sync", "ergodicity"]:
        {"sync": _sync, "ergodicity": _ergodicity}[name](10)
