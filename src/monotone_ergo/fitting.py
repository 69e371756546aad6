"""Exponential-rate fitting: ordinary least squares on log-values."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12
# points a passing fit keeps: a line through two points fits with R^2 = 1
MIN_FIT_POINTS = 3


@dataclass
class RateFit:
    C: float          # fitted prefactor, series ~ C * exp(-rate * t)
    rate: float       # decay rate (positive means decay)
    r_squared: float
    n_points: int
    verdict: bool     # MIN_FIT_POINTS kept, rate > 0 and R^2 gate met


def fit_exponential_rate(times, values, burn_in_frac: float,
                         r2_threshold: float) -> RateFit:
    """OLS fit of log(values) ~ log C - rate * t over t >= burn_in.

    Points with value <= LOG_FLOOR are dropped to avoid log underflow.
    A fit that keeps fewer than MIN_FIT_POINTS points reports its C, rate
    and R^2 but does not pass.
    """
    t = np.asarray(times, dtype=float)
    w = np.asarray(values, dtype=float)
    t_min = t.min() + burn_in_frac * (t.max() - t.min())
    keep = (t >= t_min - 1e-12) & (w > LOG_FLOOR)
    t_used, w_used = t[keep], w[keep]
    if len(t_used) < 2:
        return RateFit(C=float("nan"), rate=float("nan"), r_squared=0.0,
                       n_points=len(t_used), verdict=False)
    y = np.log(w_used)
    A = np.vstack([np.ones_like(t_used), -t_used]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    logC, rate = coef
    resid = y - A @ coef
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 and ss_res < 1e-20 else (
        0.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot)
    verdict = bool(len(t_used) >= MIN_FIT_POINTS and rate > 0
                   and r2 >= r2_threshold)
    return RateFit(C=float(np.exp(logC)), rate=float(rate), r_squared=float(r2),
                   n_points=len(t_used), verdict=verdict)
