import os
from dataclasses import replace

import numpy as np
import pytest

from monotone_ergo import shards
from monotone_ergo.posets import (Distribution, FinitePoset, _upset_masks,
                                  validate_poset)
from monotone_ergo.spde import integrate


def random_poset(rng: np.random.Generator, n: int) -> FinitePoset:
    """Random partial order: transitive closure of a random DAG on a
    random permutation of [n]."""
    perm = rng.permutation(n)
    leq = np.eye(n, dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.35:
                leq[perm[a], perm[b]] = True
    # transitive closure (Floyd-Warshall on booleans)
    for k in range(n):
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return validate_poset(leq)


def upsets(poset: FinitePoset) -> list[frozenset]:
    """Every up-set of `poset`, each as a frozenset of its elements."""
    return [frozenset(i for i in range(poset.n) if mask >> i & 1)
            for mask in _upset_masks(poset)]


def random_dist(rng: np.random.Generator, n: int) -> Distribution:
    p = rng.random(n) + 1e-3
    return Distribution(p / p.sum())


def pushed_up(rng: np.random.Generator, mu: Distribution,
              poset: FinitePoset) -> Distribution:
    """mu pushed through a random kernel supported on the order, so that
    mu is dominated by the result: for an up-set U and i in U every
    successor of i lies in U, so nu(U) = sum_i mu_i K(i, U) >= mu(U)."""
    K = rng.random((poset.n, poset.n)) * poset.leq
    K /= K.sum(axis=1, keepdims=True)
    nu = mu.p @ K
    return Distribution(nu / nu.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def set_usable_cpus(monkeypatch, count):
    """Make `shards.usable_cpus`, the worker count of the parallel layers,
    report `count`."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    assert shards.usable_cpus() == count


def series(record, stat: str):
    """(times, values) of the rows of `record.statistics` named `stat`, in
    the order they were added."""
    rows = [r for r in record.statistics if r["stat"] == stat]
    return (np.array([r["t"] for r in rows]),
            np.array([r["value"] for r in rows]))


def abs_cost(xs, ys) -> np.ndarray:
    """The |x - y| cost matrix between two 1-D sample arrays, as the square
    root of the squared differences."""
    return np.sqrt((xs[:, None] - ys[None, :]) ** 2)


def marginal_error(coupling, mu: Distribution, nu: Distribution) -> float:
    """Largest gap between a coupling's row and column sums and the
    masses of mu and nu."""
    return max(np.abs(coupling.plan.sum(axis=1) - mu.p).max(),
               np.abs(coupling.plan.sum(axis=0) - nu.p).max())


def comparison_check(config, x, y, T: float, n_paths: int) -> float:
    """Largest pointwise order violation (u_x - u_y)+ of `n_paths`
    shared-noise pairs started from the Fields x and y, over every step to
    time T and every grid point."""
    cfg = replace(config, T=T, n_paths=n_paths)
    worst = integrate(
        cfg, (np.broadcast_to(x.values, (n_paths, cfg.N)).copy(),
              np.broadcast_to(y.values, (n_paths, cfg.N)).copy()),
        range(1, cfg.n_steps + 1),
        lambda ensembles: (ensembles[0] - ensembles[1]).max(axis=1))
    return max([0.0, *(float(v.max()) for v in worst.values())])
