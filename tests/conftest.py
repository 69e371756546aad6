import os

import numpy as np
import pytest

from monotone_ergo import shards
from monotone_ergo.posets import Distribution, FinitePoset, validate_poset


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


def random_dist(rng: np.random.Generator, n: int) -> Distribution:
    p = rng.random(n) + 1e-3
    return Distribution(p / p.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def set_usable_cpus(monkeypatch, count):
    """Make `shards.usable_cpus`, the worker count of the parallel layers,
    report `count`."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    assert shards.usable_cpus() == count
