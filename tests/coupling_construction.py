"""The paper's three-element coupling construction on a finite ordered
chain, for the tests: its Monte-Carlo run, its exact probability, and the
domination-time tails of independent copies.

A driver copy starts at y.  A lower copy starts at x, runs independently
until it first sits below the driver and is then carried along below it
by a monotone coupling of the two rows; an upper copy with the law of the
lower one latches above the driver the same way.  Once ordered, a pair
stays ordered, so P(Z^x <= Z^y <= Ztilde^x at t) is at least the
union bound 1 - P(tau_xy > t) - P(tau_yx > t) of the domination times.
"""

import numpy as np

from monotone_ergo.posets import Coupling, Distribution, strassen_coupling


def domination_time_tail(kernel, poset, x, y, horizon):
    """P(tau > t) for tau = first time independent copies from x and y
    are ordered (copy-from-x below copy-from-y), t = 0..horizon."""
    leq = poset.leq
    tails = np.zeros(horizon + 1)
    if leq[x, y]:
        return tails
    mass = np.zeros((kernel.n, kernel.n))
    mass[x, y] = 1.0
    tails[0] = 1.0
    for t in range(1, horizon + 1):
        mass = kernel.P.T @ mass @ kernel.P
        mass[leq] = 0.0  # absorbed on the ordered set
        tails[t] = mass.sum()
    return tails


def conditional_cubes(kernel, poset):
    """Conditional step laws of the latched copies.

    below[a, b, b', x'] = P(lower copy steps to x' | lower at a <= driver
    at b, driver steps to b'), from a monotone coupling of rows a and b;
    above[c, b, b', x'] is the same for an upper copy at c >= b.  Slots of
    unordered pairs keep the plain row.
    """
    P, leq = kernel.P, poset.leq
    below = np.tile(P[:, None, None, :], (1, kernel.n, kernel.n, 1))
    above = below.copy()
    for a, b in zip(*np.nonzero(leq)):
        plan = strassen_coupling(Distribution(P[a]), Distribution(P[b]),
                                 poset)
        assert isinstance(plan, Coupling), "kernel is not order-preserving"
        m = plan.plan  # rows: lower successor, columns: upper successor
        for bp in np.flatnonzero(P[b]):
            below[a, b, bp] = m[:, bp] / P[b, bp]
        for ap in np.flatnonzero(P[a]):
            above[b, a, ap] = m[ap] / P[a, ap]
    return below, above


def _sample_rows(rows, u):
    cdf = np.cumsum(rows, axis=1)
    cdf[:, -1] = 1.0
    return (cdf < u[:, None]).sum(axis=1)


def simulate(kernel, poset, x, y, t, n_paths, rng):
    """Final states (lower copy, driver, upper copy) of `n_paths` runs of
    the construction to time t."""
    P, leq = kernel.P, poset.leq
    below, above = conditional_cubes(kernel, poset)
    zx, zy, zxt = (np.full(n_paths, s) for s in (x, y, x))
    lat1 = np.full(n_paths, leq[x, y])
    lat2 = np.full(n_paths, leq[y, x])
    for _ in range(t):
        u = rng.random((3, n_paths))
        zy2 = _sample_rows(P[zy], u[0])
        zx = _sample_rows(np.where(lat1[:, None], below[zx, zy, zy2], P[zx]),
                          u[1])
        zxt = _sample_rows(
            np.where(lat2[:, None], above[zxt, zy, zy2], P[zxt]), u[2])
        zy = zy2
        lat1 |= leq[zx, zy]
        lat2 |= leq[zy, zxt]
    return zx, zy, zxt


def triple_order_exact(kernel, poset, x, y, t):
    """Exact P(Z^x <= Z^y <= Ztilde^x) at time t for `simulate`'s
    construction, by pushing the joint law of (states, latch flags)
    through the chain."""
    n, P = kernel.n, kernel.P
    leq = poset.leq.astype(float)
    below, above = conditional_cubes(kernel, poset)
    plain = np.tile(P[:, None, None, :], (1, n, n, 1))
    ind1 = leq[:, :, None] * np.ones((1, 1, n))        # [p, q, r]: p <= q
    ind2 = np.ones((n, 1, 1)) * leq[None, :, :]        # [p, q, r]: q <= r
    # w[a, b, c, l1, l2]: states of (lower, driver, upper) and latch flags
    w = np.zeros((n, n, n, 2, 2))
    w[x, y, x, int(poset.leq[x, y]), int(poset.leq[y, x])] = 1.0
    for _ in range(t):
        w2 = np.zeros_like(w)
        for l1 in (0, 1):
            for l2 in (0, 1):
                joint = np.einsum("abc,bq,abqp,cbqr->pqr",
                                  w[:, :, :, l1, l2], P,
                                  below if l1 else plain,
                                  above if l2 else plain, optimize=True)
                f1 = np.ones_like(ind1) if l1 else ind1
                f2 = np.ones_like(ind2) if l2 else ind2
                w2[:, :, :, 1, 1] += joint * f1 * f2
                if not l1:
                    w2[:, :, :, 0, 1] += joint * (1 - f1) * f2
                if not l2:
                    w2[:, :, :, 1, 0] += joint * f1 * (1 - f2)
                if not l1 and not l2:
                    w2[:, :, :, 0, 0] += joint * (1 - f1) * (1 - f2)
        w = w2
    return float(w[:, :, :, 1, 1].sum())
