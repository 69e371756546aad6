"""Finite partial orders, monotone functions, stochastic domination and
monotone (Strassen) couplings.

A finite poset is stored as a dense boolean relation matrix.  Stochastic
domination between two distributions is characterised either by up-set
enumeration (mu(U) <= nu(U) for every upward-closed U) or, equivalently,
by feasibility of a transport plan supported on the graph of the order;
the two routes serve as independent cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxflow import max_flow_bipartite

UPSET_ENUM_LIMIT = 24
DOMINATION_TOL = 1e-12
MARGINAL_TOL = 1e-10


class PosetError(ValueError):
    pass


class NotReflexive(PosetError):
    def __init__(self, i):
        self.i = i
        super().__init__(f"relation not reflexive at element {i}")


class NotAntisymmetric(PosetError):
    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"relation not antisymmetric at pair ({i}, {j})")


class NotTransitive(PosetError):
    def __init__(self, i, j, k):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"relation not transitive at triple ({i}, {j}, {k})")


class TooLarge(PosetError):
    def __init__(self, n, limit):
        self.n = n
        super().__init__(f"size {n} exceeds enumeration guard {limit}")


@dataclass(frozen=True)
class FinitePoset:
    n: int
    leq: np.ndarray  # boolean n x n, leq[i, j] <=> i precedes j

    def __post_init__(self):
        object.__setattr__(self, "leq", np.asarray(self.leq, dtype=bool))
        self.leq.setflags(write=False)

    def comparable_pairs(self):
        """All ordered pairs (i, j) with i <= j and i != j."""
        ii, jj = np.nonzero(self.leq & ~np.eye(self.n, dtype=bool))
        return list(zip(ii.tolist(), jj.tolist()))

    def up_closure(self, subset) -> frozenset:
        idx = list(subset)
        if not idx:
            return frozenset()
        mask = self.leq[idx, :].any(axis=0)
        return frozenset(np.nonzero(mask)[0].tolist())

    @staticmethod
    def from_json_obj(obj) -> "FinitePoset":
        return validate_poset(np.asarray(obj["leq"], dtype=bool))


@dataclass(frozen=True)
class Distribution:
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        # written as "not (holds)", so that a NaN entry fails each check
        if not np.all(p >= 0):
            raise ValueError("negative or NaN probability entry")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "p", p)
        self.p.setflags(write=False)


@dataclass(frozen=True)
class Coupling:
    plan: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "plan", np.asarray(self.plan, dtype=float))
        self.plan.setflags(write=False)


@dataclass(frozen=True)
class Infeasible:
    """Certified negative answer: a witness up-set U with mu(U) > nu(U)."""
    witness_upset: frozenset
    mu_mass: float
    nu_mass: float


def validate_poset(leq) -> FinitePoset:
    leq = np.asarray(leq)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        raise PosetError("relation matrix must be square")
    leq = leq.astype(bool)
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        raise NotReflexive(int(np.nonzero(~diag)[0][0]))
    both = leq & leq.T & ~np.eye(n, dtype=bool)
    if both.any():
        i, j = np.argwhere(both)[0]
        raise NotAntisymmetric(int(i), int(j))
    # transitive closure check: leq @ leq must not reach outside leq
    reach = leq @ leq
    bad = reach & ~leq
    if bad.any():
        i, k = np.argwhere(bad)[0]
        j = int(np.nonzero(leq[i] & leq[:, k])[0][0])
        raise NotTransitive(int(i), j, int(k))
    return FinitePoset(n=n, leq=leq)


def _upset_masks(poset: FinitePoset) -> np.ndarray:
    """Bitmasks of all upward-closed subsets (ascending order).

    Built top-down: the elements are visited by ascending up-set size, so
    every strict successor of i is visited before i, and the masks so far
    are the up-sets of the visited elements.  Each one that holds all of
    i's strict successors stays an up-set with i added.  The cost is
    proportional to the number of up-sets, not to 2^n.
    """
    n = poset.n
    if n > UPSET_ENUM_LIMIT:
        raise TooLarge(n, UPSET_ENUM_LIMIT)
    leq = poset.leq
    masks = np.zeros(1, dtype=np.int64)
    for i in np.argsort(leq.sum(axis=1), kind="stable").tolist():
        above = sum(1 << j for j in np.flatnonzero(leq[i]).tolist() if j != i)
        masks = np.concatenate([masks, masks[masks & above == above] | 1 << i])
    return np.sort(masks)


def _mask_sums(masks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    sums = np.zeros(len(masks))
    for i, w in enumerate(weights):
        sums += np.where(masks >> i & 1, w, 0.0)
    return sums


def stochastically_dominates(mu: Distribution, nu: Distribution,
                             poset: FinitePoset) -> bool:
    """True iff mu(U) <= nu(U) for every up-set U (mu below nu)."""
    return violating_upset(mu, nu, poset) is None


def violating_upset(mu: Distribution, nu: Distribution,
                    poset: FinitePoset) -> frozenset | None:
    """A maximally violating up-set, or None if mu is dominated by nu.

    Orders larger than UPSET_ENUM_LIMIT take it from max-flow's min cut.
    """
    if poset.n > UPSET_ENUM_LIMIT:
        res = strassen_coupling(mu, nu, poset)
        return res.witness_upset if isinstance(res, Infeasible) else None
    masks = _upset_masks(poset)
    gap = _mask_sums(masks, mu.p) - _mask_sums(masks, nu.p)
    k = int(np.argmax(gap))
    if gap[k] <= DOMINATION_TOL:
        return None
    mask = int(masks[k])
    return frozenset(i for i in range(poset.n) if mask >> i & 1)


def strassen_coupling(mu: Distribution, nu: Distribution,
                      poset: FinitePoset):
    """Monotone coupling of mu below nu, or a certified Infeasible.

    Feasibility is decided by max-flow on the bipartite graph whose middle
    arcs follow the order relation; on infeasibility the source side of a
    min cut yields a violating up-set witness.
    """
    n = poset.n
    flow, value, source_side = max_flow_bipartite(mu.p, nu.p, poset.leq)
    if value >= 1.0 - MARGINAL_TOL:
        plan = flow.copy()
        # polish the tiny max-flow residual so marginals are exact
        deficit_r = mu.p - plan.sum(axis=1)
        deficit_c = nu.p - plan.sum(axis=0)
        if deficit_r.max() > 0 and deficit_c.max() > 0:
            for i in np.nonzero(deficit_r > 0)[0]:
                for j in np.nonzero(poset.leq[i])[0]:
                    move = min(deficit_r[i], max(deficit_c[j], 0.0))
                    if move > 0:
                        plan[i, j] += move
                        deficit_r[i] -= move
                        deficit_c[j] -= move
        return Coupling(plan)
    witness = poset.up_closure(source_side)
    mu_mass = float(mu.p[list(witness)].sum()) if witness else 0.0
    nu_mass = float(nu.p[list(witness)].sum()) if witness else 0.0
    return Infeasible(witness_upset=witness, mu_mass=mu_mass, nu_mass=nu_mass)


def chain_poset(n: int) -> FinitePoset:
    """Total order 0 <= 1 <= ... <= n-1."""
    idx = np.arange(n)
    return FinitePoset(n=n, leq=idx[:, None] <= idx[None, :])


def antichain_poset(n: int) -> FinitePoset:
    """Trivial order: comparable only to itself."""
    return FinitePoset(n=n, leq=np.eye(n, dtype=bool))
