"""Poset axioms, up-set enumeration, stochastic domination (dual routes),
and monotone couplings."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (marginal_error, pushed_up, random_dist, random_poset,
                      upsets)
from monotone_ergo import transport
from monotone_ergo.posets import (MARGINAL_TOL, UPSET_ENUM_LIMIT, Coupling,
                                  Distribution, FinitePoset, Infeasible,
                                  NotAntisymmetric, NotReflexive,
                                  NotTransitive, TooLarge,
                                  _upset_masks, antichain_poset, chain_poset,
                                  max_flow_bipartite, stochastically_dominates,
                                  strassen_coupling, validate_poset,
                                  violating_upset)


def is_monotone(f, poset: FinitePoset) -> bool:
    f = np.asarray(f, dtype=float)
    ii, jj = np.nonzero(poset.leq)
    return bool(np.all(f[ii] <= f[jj] + 1e-15))


def upset_masks_by_filter(poset: FinitePoset) -> np.ndarray:
    """Oracle: every one of the 2^n subset masks that equals its own
    up-closure, in ascending order."""
    n = poset.n
    uprows = np.array(
        [sum(1 << j for j in np.nonzero(poset.leq[i])[0]) for i in range(n)],
        dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    closure = np.zeros_like(masks)
    for i in range(n):
        closure |= np.where(masks & (1 << i), uprows[i], 0)
    return masks[closure == masks]


class TestValidation:
    def test_chain_valid(self):
        p = chain_poset(4)
        assert p.n == 4
        assert p.leq[0, 3] and not p.leq[3, 0]

    # a poset is its relation: leq is its one field, and n its size
    def test_size_is_the_relations(self):
        assert [f.name for f in dataclasses.fields(FinitePoset)] == ["leq"]
        for p in (chain_poset(4), antichain_poset(3),
                  validate_poset(np.eye(5)),
                  FinitePoset.from_json_obj({"leq": [[1, 0], [0, 1]]})):
            assert p.n == len(p.leq)
        with pytest.raises(TypeError):
            FinitePoset(n=3, leq=np.eye(5, dtype=bool))

    def test_not_reflexive(self):
        leq = np.eye(3, dtype=bool)
        leq[1, 1] = False
        with pytest.raises(NotReflexive) as exc:
            validate_poset(leq)
        assert exc.value.i == 1

    def test_not_antisymmetric(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 0] = True
        with pytest.raises(NotAntisymmetric):
            validate_poset(leq)

    def test_not_transitive(self):
        leq = np.eye(3, dtype=bool)
        leq[0, 1] = leq[1, 2] = True  # missing 0 <= 2
        with pytest.raises(NotTransitive) as exc:
            validate_poset(leq)
        assert (exc.value.i, exc.value.j, exc.value.k) == (0, 1, 2)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])
        with pytest.raises(ValueError):
            Distribution([1.2, -0.2])
        with pytest.raises(ValueError, match="NaN"):
            Distribution([np.nan, 0.5, 0.5])


class TestUpsets:
    def test_chain_count(self):
        # a total order on n elements has exactly n+1 up-sets
        for n in range(1, 6):
            assert len(upsets(chain_poset(n))) == n + 1

    def test_antichain_count(self):
        # the trivial order makes every subset an up-set
        for n in range(1, 6):
            assert len(upsets(antichain_poset(n))) == 2 ** n

    def test_upsets_are_upward_closed(self, rng):
        p = random_poset(rng, 6)
        for U in upsets(p):
            assert p.up_closure(U) == U

    def test_enumeration_guard(self):
        with pytest.raises(TooLarge):
            upsets(antichain_poset(25))

    def test_matches_subset_filter_on_random_orders(self):
        rng = np.random.default_rng(2024)
        for n in list(range(1, 13)) * 10:
            p = random_poset(rng, n)
            assert np.array_equal(_upset_masks(p), upset_masks_by_filter(p))

    def test_matches_subset_filter_on_chains_and_antichains(self):
        for n in range(14):
            for p in (chain_poset(n), antichain_poset(n)):
                masks = _upset_masks(p)
                assert masks.dtype == np.int64
                assert np.array_equal(masks, upset_masks_by_filter(p))


class TestDomination:
    def test_chain_shift(self):
        p = chain_poset(3)
        lo = Distribution([0.6, 0.3, 0.1])
        hi = Distribution([0.1, 0.3, 0.6])
        assert stochastically_dominates(lo, hi, p)
        assert not stochastically_dominates(hi, lo, p)

    def test_witness_upset_violates(self, rng):
        p = chain_poset(3)
        lo = Distribution([0.6, 0.3, 0.1])
        hi = Distribution([0.1, 0.3, 0.6])
        U = violating_upset(hi, lo, p)
        assert U is not None
        mu = sum(hi.p[i] for i in U)
        nu = sum(lo.p[i] for i in U)
        assert mu > nu

    def test_orders_above_the_guard_use_max_flow(self):
        # on a chain the up-sets are the tails {k, ..., n-1}, so mu is
        # dominated by nu iff every tail sum of mu is at most nu's
        n = UPSET_ENUM_LIMIT + 6
        p = chain_poset(n)
        with pytest.raises(TooLarge):
            _upset_masks(p)
        rng = np.random.default_rng(5)
        lo = np.sort(rng.random(n))[::-1]
        pairs = [(lo / lo.sum(), lo[::-1] / lo.sum())]
        pairs += [(random_dist(rng, n).p, random_dist(rng, n).p)
                  for _ in range(4)]
        for a, b in pairs:
            for mu, nu in ((Distribution(a), Distribution(b)),
                           (Distribution(b), Distribution(a))):
                tails = np.cumsum((mu.p - nu.p)[::-1])[::-1]
                dominated = stochastically_dominates(mu, nu, p)
                assert dominated == bool(tails.max() <= 1e-12)
                assert dominated == isinstance(
                    strassen_coupling(mu, nu, p), Coupling)
                U = violating_upset(mu, nu, p)
                assert (U is None) == dominated
                if U is not None:
                    assert p.up_closure(U) == U
                    assert mu.p[sorted(U)].sum() > nu.p[sorted(U)].sum()

    def test_antichain_only_equal(self):
        p = antichain_poset(3)
        a = Distribution([0.2, 0.3, 0.5])
        b = Distribution([0.3, 0.3, 0.4])
        assert stochastically_dominates(a, a, p)
        assert not stochastically_dominates(a, b, p)


def dist_with_zeros(rng: np.random.Generator, n: int) -> Distribution:
    """A random distribution with about half of its masses zero."""
    p = (rng.random(n) + 1e-3) * (rng.random(n) < 0.5)
    p[rng.integers(n)] = 1.0
    return Distribution(p / p.sum())


class TestStrassen:
    def test_feasible_coupling_contract(self, rng):
        p = chain_poset(4)
        lo = Distribution([0.4, 0.3, 0.2, 0.1])
        hi = Distribution([0.1, 0.2, 0.3, 0.4])
        cpl = strassen_coupling(lo, hi, p)
        assert isinstance(cpl, Coupling)
        assert marginal_error(cpl, lo, hi) < 1e-10
        assert np.all(cpl.plan[~p.leq] <= 1e-12)  # support inside the order

    def test_infeasible_certificate(self):
        p = chain_poset(3)
        lo = Distribution([0.6, 0.3, 0.1])
        hi = Distribution([0.1, 0.3, 0.6])
        res = strassen_coupling(hi, lo, p)
        assert isinstance(res, Infeasible)
        assert res.mu_mass > res.nu_mass
        assert p.up_closure(res.witness_upset) == res.witness_upset

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 18))
    def test_dual_route_agreement(self, seed, n):
        # Strassen (simplex) feasibility must agree with the up-set
        # enumeration oracle on random posets, for a random pair and for
        # a pushed-up pair, which is dominated; a coupling stays on the
        # order with its marginals
        rng = np.random.default_rng(seed)
        poset = random_poset(rng, n)
        mu = random_dist(rng, n)
        for nu, pushed in ((random_dist(rng, n), False),
                           (pushed_up(rng, mu, poset), True)):
            masks_ok = stochastically_dominates(mu, nu, poset)
            res = strassen_coupling(mu, nu, poset)
            assert masks_ok == isinstance(res, Coupling)
            assert masks_ok or not pushed
            if masks_ok:
                assert marginal_error(res, mu, nu) < MARGINAL_TOL
                assert np.all(res.plan >= 0.0)
                assert np.all(res.plan[~poset.leq] == 0.0)

    def test_certificate_is_a_minimum_cut(self):
        # max-flow equals min-cut: the witness falls short by exactly the
        # flow that could not be sent, the largest up-set violation; a
        # pushed-up pair sends all its mass.  The pair with zero masses
        # has rows without a simplex potential, which the witness skips
        rng = np.random.default_rng(11)
        infeasible = 0
        for _ in range(60):
            n = int(rng.integers(2, 19))
            poset = random_poset(rng, n)
            first = random_dist(rng, n)
            for mu, nu in ((first, random_dist(rng, n)),
                           (first, pushed_up(rng, first, poset)),
                           (dist_with_zeros(rng, n),
                            dist_with_zeros(rng, n))):
                _, value, _ = max_flow_bipartite(mu.p, nu.p, poset.leq)
                res = strassen_coupling(mu, nu, poset)
                if isinstance(res, Coupling):
                    assert value == pytest.approx(1.0, abs=MARGINAL_TOL)
                    continue
                infeasible += 1
                U = sorted(violating_upset(mu, nu, poset))
                largest = mu.p[U].sum() - nu.p[U].sum()
                assert res.mu_mass - res.nu_mass == pytest.approx(
                    1.0 - value, abs=1e-9)
                assert res.mu_mass - res.nu_mass == pytest.approx(
                    largest, abs=1e-9)
        assert infeasible >= 20

    def test_a_simplex_stopped_at_its_cap_raises(self, monkeypatch):
        # a coupling read off a simplex that did not reach its optimum
        # could be a wrong verdict, so neither branch may return one
        solve = transport.wasserstein_exact
        monkeypatch.setattr(transport, "wasserstein_exact", lambda *args:
                            dataclasses.replace(solve(*args),
                                                converged=False))
        p = chain_poset(3)
        lo = Distribution([0.6, 0.3, 0.1])
        hi = Distribution([0.1, 0.3, 0.6])
        for mu, nu in ((lo, hi), (hi, lo)):
            with pytest.raises(transport.NotConverged):
                strassen_coupling(mu, nu, p)


class TestMonotone:
    def test_is_monotone(self):
        p = chain_poset(4)
        assert is_monotone([0.0, 1.0, 1.0, 2.0], p)
        assert not is_monotone([0.0, 2.0, 1.0, 3.0], p)

    def test_antichain_everything_monotone(self, rng):
        p = antichain_poset(5)
        assert is_monotone(rng.random(5), p)
