"""Gallery cases: every claim must hold, with spot checks of the exact
values."""

from types import SimpleNamespace

import pytest

from monotone_ergo import gallery
from monotone_ergo.chains import ConditionReport


def claims(report):
    return {c["statement"]: c for c in report["claims"]}


class TestExample24:
    def test_all_claims_hold(self):
        rep = gallery.run_example_2_4()
        assert rep["all_hold"]

    def test_two_invariant_measures(self):
        rep = claims(gallery.run_example_2_4())
        assert rep["delta_0 is stationary"]["holds"]
        assert rep["delta_1 is stationary"]["holds"]

    def test_no_ordered_subset_pairs(self):
        rep = claims(gallery.run_example_2_4())
        c = rep["number of ordered distinct subset pairs (A, B)"]
        assert c["lhs"] == 0.0

    def test_moment_and_distance_claims_are_computed(self, monkeypatch):
        # a nonzero moment scan or a distance below 1 at some t must fail
        # the claims, so they read the computations, not constants
        monkeypatch.setattr(gallery, "moment_bound_M",
                            lambda kernel, phi: (phi + 0.5, False))
        monkeypatch.setattr(gallery, "wasserstein_exact",
                            lambda mu, nu, cost: SimpleNamespace(
                                value=float(mu @ cost.c @ nu) / 2))
        rep = claims(gallery.run_example_2_4())
        m = rep["M(x) = sup_t P_t phi^2(x) is 0"]
        w = rep["W_{d^1}(P_t delta_0, P_t delta_1), smallest over t <= 20"]
        assert (m["lhs"], w["lhs"]) == (0.5, 0.5)
        assert not m["holds"] and not w["holds"]


    def test_condition_claims_read_the_chain_checks(self, monkeypatch):
        # the order, drift and premetric claims are the verdicts of the
        # chains module's condition functions
        failed = ConditionReport("any", False)
        for name in ("check_order_preserving", "check_lyapunov",
                     "check_premetric_sandwich"):
            monkeypatch.setattr(gallery, name, lambda *a, **kw: failed)
        rep = gallery.run_example_2_4()
        assert [c["holds"] for c in rep["claims"][:3]] == [False] * 3


class TestExample32:
    def test_ratio_is_power_of_two(self):
        rep = gallery.run_example_3_2(10)
        assert rep["all_hold"]
        row = rep["table"][10]
        assert row["ratio"] == pytest.approx(1024.0, abs=1e-10)

    def test_largest_n_holds_exactly(self):
        # the last TV bound is 2^-1073, the float next to the smallest
        rep = gallery.run_example_3_2(gallery._EXAMPLE_3_2_MAX_N)
        assert rep["all_hold"]
        assert rep["table"][-1]["tv_bound"] == 2.0 ** -1073

    def test_dyadic_weights_n10(self):
        # p_n = 2^-(n+1): expected distance 2^-11, TV bound 2^-21
        rep = gallery.run_example_3_2(12)
        row = rep["table"][10]
        total = sum(2.0 ** -(i + 1) for i in range(13))
        assert row["expected_distance"] == pytest.approx(2.0 ** -11 / total)
        assert row["tv_bound"] == pytest.approx(2.0 ** -21 / total)


class TestExample35:
    @pytest.mark.parametrize("n,p_order", [(2, 0.5), (4, 0.75), (7, 6 / 7)])
    def test_order_probability(self, n, p_order):
        rep = gallery.run_example_3_5(n)
        assert rep["all_hold"]
        c = claims(rep)["P(X below Y below Xtilde) under the cyclic shift"]
        assert c["lhs"] == pytest.approx(p_order, abs=1e-10)

    def test_infeasibility_certificate(self):
        rep = gallery.run_example_3_5(5)
        cert = rep["infeasibility_certificate"]
        assert cert["forced_spread"] == pytest.approx(5.0, abs=1e-9)
        assert len(cert["chain_steps"]) == 5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gallery.run_example_3_5(1)


class TestExample36:
    def test_n10_values(self):
        rep = claims(gallery.run_example_3_6(10))
        assert rep["E|phi(X)| with phi(x) = x"]["lhs"] == pytest.approx(5.5)
        assert rep["E[|X - Y| ^ 1]"]["lhs"] == pytest.approx(1.0)

    def test_n2_order_probability(self):
        rep = claims(gallery.run_example_3_6(2))
        assert rep["P(X <= Y <= Xtilde)"]["lhs"] == pytest.approx(0.5)

    def test_bound_vacuous(self):
        rep = claims(gallery.run_example_3_6(10))
        assert rep["sandwich bound at p = q = 2 is vacuous "
                   "(right side >= 1)"]["lhs"] >= 1.0


class TestExample2627:
    def test_property_runs(self):
        rep = gallery.run_example_2_6_2_7(10_000, 0)
        assert rep["all_hold"]

    def test_equality_case(self):
        rep = claims(gallery.run_example_2_6_2_7(1000, 0))
        c = rep["equality case a=-1, b=1, p=2"]
        assert c["lhs"] == pytest.approx(c["rhs"], abs=1e-12)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            gallery.run_example_2_6_2_7(10, 0)

    def test_deterministic(self):
        assert gallery.run_example_2_6_2_7(2000, 0) == \
            gallery.run_example_2_6_2_7(2000, 0)

    def test_margins_per_p_are_negative_and_seed_dependent(self):
        # the p = 2 and p = 3 claims carry strict, sample-dependent margins
        def margins(seed):
            return [c["lhs"] for c in gallery.run_example_2_6_2_7(
                        2000, seed)["claims"]
                    if c["statement"].endswith(("p = 2: worst violation",
                                                "p = 3: worst violation",
                                                "fields, p = 2"))]
        one, two = margins(1), margins(2)
        assert len(one) == 3
        assert max(one) < 0 and max(two) < 0
        assert all(a != b for a, b in zip(one, two))


def test_run_case_dispatch():
    rep = gallery.run_case("example-3-6", n=4)
    assert rep["name"] == "example-3-6"
    with pytest.raises(KeyError):
        gallery.run_case("bogus")
