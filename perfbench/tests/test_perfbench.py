"""Tests of the benchmark itself: span arithmetic, wrapper installation,
and that every workload check can fail.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def hand_built_tree():
    #  A [0, 10]  -> B [1, 4] -> C [2, 3]
    #             -> D [5, 9]
    #  E [11, 12]
    return [Span("A", 0.0, 10.0, -1), Span("B", 1.0, 4.0, 0),
            Span("C", 2.0, 3.0, 1), Span("D", 5.0, 9.0, 0),
            Span("E", 11.0, 12.0, -1)]


def test_self_time_of_hand_built_tree():
    tree = hand_built_tree()
    table = spans.span_table(tree)
    assert {k: v["self_s"] for k, v in table.items()} == {
        "A": 3.0, "B": 2.0, "C": 1.0, "D": 4.0, "E": 1.0}
    assert table["A"]["s"] == 10.0 and table["A"]["calls"] == 1
    run_s = 13.0
    gap = spans.unattributed(tree, run_s)
    assert gap == 2.0
    assert sum(r["self_s"] for r in table.values()) + gap == run_s
    spans.check_nesting(tree)


def test_repeated_names_accumulate():
    tree = [Span("A", 0.0, 2.0, -1), Span("B", 0.5, 1.0, 0),
            Span("A", 3.0, 4.0, -1), Span("B", 3.0, 3.5, 2)]
    table = spans.span_table(tree)
    assert table["A"] == {"calls": 2, "s": 3.0, "self_s": 2.0}
    assert table["B"] == {"calls": 2, "s": 1.0, "self_s": 1.0}


def test_child_outside_parent_is_rejected():
    tree = hand_built_tree()
    tree[3] = Span("D", 5.0, 10.5, 0)
    with pytest.raises(ValueError):
        spans.check_nesting(tree)


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1,
                        count=lambda args, result: {"seen": args[0]})

    def outer(x):
        return inner(x) + inner(x)

    assert tracer.wrap("outer", outer)(1) == 4
    recorded, counts = tracer.take()
    assert [(s.name, s.parent) for s in recorded] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    assert [(s.start, s.end) for s in recorded] == [
        (0.0, 5.0), (1.0, 2.0), (3.0, 4.0)]
    assert counts == {"inner.seen": 2}
    assert tracer.spans == []


def test_wrapper_cost_is_positive_and_small():
    assert 0.0 < spans.wrapper_cost_s(calls=2000) < 1e-3


# ---------------------------------------------------------------------------
# wrapper installation
# ---------------------------------------------------------------------------

def _originals():
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _, _ in spans.targets()]


def test_wrappers_restore_originals_after_traced_run():
    from monotone_ergo import experiments, posets, spde, transport
    before = _originals()
    tracer = spans.Tracer()
    cfg = spde.SpdeConfig.from_json_obj({
        "N": 8, "dt": 0.001, "T": 0.01, "n_paths": 3, "seed": 1,
        "clamp_R": 15,
        "drift": {"name": "cubic", "params": {"K": 1}, "K1": 1, "K2": 0.5,
                  "K3": 1},
        "noise": {"m": 1, "sigma": [{"kind": "const", "amp": 1}]}})
    with spans.traced(tracer):
        assert all(owner.__dict__[attr] is not raw
                   for owner, attr, raw in before)
        experiments.simulate(cfg, spde.Field(np.zeros(8)), [0.01])
        chain = posets.chain_poset(3)
        mu = posets.Distribution([0.5, 0.5, 0.0])
        nu = posets.Distribution([0.0, 0.5, 0.5])
        assert posets.stochastically_dominates(mu, nu, chain)
        transport.wasserstein_exact(mu.p, nu.p,
                                    transport.CostMatrix(1 - np.eye(3)))
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)

    recorded, counts = tracer.take()
    spans.check_nesting(recorded)
    table = spans.span_table(recorded)
    assert table["spde.step"]["calls"] == 10
    assert table["spde.noise_draws"]["calls"] == 10
    assert counts["spde.step.path_steps"] == 30
    assert table["posets.upset_masks"]["calls"] == 1
    step = next(s for s in recorded if s.name == "spde.step")
    assert recorded[step.parent].name == "spde.simulate"


def test_wrappers_restore_originals_after_an_exception():
    from monotone_ergo import transport
    before = _originals()
    with pytest.raises(transport.TransportError):
        with spans.traced(spans.Tracer()):
            transport.sinkhorn([1.0], [1.0], transport.CostMatrix([[0.0]]),
                               epsilon=-1.0)
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


# ---------------------------------------------------------------------------
# workload checks
# ---------------------------------------------------------------------------

def sync_record():
    times = np.linspace(0.0, 3.0, 13)
    values = np.minimum(1.0, 1.3 * np.exp(-0.3 * times))
    return {
        "statistics": [{"t": float(t), "stat": "sync_l2_capped",
                        "value": float(v), "ci_low": float(v) - 0.01,
                        "ci_high": float(v) + 0.01}
                       for t, v in zip(times, values)],
        "fits": {"sync_rate": {"rate": 0.3, "r_squared": 0.98}},
        "extra": {"verdict": True}}


def ergodicity_record():
    rows = [(0.25, 0.998, 0.995, 0.9998), (0.5, 0.95, 0.94, 0.96),
            (0.75, 0.88, 0.86, 0.90)]
    return {
        "statistics": [{"t": t, "stat": "w_l2_capped", "value": w,
                        "ci_low": lo, "ci_high": hi} for t, w, lo, hi in rows],
        "fits": {"w_rate": {"rate": 0.25}},
        "extra": {"verdict": True,
                  "stationarity": [{"w": 0.08, "null_mean": 0.04,
                                    "bootstrap_se": 0.01,
                                    "below_2se": False}]}}


def test_sync_check_accepts_then_rejects_corruptions():
    assert workloads.check_sync(sync_record()) == []
    flipped = sync_record()
    flipped["extra"]["verdict"] = False
    assert workloads.check_sync(flipped)
    poor_fit = sync_record()
    poor_fit["fits"]["sync_rate"]["r_squared"] = 0.9
    assert workloads.check_sync(poor_fit)
    rising = sync_record()
    rising["statistics"][-1]["value"] = 0.99
    assert workloads.check_sync(rising)
    negative = sync_record()
    negative["fits"]["sync_rate"]["rate"] = -0.1
    assert workloads.check_sync(negative)


def test_ergodicity_check_accepts_then_rejects_corruptions():
    assert workloads.check_ergodicity(ergodicity_record()) == []
    above_one = ergodicity_record()
    above_one["statistics"][0].update(value=1.2, ci_high=1.3)
    assert workloads.check_ergodicity(above_one)
    missed = ergodicity_record()
    missed["statistics"][1]["ci_low"] = 0.97
    assert workloads.check_ergodicity(missed)
    no_decay = ergodicity_record()
    no_decay["statistics"][-1].update(value=0.999, ci_high=1.0)
    assert workloads.check_ergodicity(no_decay)
    nan_sd = ergodicity_record()
    nan_sd["extra"]["stationarity"][0]["bootstrap_se"] = float("nan")
    assert workloads.check_ergodicity(nan_sd)
    flat = ergodicity_record()
    flat["fits"]["w_rate"]["rate"] = 0.0
    assert workloads.check_ergodicity(flat)


def test_spde_operation_fails_on_bad_exit_or_bad_record(tmp_path):
    import worker
    path = workloads.make_input("sync", 4, os.path.dirname(BENCH),
                                str(tmp_path))
    work = worker.SpdeWorkload("sync", path)
    work.code, work.stdout = 0, json.dumps(sync_record())
    assert work.check() == ([], 0)
    work.code = 3
    assert work.check()[1] == 1
    flipped = sync_record()
    flipped["extra"]["verdict"] = False
    work.code, work.stdout = 0, json.dumps(flipped)
    assert work.check()[1] == 1


@pytest.fixture(scope="module")
def small_exact_run(tmp_path_factory, monkeypatch_module):
    import worker
    monkeypatch_module.setattr(workloads, "POSET_SIZES", [8, 10, 12])
    monkeypatch_module.setattr(workloads, "TRANSPORT_SIZES",
                               [(20, 25), (30, 20)])
    path = workloads.make_input("exact", 5, os.path.dirname(BENCH),
                                str(tmp_path_factory.mktemp("exact")))
    work = worker.ExactWorkload(path)
    work.run()
    return work


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def test_exact_batch_has_both_coupling_branches(small_exact_run):
    from monotone_ergo.posets import Coupling, Infeasible
    kinds = {type(cpl) for _, cpl in small_exact_run.pair_out}
    assert kinds == {Coupling, Infeasible}
    assert all(dominated is None or enum
               for (_, _, _, dominated), (enum, _) in zip(
                   small_exact_run.pairs, small_exact_run.pair_out))


def test_exact_check_accepts_then_rejects_corruptions(small_exact_run):
    from monotone_ergo.posets import Coupling
    from monotone_ergo.transport import TransportResult
    work = small_exact_run
    fails, n_failed = work.check()
    assert (fails, n_failed) == ([], 0)
    assert work.attempted == 3 * 2 + 2 + 2 + 1

    def failures_after(mutate):
        bad = copy.copy(work)
        bad.pair_out = list(work.pair_out)
        bad.transport_out = list(work.transport_out)
        bad.chain_out = list(work.chain_out)
        mutate(bad)
        return bad.check()[1]

    k = next(i for i, (_, cpl) in enumerate(work.pair_out)
             if isinstance(cpl, Coupling))
    enum, cpl = work.pair_out[k]

    def flip_enumeration(bad):
        bad.pair_out[k] = (not enum, cpl)

    def move_mass_off_order(bad):
        order = bad.pairs[k][0]
        plan = np.array(cpl.plan)
        i, j = np.argwhere(~order.leq)[0]
        src = np.argmax(plan[i])
        plan[i, j], plan[i, src] = plan[i, src], 0.0
        bad.pair_out[k] = (enum, Coupling(plan))

    def break_marginals(bad):
        plan = np.array(cpl.plan)
        i, j = np.argwhere(plan > 0)[0]
        plan[i, j] *= 0.5
        bad.pair_out[k] = (enum, Coupling(plan))

    def shift_simplex_value(bad):
        ex, sk = work.transport_out[0]
        bad.transport_out[0] = (TransportResult(ex.value + 1e-6, "exact"), sk)

    def unconverged_sinkhorn(bad):
        ex, sk = work.transport_out[1]
        bad.transport_out[1] = (ex, TransportResult(sk.value, "sinkhorn",
                                                    gap=1e-3))

    def flip_chain_verdict(bad):
        bad.chain_out[1] = (0, bad.chain_out[1][1])

    def gallery_claim_fails(bad):
        bad.gallery_out = (1, '{"all_hold": false}')

    for mutate in (flip_enumeration, move_mass_off_order, break_marginals,
                   shift_simplex_value, unconverged_sinkhorn,
                   flip_chain_verdict, gallery_claim_fails):
        assert failures_after(mutate) == 1, mutate.__name__


def test_push_up_dominates_on_every_up_set():
    from monotone_ergo import posets
    rng = np.random.default_rng(3)
    for n in (5, 9, 12):
        leq = workloads.random_order(rng, n)
        order = posets.validate_poset(leq)
        mu = workloads.random_masses(rng, n)
        nu = workloads.push_up(rng, mu, leq)
        assert posets.stochastically_dominates(
            posets.Distribution(mu), posets.Distribution(nu), order)


def test_inputs_depend_only_on_the_seed(tmp_path):
    root = os.path.dirname(BENCH)
    a = workloads.make_input("exact", 11, root, str(tmp_path))
    with open(a) as fh:
        first = fh.read()
    b = workloads.make_input("exact", 11, root, str(tmp_path))
    with open(b) as fh:
        assert fh.read() == first
    assert workloads.exact_batch(11) != workloads.exact_batch(12)
