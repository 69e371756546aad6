"""Command-line contract: exit codes, outputs, manifests, determinism."""

import copy
import csv
import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from monotone_ergo import (chains, cli, experiments, fixture_path, gallery,
                          posets, serialize, spde, transport)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def stopped_at_cap(mu, nu, cost, solve=transport.wasserstein_exact):
    """`wasserstein_exact`'s result, reported as stopped at its cap; the
    real solver is bound here, before a test patches its name."""
    return dataclasses.replace(solve(mu, nu, cost), converged=False)


def read_snapshots(outdir: str) -> dict:
    """{t: (n_paths, N) array} of a run archive's snapshots.bin/json."""
    header = serialize.load(os.path.join(outdir, "snapshots.json"))
    n_grid, n_paths = header["N"], header["n_paths"]
    raw = np.fromfile(os.path.join(outdir, "snapshots.bin"), dtype="<f8")
    per = n_paths * n_grid
    return {t: raw[k * per:(k + 1) * per].reshape(n_paths, n_grid)
            for k, t in enumerate(header["times"])}


def run_config(tmp_path, n_record=3) -> str:
    """A short `spde run` config in tmp_path: 20 steps of 4 paths."""
    cfg = serialize.load(fixture_path("spde_constants.json"))["spde"]
    cfg.update(dt=0.001, T=0.02, n_paths=4)
    path = str(tmp_path / "run.json")
    serialize.dump({"spde": cfg, "T": 0.02, "n_record": n_record}, path)
    return path


# subcommand -> (argv, its payload file, the input labels its manifest
# hashes, the seed its manifest records)
OUT_CASES = {
    "chain-verify": (lambda tmp: ["chain-verify",
                                  fixture_path("chain5_verify.json")],
                     "report.json", ["config.json", "kernel", "poset",
                                     "space"], None),
    "spde-run": (lambda tmp: ["spde", "run", run_config(tmp)], "record.json",
                 ["config.json"], 0),
    "gallery": (lambda tmp: ["gallery", "example-3-2", "--n", "4"],
                "gallery.json", [], None),
    "transport": (lambda tmp: ["transport", fixture_path("transport_mu.json"),
                               fixture_path("transport_nu.json"), "--cost",
                               fixture_path("transport_cost.json")],
                  "transport.json", ["cost", "mu", "nu"], None),
}


@pytest.mark.parametrize("case", list(OUT_CASES))
def test_out_writes_payload_and_manifest(tmp_path, capsys, case):
    argv, payload, inputs, seed = OUT_CASES[case]
    out_dir = str(tmp_path / "out")
    code, out, _ = run([*argv(tmp_path), "--out", out_dir], capsys)
    assert code == 0
    with open(os.path.join(out_dir, payload)) as fh:
        assert fh.read() == out
    manifest = serialize.load(os.path.join(out_dir, "manifest.json"))
    assert sorted(manifest["output_hashes"]) == sorted(
        set(os.listdir(out_dir)) - {"manifest.json"})
    for fn, digest in manifest["output_hashes"].items():
        assert serialize.file_hash(os.path.join(out_dir, fn)) == digest
    assert sorted(manifest["input_hashes"]) == inputs
    assert manifest["seed"] == seed


# the subcommand that reads each shipped spde config
FIXTURE_SUBCOMMANDS = {
    "spde_constants.json": "constants-demo",
    "spde_convolution.json": "convolution", "spde_energy.json": "energy",
    "spde_ergodicity.json": "ergodicity", "spde_swap.json": "swap",
    "spde_swap_control.json": "swap", "spde_sync.json": "sync",
    "spde_sync_zero_noise.json": "sync",
}


def test_shipped_configs_pass_the_reader():
    fixtures = os.path.dirname(fixture_path("spde_sync.json"))
    names = sorted(os.path.basename(p) for p in
                   glob.glob(os.path.join(fixtures, "spde_*.json")))
    assert names == sorted(FIXTURE_SUBCOMMANDS)
    for name, sub in FIXTURE_SUBCOMMANDS.items():
        cli.read_spde(fixture_path(name), sub)
    for path in glob.glob(os.path.join(fixtures, "*_verify.json")):
        cli.read_chain(path)


def chain_config(tmp_path, **top) -> str:
    """chain5_verify.json with absolute paths, plus `top`."""
    cfg = serialize.load(fixture_path("chain5_verify.json"))
    for key in ("poset", "kernel", "space"):
        cfg[key] = fixture_path(cfg[key])
    path = str(tmp_path / "cfg.json")
    serialize.dump({**cfg, **top}, path)
    return path


def chain_variant(tmp_path, space=None, kernel=None, **top) -> str:
    """chain5_verify.json with its poset, kernel and space inline, the
    fields `space` and `kernel` of the last two replaced, plus `top`."""
    inline = {key: serialize.load(fixture_path(f"chain5_{key}.json"))
              for key in ("poset", "kernel", "space")}
    inline["space"].update(space or {})
    inline["kernel"].update(kernel or {})
    return chain_config(tmp_path, **inline, **top)


def spde_config(tmp_path, where, key) -> str:
    """spde_sync.json with `key` added to the object at path `where`."""
    cfg = serialize.load(fixture_path("spde_sync.json"))
    target = cfg
    for step in where:
        target = target[step]
    target[key] = 3
    path = str(tmp_path / "cfg.json")
    serialize.dump(cfg, path)
    return path


@pytest.mark.parametrize("argv, key", [
    (lambda tmp: ["chain-verify", chain_config(tmp, horizn=10)], "horizn"),
    (lambda tmp: ["spde", "sync", spde_config(tmp, (), "npaths")], "npaths"),
    (lambda tmp: ["spde", "sync", spde_config(tmp, ("x",), "frequency")],
     "frequency"),
    (lambda tmp: ["spde", "sync",
                  spde_config(tmp, ("spde", "noise", "sigma", 0), "ampl")],
     "ampl"),
    (lambda tmp: ["spde", "sync",
                  spde_config(tmp, ("spde", "drift", "params"), "k")], "k"),
    # a top-level n_paths, even one equal to the solver block's
    (lambda tmp: config_argv(["spde", "sync"], {
        **SYNC, "n_paths": SYNC["spde"]["n_paths"]})(tmp), "n_paths"),
], ids=["chain-verify-top-level", "spde-top-level", "field-profile",
        "noise-profile", "drift-params", "spde-top-level-n-paths"])
def test_unknown_key_exit_2(tmp_path, capsys, argv, key):
    code, out, err = run(argv(tmp_path), capsys)
    assert code == 2
    assert out == ""
    assert f"'{key}'" in err


def energy_config(tmp_path, n_paths: int) -> str:
    """spde_energy.json with `n_paths` paths."""
    cfg = serialize.load(fixture_path("spde_energy.json"))
    cfg["spde"]["n_paths"] = n_paths
    path = str(tmp_path / "energy.json")
    serialize.dump(cfg, path)
    return path


def ergodicity_config(tmp_path, solver=None, **top) -> str:
    """spde_ergodicity.json on an 8-point grid, with the solver block's
    keys `solver` and the top-level keys `top` replaced."""
    cfg = serialize.load(fixture_path("spde_ergodicity.json"))
    cfg["spde"].update(N=8, **(solver or {}))
    path = str(tmp_path / "ergodicity.json")
    serialize.dump({**cfg, **top}, path)
    return path


def ergodicity_argv(key, value):
    """argv of `spde ergodicity` on an ergodicity_config with the key
    `key` set to `value`."""
    return lambda tmp: ["spde", "ergodicity",
                        ergodicity_config(tmp, **{key: value})]


# spde values out of range: (argv, the key the error names, or the path
# of keys to it in the solver block)
BAD_SPDE_VALUES = {
    "time-grid-string": (ergodicity_argv("time_grid", "ab"), "time_grid"),
    "time-grid-empty": (ergodicity_argv("time_grid", []), "time_grid"),
    "time-grid-negative": (ergodicity_argv("time_grid", [-0.01, 0.01]),
                           "time_grid"),
    "extra-x-times-string": (ergodicity_argv("extra_x_times", "x"),
                             "extra_x_times"),
    "n-paths-infinite": (lambda tmp: ["spde", "ergodicity", ergodicity_config(
        tmp, {"n_paths": float("inf")})], ("spde", "n_paths")),
    "run-n-record-0": (lambda tmp: ["spde", "run", run_config(tmp, 0)],
                       "n_record"),
}


# a value out of its case's or experiment's range is an input error, not a
# failed verdict
@pytest.mark.parametrize("argv", [
    lambda tmp: ["gallery", "example-3-5", "--n", "1"],
    lambda tmp: ["gallery", "example-3-6", "--n", "1"],
    lambda tmp: ["gallery", "example-2-6-2-7", "--samples", "10"],
    lambda tmp: ["gallery", "example-3-2", "--n", "-1"],
    lambda tmp: ["gallery", "example-3-2", "--n", "537"],
    lambda tmp: ["spde", "energy", energy_config(tmp, 50)],
    *(argv for argv, _ in BAD_SPDE_VALUES.values()),
], ids=["example-3-5-n", "example-3-6-n", "example-2-6-2-7-samples",
        "example-3-2-negative-n", "example-3-2-n-past-float-range",
        "energy-n-paths", *BAD_SPDE_VALUES])
def test_out_of_range_value_exit_2(tmp_path, capsys, argv):
    code, out, err = run(argv(tmp_path), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, key", list(BAD_SPDE_VALUES.values()),
                         ids=list(BAD_SPDE_VALUES))
def test_bad_spde_value_names_its_field(tmp_path, capsys, argv, key):
    _, _, err = run(argv(tmp_path), capsys)
    path = (key,) if isinstance(key, str) else key
    assert err.startswith("config error: " + "".join(
        f"field '{step}': " for step in path))


# ---------------------------------------------------------------------------
# every key of every reader table, given a value of the wrong type
# ---------------------------------------------------------------------------

def chain5_inline() -> dict:
    """chain5_verify.json with its poset, kernel and space inline."""
    cfg = serialize.load(fixture_path("chain5_verify.json"))
    for key in ("poset", "kernel", "space"):
        cfg[key] = serialize.load(fixture_path(cfg[key]))
    return cfg


def spde_base(sub: str) -> dict:
    """The config `spde sub` reads in these tests: its shipped fixture,
    or for `run` the constants-demo solver block with T and n_record."""
    if sub == "run":
        return {"spde": serialize.load(fixture_path(
            "spde_constants.json"))["spde"], "T": 5, "n_record": 3}
    name = next(name for name, used in FIXTURE_SUBCOMMANDS.items()
                if used == sub)
    return serialize.load(fixture_path(name))


def set_at(obj, path, value):
    """A copy of the JSON object `obj` with the entry at `path` (keys and
    indices) set to `value`."""
    obj = copy.deepcopy(obj)
    target = obj
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return obj


def config_argv(argv, cfg):
    """argv of `argv` on `cfg`, written to the test's directory."""
    def make(tmp):
        path = str(tmp / "cfg.json")
        serialize.dump(cfg, path)
        return [*argv, path]
    return make


def transport_argv(mu, nu, cost):
    """argv of `transport` on the distribution files `mu` and `nu` and the
    cost file `cost`, written to the test's directory."""
    def make(tmp):
        paths = []
        for name, obj in (("mu", mu), ("nu", nu), ("cost", cost)):
            paths.append(str(tmp / f"{name}.json"))
            serialize.dump(obj, paths[-1])
        return ["transport", paths[0], paths[1], "--cost", paths[2]]
    return make


def wrong_values(reader) -> list:
    """JSON values of the wrong type for `reader`: a string and true for a
    number; a string, 1.5 and true for anything else (an integer, an array
    or an object)."""
    return (["1", True] if reader in (serialize.number, spde._positive)
            else ["1", 1.5, True])


CONSTANTS = serialize.load(fixture_path("spde_constants.json"))
MU, NU, COST = (serialize.load(fixture_path(f"transport_{name}.json"))
                for name in ("mu", "nu", "cost"))


def constants_argv(path, value):
    """argv of `spde constants-demo` on its fixture with `value` at
    `path`."""
    return config_argv(["spde", "constants-demo"],
                       set_at(CONSTANTS, path, value))


def chain_argv(path, value):
    """argv of `chain-verify` on chain5 with `value` at `path`."""
    return config_argv(["chain-verify"], set_at(chain5_inline(), path, value))


# (id, argv maker of a config whose `key` holds `value`, the reader table
# of the object that holds the key)
READER_TABLES = [
    ("solver", lambda k, v: constants_argv(("spde", k), v),
     spde._SOLVER_READERS),
    ("drift", lambda k, v: constants_argv(("spde", "drift", k), v),
     spde._DRIFT_READERS),
    ("noise", lambda k, v: constants_argv(("spde", "noise", k), v),
     spde._NOISE_READERS),
    ("values", lambda k, v: constants_argv(("x_const",), {k: v}),
     spde._VALUES_READERS),
    *((f"params-{family}", lambda k, v, family=family: constants_argv(
        ("spde", "drift"), {**CONSTANTS["spde"]["drift"], "name": family,
                            "params": {k: v}}),
       dict.fromkeys(params, serialize.number))
      for family, params in spde._DRIFT_PARAMS.items()),
    *((f"{kind}-profile", lambda k, v, kind=kind, readers=readers:
       constants_argv(("spde", "noise", "sigma", 0),
                      {**dict.fromkeys(readers, 1), "kind": kind, k: v}),
       readers)
      for kind, readers in spde._PROFILE_READERS.items()),
    *((f"spde-{sub}", lambda k, v, sub=sub: config_argv(
        ["spde", sub], set_at(spde_base(sub), (k,), v)),
       {key: cli._SPDE_READERS.get(key, spde.read_field)
        for key in ("T", *keys)})
      for sub, (_, keys, _) in cli.SPDE_EXPERIMENTS.items()),
    ("chain-verify", lambda k, v: chain_argv((k,), v), cli.CHAIN_READERS),
    ("poset", lambda k, v: chain_argv(("poset", k), v),
     posets._POSET_READERS),
    ("kernel", lambda k, v: chain_argv(("kernel", k), v),
     chains._KERNEL_READERS),
    ("space", lambda k, v: chain_argv(("space", k), v),
     chains._SPACE_READERS),
    ("distribution", lambda k, v: transport_argv({k: v}, NU, COST),
     cli.TRANSPORT_FILES["distribution file"]),
    ("cost", lambda k, v: transport_argv(MU, NU, {k: v}),
     cli.TRANSPORT_FILES["cost file"]),
]

# keys that are no longer read, each with the reader it once had: a value
# of any type still exits 2 naming the key
RETIRED_KEYS = [
    ("chain-verify", lambda k, v: chain_argv((k,), v),
     {"pairs": None, "horizon": None, "burn_in_frac": serialize.number,
      "r2_threshold": serialize.number}),
    ("const-profile", lambda k, v: constants_argv(
        ("spde", "noise", "sigma", 0), {"kind": "const", "amp": 1, k: v}),
     {"value": serialize.number}),
    # the top-level copy of the solver block's n_paths
    *((f"spde-{sub}", lambda k, v, sub=sub: config_argv(
        ["spde", sub], set_at(spde_base(sub), (k,), v)),
       {"n_paths": serialize.integer}) for sub in cli.SPDE_EXPERIMENTS),
]

WRONG_TYPE_CASES = [
    pytest.param(make(key, value), key, id=f"{name}-{key}-{value!r}")
    for name, make, readers in (*READER_TABLES, *RETIRED_KEYS)
    for key, reader in readers.items()
    for value in wrong_values(reader)]


def assert_config_error(code, out, err, key):
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert f"'{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, key", WRONG_TYPE_CASES)
def test_wrong_type_exit_2(tmp_path, capsys, argv, key):
    assert_config_error(*run(argv(tmp_path), capsys), key)


CHAIN5_LEQ = serialize.load(fixture_path("chain5_poset.json"))["leq"]

# values that were once coerced or misreported, each with the key its
# error must name
REPRODUCED = {
    "solver-N-16.9": (("spde", "N"), 16.9, "N"),
    "solver-seed-1.7": (("spde", "seed"), 1.7, "seed"),
    "solver-dt-string": (("spde", "dt"), "0.001", "dt"),
    "noise-m-true": (("spde", "noise", "m"), True, "m"),
    "clamp-R-true": (("spde", "clamp_R"), True, "clamp_R"),
    "clamp-R-negative": (("spde", "clamp_R"), -15, "clamp_R"),
    "drift-K1-string": (("spde", "drift", "K1"), "1", "K1"),
    "params-a-string": (("spde", "drift", "params"), {"a": "-0.1"}, "a"),
    "profile-amp-string": (("x_nonconst", "amp"), "2", "amp"),
    "profile-freq-string": (("x_nonconst", "freq"), "1", "freq"),
    "n-paths-20.9": (("spde", "n_paths"), 20.9, "n_paths"),
    "T-string": (("T",), "0.01", "T"),
}
# horizon and r2_threshold are no longer keys of the config, so these
# configs still exit 2 and name them
REPRODUCED_CHAIN = {
    "horizon-string": (("horizon",), "40", "horizon"),
    "horizon-40.9": (("horizon",), 40.9, "horizon"),
    "r2-threshold-string": (("r2_threshold",), "0.5", "r2_threshold"),
    "poset-unknown-key": (("poset",), {"n": 7, "leq": CHAIN5_LEQ,
                                       "bogus": 1}, "bogus"),
    "poset-n-mismatch": (("poset",), {"n": 7, "leq": CHAIN5_LEQ}, "n"),
    "kernel-unknown-key": (("kernel", "extra"), 1, "extra"),
    "kernel-without-P": (("kernel",), {}, "P"),
    "space-gamma-string": (("space", "gamma"), "0.5", "gamma"),
    "space-swap-A-true": (("space", "swap_A"), [True], "swap_A"),
}


@pytest.mark.parametrize("argv, key", [
    *(pytest.param(constants_argv(path, value), key, id=name)
      for name, (path, value, key) in REPRODUCED.items()),
    pytest.param(config_argv(["spde", "run"], {**spde_base("run"),
                                               "n_record": "3"}),
                 "n_record", id="run-n-record-string"),
    pytest.param(config_argv(["spde", "run"], {
        **spde_base("run"), "u0": {"kind": "const", "amp": "0.5"}}),
                 "amp", id="run-u0-value-string"),
    *(pytest.param(chain_argv(path, value), key, id=name)
      for name, (path, value, key) in REPRODUCED_CHAIN.items()),
    pytest.param(transport_argv({"p": ["0.5", "0.5", 0, 0], "label": "x"},
                                {"p": [True, False, False, False]}, COST),
                 "label", id="transport-mu-label"),
    pytest.param(transport_argv({"p": [1, 0, 0]}, {"p": [True, False, False]},
                                COST), "p", id="transport-nu-booleans"),
])
def test_reproduced_input_exit_2(tmp_path, capsys, argv, key):
    code, out, err = run(argv(tmp_path), capsys)
    assert_config_error(code, out, err, key)
    assert f"field '{key}': " in err


SYNC, ERGODICITY, CONVOLUTION = (
    serialize.load(fixture_path(f"spde_{name}.json"))
    for name in ("sync", "ergodicity", "convolution"))
CUBIC = {"name": "cubic", "params": {"K": 1}, "K1": 1, "K2": 0.5, "K3": 1}


def solver_argv(sub, **solver):
    """argv of `spde sub` on its spde_base config with the solver keys
    `solver` set, at the top level too where the config repeats them."""
    cfg = spde_base(sub)
    cfg["spde"].update(solver)
    cfg.update((key, value) for key, value in solver.items() if key in cfg)
    return config_argv(["spde", sub], cfg)


# inputs that once ran with a value other than the one they give (a T or
# a time off the dt grid ran as the nearest step), ran a check that cannot
# fail, crashed, exited 3, or exited 2 naming no key or the wrong one, each
# with the key its error must name
PROBES = {
    "sync-top-level-T": (config_argv(["spde", "sync"], set_at(
        set_at(SYNC, ("spde", "T"), 0.05), ("T",), 0.02)), "T"),
    "constants-demo-top-level-n-paths": (
        constants_argv(("n_paths",), 20), "n_paths"),
    "ergodicity-T-past-last-time": (config_argv(["spde", "ergodicity"], {
        **set_at(ERGODICITY, ("spde", "T"), 5), "time_grid": [0.01, 0.02],
        "extra_x_times": [0.03]}), "T"),
    "convolution-cubic-drift": (config_argv(["spde", "convolution"], set_at(
        set_at(CONVOLUTION, ("spde", "drift"), CUBIC), ("spde", "n_paths"),
        7)), "drift"),
    "convolution-7-paths": (config_argv(["spde", "convolution"], set_at(
        CONVOLUTION, ("spde", "n_paths"), 7)), "n_paths"),
    "const-profile-value": (constants_argv(
        ("x_const",), {"kind": "const", "amp": 5, "value": -1}), "value"),
    "cos-profile-without-freq": (constants_argv(
        ("x_nonconst",), {"kind": "cos", "amp": 1}), "freq"),
    "noise-profile-without-amp": (constants_argv(
        ("spde", "noise", "sigma", 0), {"kind": "const"}), "amp"),
    "drift-params-without-a": (constants_argv(
        ("spde", "drift", "params"), {}), "a"),
    "solver-seed-negative": (constants_argv(("spde", "seed"), -1), "seed"),
    "solver-seed-past-range": (constants_argv(("spde", "seed"), 2 ** 64),
                               "seed"),
    "ergodicity-seed-past-range": (config_argv(["spde", "ergodicity"], set_at(
        ERGODICITY, ("spde", "seed"), 2 ** 64 - 1)), "seed"),
    "gallery-seed-negative": (lambda tmp: [
        "gallery", "example-2-6-2-7", "--seed", "-1"], "seed"),
    "N-1": (solver_argv("sync", N=1), "N"),
    "dt-0": (solver_argv("sync", dt=0), "dt"),
    "n-paths-0": (solver_argv("sync", n_paths=0), "n_paths"),
    "T-negative": (solver_argv("sync", T=-1), "T"),
    "drift-K1-0": (config_argv(["spde", "sync"], set_at(
        SYNC, ("spde", "drift", "K1"), 0)), "K1"),
    "noise-m-2-one-profile": (config_argv(["spde", "sync"], set_at(
        SYNC, ("spde", "noise", "m"), 2)), "m"),
    "energy-50-paths": (solver_argv("energy", n_paths=50), "n_paths"),
    "x-nan-values": (config_argv(["spde", "sync"], set_at(
        SYNC, ("x",), {"values": [float("nan")] * 64})), "x"),
    "x-3-values": (config_argv(["spde", "sync"], set_at(
        SYNC, ("x",), {"values": [0, 1, 2]})), "x"),
    **{f"{sub}-T-off-grid": (solver_argv(
        sub, T=20.2 * spde_base(sub)["spde"]["dt"]), "T")
       for sub in cli.SPDE_EXPERIMENTS},
    "time-grid-off-grid": (config_argv(["spde", "ergodicity"], {
        **set_at(ERGODICITY, ("spde", "T"), 0.02),
        "time_grid": [0.0105, 0.02], "extra_x_times": []}), "time_grid"),
    "extra-x-times-off-grid": (config_argv(["spde", "ergodicity"], {
        **set_at(ERGODICITY, ("spde", "T"), 0.02),
        "time_grid": [0.01], "extra_x_times": [0.0205]}), "extra_x_times"),
    "convolution-T-0": (solver_argv("convolution", T=0), "T"),
    # the stationarity check would compare the last grid time with itself
    "extra-x-time-at-last-grid-time": (config_argv(["spde", "ergodicity"], {
        **set_at(ERGODICITY, ("spde", "T"), 0.02),
        "time_grid": [0.01, 0.02], "extra_x_times": [0.02]}),
        "extra_x_times"),
    **{f"transport-epsilon-{value}": (lambda tmp, value=value: [
        "transport", fixture_path("transport_mu.json"),
        fixture_path("transport_nu.json"), "--method", "sinkhorn",
        "--epsilon", value], "epsilon") for value in ("nan", "inf")},
}


@pytest.mark.parametrize("argv, key", list(PROBES.values()),
                         ids=list(PROBES))
def test_probe_exit_2(tmp_path, capsys, argv, key):
    assert_config_error(*run(argv(tmp_path), capsys), key)


class TestChainVerify:
    def test_reference_chain_passes(self, capsys):
        code, out, err = run(
            ["chain-verify", fixture_path("chain5_verify.json")], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["verdict"] is True

    def test_antichain_fails_on_swap(self, capsys):
        code, out, err = run(
            ["chain-verify", fixture_path("antichain2_verify.json")], capsys)
        assert code == 1
        assert "swap condition unsatisfiable" in err

    def test_unconverged_simplex_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(transport, "wasserstein_exact",
                            stopped_at_cap)
        code, out, err = run(
            ["chain-verify", fixture_path("chain5_verify.json")], capsys)
        assert code == 3
        assert out == ""
        assert "numeric failure: simplex did not converge for pair (0, 1) " \
            "at t = 0" in err

    def test_bad_kernel_row_exit_2(self, tmp_path, capsys):
        serialize.dump({
            "poset": {"n": 2, "leq": [[1, 1], [0, 1]]},
            "kernel": {"P": [[0.99, 0.0], [0.0, 1.0]]},
            "space": serialize.load(fixture_path("antichain2_space.json")),
        }, str(tmp_path / "cfg.json"))
        code, out, err = run(["chain-verify", str(tmp_path / "cfg.json")],
                             capsys)
        assert code == 2
        assert "row 0" in err

    def test_nan_kernel_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "kernel.json")
        serialize.dump({"P": [[float("nan"), 0.5], [0.5, 0.5]]}, path)
        code, out, err = run(["chain-verify", chain_config(
            tmp_path, poset=fixture_path("antichain2_poset.json"),
            kernel=path, space=fixture_path("antichain2_space.json"))],
            capsys)
        assert code == 2
        assert "NaN kernel entry" in err

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(["chain-verify", "/nonexistent.json"], capsys)
        assert code == 2

    # each input is malformed in the field named, so the run stops before
    # any condition is checked; pairs and horizon are no longer keys of the
    # config
    @pytest.mark.parametrize("change, field", [
        ({"space": {"phi": [0, 1, 2, 3]}}, "phi"),
        ({"space": {"d": (1 - np.eye(4)).tolist()}}, "d"),
        ({"kernel": {"P": np.eye(4).tolist()}}, "kernel"),
        ({"space": {"V": [5, 2, 1]}}, "V"),
        ({"space": {"swap_A": [7]}}, "swap_A"),
        ({"pairs": [[0, 9]]}, "pairs"),
        ({"pairs": [[0]]}, "pairs"),
        ({"space": {"rho": [[0, 1]] * 5}}, "rho"),
        ({"space": {"gamma": -1}}, "gamma"),
        ({"horizon": -5}, "horizon"),
    ], ids=["phi-length", "d-4x4", "kernel-4x4", "V-length",
            "swap-index", "pair-index", "not-a-pair", "rho-shape",
            "gamma-range", "negative-horizon"])
    def test_malformed_input_exit_2(self, tmp_path, capsys, change, field):
        code, out, err = run(
            ["chain-verify", chain_variant(tmp_path, **change)], capsys)
        assert code == 2
        assert out == ""
        assert f"'{field}'" in err
        assert "Traceback" not in err

    # the horizon is chains.DECAY_HORIZON, so a config that asks for a fit
    # window too short to fit (horizons 0 and 1) or to fail the R^2 gate
    # (horizon 2) names the key and stops
    @pytest.mark.parametrize("horizon", [0, 1, 2])
    def test_horizon_too_short_to_fit_exit_2(self, tmp_path, capsys,
                                             horizon):
        code, out, err = run(
            ["chain-verify", chain_variant(tmp_path, horizon=horizon)],
            capsys)
        assert code == 2
        assert out == ""
        assert "'horizon'" in err
        assert "Traceback" not in err

    # at the burn-in of 1/8 a horizon of 3 leaves the 3 times a passing fit
    # needs in the window t >= 3/8
    def test_shortest_fittable_horizon_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(chains, "DECAY_HORIZON", 3)
        code, out, _ = run(
            ["chain-verify", fixture_path("chain5_verify.json")], capsys)
        assert code == 0
        assert json.loads(out)["times"] == [0, 1, 2, 3]

    # for each condition that an input can fail, chain5 changed so that it
    # fails: the report entry reads FAIL with its witness, and the run
    # exits 1
    @pytest.mark.parametrize("change, condition, witness", [
        ({"kernel": {"P": serialize.load(fixture_path(
            "chain5_kernel.json"))["P"][::-1]}},
         "order_preserving", [0, 1, [4]]),
        ({"space": {"K": 0.1}}, "lyapunov_drift", 2),
        ({"space": {"d": np.where(np.eye(5, k=1), 5.0, np.abs(
            np.subtract.outer(np.arange(5.0), np.arange(5.0)))).tolist()}},
         "premetric_sandwich", [0, 1]),
        ({"space": {"swap_A": [3], "swap_B": [1]}}, "swap", [3, 1]),
        ({"space": {"delta": 0.25}}, "rho_dominated_by_d_power", [0, 2]),
    ], ids=["1-order", "2-drift", "3-premetric", "5-swap", "6-rho"])
    def test_failed_condition_exit_1(self, tmp_path, capsys, change,
                                     condition, witness):
        code, out, err = run(
            ["chain-verify", chain_variant(tmp_path, **change)], capsys)
        assert code == 1
        entry = {c["condition"]: c for c in json.loads(out)["conditions"]}
        assert entry[condition]["holds"] is False
        assert entry[condition]["witness"] == witness
        assert f"{condition:32s} FAIL" in err

    @pytest.mark.parametrize("key", ["poset", "kernel", "space"])
    def test_named_file_not_json_exit_2(self, tmp_path, capsys, key):
        path = tmp_path / f"{key}.json"
        path.write_text("{not json")
        code, out, err = run(
            ["chain-verify", chain_config(tmp_path, **{key: str(path)})],
            capsys)
        assert code == 2
        assert out == ""
        assert f"field '{key}': not valid JSON" in err

    def test_writes_report_and_manifest(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, _, _ = run(["chain-verify", fixture_path("chain5_verify.json"),
                          "--out", out_dir], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "report.json"))
        manifest = serialize.load(os.path.join(out_dir, "manifest.json"))
        assert manifest["subcommand"] == "chain-verify"
        assert "report.json" in manifest["output_hashes"]


    def test_seed_option_removed_exit_4(self, capsys):
        # chain-verify draws no random number, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            run(["chain-verify", fixture_path("chain5_verify.json"),
                 "--seed", "1"], capsys)
        assert exc.value.code == 4


class TestSpde:
    def test_cubic_at_coarse_dt_exits_0(self, capsys):
        # dt = 0.01 with the cubic drift and clamp_R = 15, where an
        # explicit drift step would break order (dt (3 R^2 - K) = 6.74 > 1),
        # runs: the splitting step preserves order at every dt.  The
        # shipped config runs at that dt, and exit 0 needs its positive
        # verdict, which a run shorter than its T = 30 does not reach
        code, out, err = run(["spde", "sync", fixture_path("spde_sync.json")],
                             capsys)
        assert code == 0, err
        assert json.loads(out)["config"]["dt"] == 0.01

    @pytest.mark.parametrize("y_amp, code, verdict", [
        (2, 1, False), (-2, 0, "trivially-synchronized")],
        ids=["no-noise-exit-1", "equal-starts-exit-0"])
    def test_sync_exit_follows_the_verdict(self, tmp_path, capsys, y_amp,
                                           code, verdict):
        # without noise the two starts never meet, so the verdict is
        # False; the record is still printed and archived
        cfg = serialize.load(fixture_path("spde_sync_zero_noise.json"))
        cfg["y"]["amp"] = y_amp
        serialize.dump(cfg, str(tmp_path / "cfg.json"))
        out_dir = str(tmp_path / "run")
        got, out, err = run(["spde", "sync", str(tmp_path / "cfg.json"),
                             "--out", out_dir], capsys)
        assert got == code, err
        assert json.loads(out)["extra"]["verdict"] == verdict
        assert serialize.load(os.path.join(out_dir, "record.json")) == \
            json.loads(out)

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_constants.json"))
        cfg["spde"]["bogus"] = 1
        serialize.dump(cfg, str(tmp_path / "bad.json"))
        code, _, err = run(
            ["spde", "constants-demo", str(tmp_path / "bad.json")], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda block: block.pop("N"),
         "field 'N': missing from the spde block"),
        (lambda block: block["noise"].update(sigma=["const"]),
         "field 'sigma': field 'kind': must be 'const', 'cos' or 'sin' in "
         "a profile object"),
    ], ids=["missing-N", "sigma-not-objects"])
    def test_bad_solver_block_exit_2(self, tmp_path, capsys, edit, message):
        cfg = serialize.load(fixture_path("spde_sync.json"))
        edit(cfg["spde"])
        serialize.dump(cfg, str(tmp_path / "bad.json"))
        code, out, err = run(["spde", "sync", str(tmp_path / "bad.json")],
                             capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_constants_demo_archive(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out, err = run(
            ["spde", "constants-demo", fixture_path("spde_constants.json"),
             "--out", out_dir], capsys)
        assert code == 0
        for fn in ("record.json", "config.json", "statistics.csv",
                   "manifest.json"):
            assert os.path.exists(os.path.join(out_dir, fn))

    def test_seed_determinism(self, tmp_path, capsys):
        outs = []
        config = config_argv(["spde", "constants-demo"],
                             set_at(CONSTANTS, ("spde", "seed"), 7))
        for tag in ("a", "b"):
            out_dir = str(tmp_path / tag)
            code, _, _ = run([*config(tmp_path), "--out", out_dir], capsys)
            assert code == 0
            with open(os.path.join(out_dir, "record.json"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_experiment_looked_up_at_call(self, tmp_path, capsys,
                                          monkeypatch):
        # a wrapper installed on `experiments` after import sees the call
        calls = []
        original = experiments.snapshot_run

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "snapshot_run", spy)
        code, _, _ = run(["spde", "run", run_config(tmp_path)], capsys)
        assert code == 0
        assert [sorted(kw) for kw in calls] == [["n_record", "u0"]]

    def test_seed_option_removed_exit_4(self, capsys):
        # the solver block is the one home of the seed
        with pytest.raises(SystemExit) as exc:
            run(["spde", "constants-demo", fixture_path("spde_constants.json"),
                 "--seed", "7"], capsys)
        assert exc.value.code == 4

    def test_threads_option_removed_exit_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["spde", "sync", fixture_path("spde_sync.json"),
                 "--threads", "2"], capsys)
        assert exc.value.code == 4

    def test_run_writes_snapshots(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_constants.json"))
        serialize.dump({"spde": cfg["spde"],
                        "u0": {"kind": "const", "amp": 1.0},
                        "T": 5.0, "n_record": 3},
                       str(tmp_path / "run.json"))
        out_dir = str(tmp_path / "out")
        code, _, _ = run(["spde", "run", str(tmp_path / "run.json"),
                          "--out", out_dir], capsys)
        assert code == 0
        snaps = read_snapshots(out_dir)
        assert len(snaps) >= 2
        # the archived snapshots and statistics give back the record's
        # energy statistics exactly
        record = serialize.load(os.path.join(out_dir, "record.json"))
        assert [r["value"] for r in record["statistics"]] == [
            float(spde.l2_sq(snaps[t]).mean()) for t in record["times"]]
        with open(os.path.join(out_dir, "statistics.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["stat"], float(r["value"])) for r in rows] == [
            (r["stat"], r["value"]) for r in record["statistics"]]
        manifest = serialize.load(os.path.join(out_dir, "manifest.json"))
        assert sorted(manifest["output_hashes"]) == sorted(
            set(os.listdir(out_dir)) - {"manifest.json"})
        for fn, digest in manifest["output_hashes"].items():
            assert serialize.file_hash(os.path.join(out_dir, fn)) == digest

    def test_swap_runs_to_the_solver_T(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_swap.json"))
        cfg["spde"].update(T=0.5, n_paths=20)
        del cfg["T"]
        serialize.dump(cfg, str(tmp_path / "swap.json"))
        code, out, _ = run(["spde", "swap", str(tmp_path / "swap.json")],
                           capsys)
        assert code == 0
        assert json.loads(out)["times"] == [0.5]

    def test_run_times_start_at_zero_once(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_constants.json"))
        serialize.dump({"spde": cfg["spde"], "T": 5.0, "n_record": 3},
                       str(tmp_path / "run.json"))
        code, out, err = run(["spde", "run", str(tmp_path / "run.json")],
                             capsys)
        assert code == 0
        times = json.loads(out)["times"]
        assert times == [0.0, 2.5, 5.0]
        assert "3 snapshots" in err


class TestGallery:
    def test_all_cases_pass(self, capsys):
        code, out, _ = run(["gallery", "all"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["all_hold"]

    def test_unconverged_simplex_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(gallery, "wasserstein_exact", stopped_at_cap)
        for case in ("all", "example-2-4"):
            code, out, err = run(["gallery", case], capsys)
            assert code == 3
            assert out == ""
            assert "numeric failure: example-2-4: simplex did not " \
                "converge at t = 0" in err

    def test_single_case_with_n(self, capsys):
        code, out, _ = run(["gallery", "example-3-2", "--n", "10"], capsys)
        assert code == 0
        rep = json.loads(out)
        # the (expected distance, tv bound) pair for n = 10
        row = rep["table"][10]
        assert row["expected_distance"] == pytest.approx(row["tv_bound"]
                                                         * 1024.0)

    def test_seed_reaches_sampled_case(self, capsys, monkeypatch):
        seeds = []
        sample = gallery.run_example_2_6_2_7

        def spy(samples, seed):
            seeds.append(seed)
            return sample(samples, seed)

        monkeypatch.setattr(gallery, "run_example_2_6_2_7", spy)
        outs = [run(["gallery", "example-2-6-2-7", "--samples", "1000",
                     *extra], capsys)[1]
                for extra in (["--seed", "7"], ["--seed", "7"], [],
                              ["--seed", "1"], ["--seed", "2"])]
        assert seeds == [7, 7, 0, 1, 2]
        assert outs[0] == outs[1]
        assert outs[3] != outs[4]

    # an option that no selected case takes is a usage error, not ignored
    @pytest.mark.parametrize("argv", [
        ["example-2-4", "--n", "5"], ["example-2-4", "--samples", "5"],
        ["example-3-2", "--samples", "5000"], ["example-3-6", "--seed", "9"],
    ], ids=lambda argv: "-".join(argv))
    def test_option_not_taken_exit_4(self, tmp_path, capsys, argv):
        out_dir = str(tmp_path / "out")
        code, out, err = run(["gallery", *argv, "--out", out_dir], capsys)
        assert code == 4
        assert out == ""
        assert f"usage error: {argv[0]} takes no {argv[1]}" in err
        assert not os.path.exists(out_dir)

    def test_all_passes_each_option_to_the_cases_that_take_it(
            self, capsys, monkeypatch):
        calls = []
        original = gallery.run_case

        def spy(name, **options):
            calls.append((name, options))
            return original(name, **options)

        monkeypatch.setattr(gallery, "run_case", spy)
        code, _, _ = run(["gallery", "all", "--n", "3"], capsys)
        assert code == 0
        assert calls == [(name, {"n": 3} if "n" in options else {})
                         for name, (_, options) in gallery.ALL_CASES.items()]
        assert [name for name, options in calls if options] == [
            "example-3-2", "example-3-5", "example-3-6"]

    # the manifest records the seed the sampled case ran with, and no seed
    # when no case samples
    @pytest.mark.parametrize("argv, seed", [
        (["example-2-6-2-7", "--samples", "1000"], 0),
        (["example-2-6-2-7", "--samples", "1000", "--seed", "3"], 3),
        (["all", "--seed", "5"], 5), (["example-3-6"], None)],
        ids=["sampled-default", "sampled-given", "all-given", "unsampled"])
    def test_manifest_seed_is_the_sampled_cases(self, tmp_path, capsys,
                                                argv, seed):
        out_dir = str(tmp_path / "out")
        code, _, _ = run(["gallery", *argv, "--out", out_dir], capsys)
        assert code == 0
        manifest = serialize.load(os.path.join(out_dir, "manifest.json"))
        assert manifest["seed"] == seed

    def test_unknown_case_exit_4(self, capsys):
        code, _, err = run(["gallery", "bogus-name"], capsys)
        assert code == 4

    def test_usage_error_exit_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gallery"], capsys)
        assert exc.value.code == 4


class TestTransport:
    def test_identical_files_zero(self, capsys):
        mu = fixture_path("transport_mu.json")
        code, out, _ = run(["transport", mu, mu], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_oracle(self, capsys):
        import numpy as np
        mu = serialize.load(fixture_path("transport_mu.json"))["p"]
        nu = serialize.load(fixture_path("transport_nu.json"))["p"]
        C = serialize.load(fixture_path("transport_cost.json"))["C"]
        expect = transport.wasserstein_exact(
            np.array(mu), np.array(nu),
            transport.CostMatrix(np.array(C))).value
        code, out, _ = run(
            ["transport", fixture_path("transport_mu.json"),
             fixture_path("transport_nu.json"),
             "--cost", fixture_path("transport_cost.json")], capsys)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expect, abs=1e-12)
        assert json.loads(out)["converged"] is True

    def test_unconverged_solve_exits_3(self, monkeypatch, capsys):
        def capped(mu, nu, cost, epsilon):
            return transport.TransportResult(
                value=0.5, method="sinkhorn", iterations=7, gap=1e-3,
                epsilon=epsilon, converged=False)

        monkeypatch.setattr(transport, "sinkhorn", capped)
        code, out, err = run(
            ["transport", fixture_path("transport_mu.json"),
             fixture_path("transport_nu.json"), "--method", "sinkhorn"],
            capsys)
        assert code == 3
        assert json.loads(out)["converged"] is False
        assert "did not converge in 7 iterations" in err

    def test_diverged_sinkhorn_exits_3(self, monkeypatch, capsys):
        def diverged(mu, nu, cost, epsilon):
            raise transport.SinkhornDiverged(
                "non-finite scalings at iteration 1")

        monkeypatch.setattr(transport, "sinkhorn", diverged)
        code, out, err = run(
            ["transport", fixture_path("transport_mu.json"),
             fixture_path("transport_nu.json"), "--method", "sinkhorn"],
            capsys)
        assert code == 3
        assert out == ""
        assert "numeric failure: non-finite scalings" in err

    def test_sinkhorn_close_to_exact(self, capsys):
        args = ["transport", fixture_path("transport_mu.json"),
                fixture_path("transport_nu.json"),
                "--cost", fixture_path("transport_cost.json")]
        _, out_e, _ = run(args + ["--method", "exact"], capsys)
        _, out_s, _ = run(args + ["--method", "sinkhorn",
                                  "--epsilon", "0.002"], capsys)
        ve = json.loads(out_e)["value"]
        vs = json.loads(out_s)["value"]
        assert abs(ve - vs) <= 0.01 * ve

    def test_shape_mismatch_exit_2(self, tmp_path, capsys):
        serialize.dump({"p": [0.5, 0.5]}, str(tmp_path / "mu2.json"))
        code, _, err = run(
            ["transport", str(tmp_path / "mu2.json"),
             fixture_path("transport_nu.json")], capsys)
        assert code == 2
        assert "mismatch" in err

    @pytest.mark.parametrize("mu, nu, message", [
        ([0.5, 0.5], [0.3, 0.3], "total masses differ"),
        ([-0.5, 1.5], [0.5, 0.5], "finite and nonnegative"),
    ], ids=["unbalanced", "negative"])
    @pytest.mark.parametrize("method", ["exact", "sinkhorn", "tv"])
    def test_invalid_masses_exit_2(self, tmp_path, capsys, mu, nu, message,
                                   method):
        serialize.dump({"p": mu}, str(tmp_path / "mu.json"))
        serialize.dump({"p": nu}, str(tmp_path / "nu.json"))
        code, out, err = run(
            ["transport", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"),
             "--cost", "discrete", "--method", method], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("which, text, message", [
        ("mu", "[0.5, 0.5]", "distribution file: must be a JSON object"),
        ("nu", '{"q": [0.5, 0.5]}', "field 'q': not a key of the "
                                    "distribution file"),
        ("nu", '{}', "field 'p': missing from the distribution file"),
        ("mu", '{"p": 0.5}', "field 'p': must be a 1-d array"),
        ("nu", '{"p": ["a", "b"]}', "field 'p': must be a 1-d array of "
                                    "numbers"),
        ("cost", "[[0, 1], [1, 0]]", "cost file: must be a JSON object"),
        ("cost", "{not json", "cost file: not valid JSON"),
    ], ids=["list", "other-key", "no-p", "scalar-p", "text-p", "cost-list",
            "cost-not-json"])
    def test_bad_input_file_exit_2(self, tmp_path, capsys, which, text,
                                   message):
        files = {"mu": '{"p": [0.5, 0.5]}', "nu": '{"p": [0.5, 0.5]}',
                 "cost": '{"C": [[0, 1], [1, 0]]}', which: text}
        for name, content in files.items():
            (tmp_path / f"{name}.json").write_text(content)
        code, out, err = run(
            ["transport", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"),
             "--cost", str(tmp_path / "cost.json")], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    # an option the method does not use is a usage error, not ignored
    @pytest.mark.parametrize("argv", [
        ["--method", "exact", "--epsilon", "-1"],
        ["--method", "tv", "--epsilon", "nan"],
        ["--method", "tv", "--epsilon", "0.01"],
        ["--method", "tv", "--cost", fixture_path("transport_cost.json")],
    ], ids=["exact-epsilon", "tv-epsilon-nan", "tv-epsilon", "tv-cost-file"])
    def test_option_not_taken_exit_4(self, tmp_path, capsys, argv):
        out_dir = str(tmp_path / "out")
        code, out, err = run(
            ["transport", fixture_path("transport_mu.json"),
             fixture_path("transport_nu.json"), *argv, "--out", out_dir],
            capsys)
        assert code == 4
        assert out == ""
        option = "--cost file" if argv[2] == "--cost" else "--epsilon"
        assert f"usage error: --method {argv[1]} takes no {option}" in err
        assert not os.path.exists(out_dir)

    def test_sinkhorn_epsilon_defaults_to_0_01(self, capsys):
        args = ["transport", fixture_path("transport_mu.json"),
                fixture_path("transport_nu.json"), "--method", "sinkhorn"]
        _, out_default, _ = run(args, capsys)
        _, out_given, _ = run(args + ["--epsilon", "0.01"], capsys)
        assert out_default == out_given
        assert json.loads(out_default)["epsilon"] == 0.01

    def test_seed_option_removed_exit_4(self, capsys):
        mu = fixture_path("transport_mu.json")
        with pytest.raises(SystemExit) as exc:
            run(["transport", mu, mu, "--seed", "1"], capsys)
        assert exc.value.code == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
