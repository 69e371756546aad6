"""Command-line contract: exit codes, outputs, manifests, determinism."""

import csv
import glob
import json
import os

import numpy as np
import pytest

from monotone_ergo import (cli, experiments, fixture_path, gallery,
                          serialize, spde)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_snapshots(outdir: str) -> dict:
    """{t: (n_paths, N) array} of a run archive's snapshots.bin/json."""
    header = serialize.load(os.path.join(outdir, "snapshots.json"))
    n_grid, n_paths = header["N"], header["n_paths"]
    raw = np.fromfile(os.path.join(outdir, "snapshots.bin"), dtype="<f8")
    per = n_paths * n_grid
    return {t: raw[k * per:(k + 1) * per].reshape(n_paths, n_grid)
            for k, t in enumerate(header["times"])}


def run_config(tmp_path) -> str:
    """A short `spde run` config in tmp_path: 20 steps of 4 paths."""
    cfg = serialize.load(fixture_path("spde_constants.json"))["spde"]
    cfg.update(dt=0.001, T=0.02, n_paths=4)
    path = str(tmp_path / "run.json")
    serialize.dump({"spde": cfg, "T": 0.02, "n_record": 3}, path)
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
                "gallery.json", [], 0),
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
        cli.read_spde(fixture_path(name), sub, None)
    for path in glob.glob(os.path.join(fixtures, "*_verify.json")):
        cli._read_config(path, cli.CHAIN_KEYS)


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
], ids=["chain-verify-top-level", "spde-top-level", "field-profile",
        "noise-profile", "drift-params"])
def test_unknown_key_exit_2(tmp_path, capsys, argv, key):
    code, out, err = run(argv(tmp_path), capsys)
    assert code == 2
    assert out == ""
    assert f"'{key}'" in err


def energy_config(tmp_path, n_paths: int) -> str:
    """spde_energy.json with `n_paths` paths."""
    path = str(tmp_path / "energy.json")
    serialize.dump({**serialize.load(fixture_path("spde_energy.json")),
                    "n_paths": n_paths}, path)
    return path


# a value out of its case's or experiment's range is an input error, not a
# failed verdict
@pytest.mark.parametrize("argv", [
    lambda tmp: ["gallery", "example-3-5", "--n", "1"],
    lambda tmp: ["gallery", "example-3-6", "--n", "1"],
    lambda tmp: ["gallery", "example-2-6-2-7", "--samples", "10"],
    lambda tmp: ["gallery", "example-3-2", "--n", "-1"],
    lambda tmp: ["gallery", "example-3-2", "--n", "537"],
    lambda tmp: ["spde", "energy", energy_config(tmp, 50)],
], ids=["example-3-5-n", "example-3-6-n", "example-2-6-2-7-samples",
        "example-3-2-negative-n", "example-3-2-n-past-float-range",
        "energy-n-paths"])
def test_out_of_range_value_exit_2(tmp_path, capsys, argv):
    code, out, err = run(argv(tmp_path), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")
    assert "Traceback" not in err


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
            kernel=path, space=fixture_path("antichain2_space.json"),
            pairs=[[0, 1]])], capsys)
        assert code == 2
        assert "NaN kernel entry" in err

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(["chain-verify", "/nonexistent.json"], capsys)
        assert code == 2

    # each input is malformed in the field named, so the run stops before
    # any condition is checked
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

    # a fit window of fewer than 3 times could not fail the R^2 gate
    # (horizon 2) or could not fit at all (horizons 0 and 1)
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

    def test_shortest_fittable_horizon_runs(self, tmp_path, capsys):
        code, out, _ = run(
            ["chain-verify", chain_variant(tmp_path, horizon=3)], capsys)
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
    def test_dt_guard_exit_2(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_sync.json"))
        cfg["spde"]["dt"] = 0.01  # dt * L_R > 1 for the cubic clamp
        serialize.dump(cfg, str(tmp_path / "bad.json"))
        code, _, err = run(["spde", "sync", str(tmp_path / "bad.json")],
                           capsys)
        assert code == 2
        assert "monotonicity restriction violated" in err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_constants.json"))
        cfg["spde"]["bogus"] = 1
        serialize.dump(cfg, str(tmp_path / "bad.json"))
        code, _, err = run(
            ["spde", "constants-demo", str(tmp_path / "bad.json")], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda block: block.pop("N"), "missing spde key 'N'"),
        (lambda block: block["noise"].update(sigma=["const"]),
         "noise profiles must be objects"),
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
        for tag in ("a", "b"):
            out_dir = str(tmp_path / tag)
            code, _, _ = run(
                ["spde", "constants-demo", fixture_path("spde_constants.json"),
                 "--seed", "7", "--out", out_dir], capsys)
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
        assert [sorted(kw) for kw in calls] == [["T", "n_paths", "n_record",
                                                 "u0"]]

    def test_threads_option_removed_exit_4(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["spde", "sync", fixture_path("spde_sync.json"),
                 "--threads", "2"], capsys)
        assert exc.value.code == 4

    def test_run_writes_snapshots(self, tmp_path, capsys):
        cfg = serialize.load(fixture_path("spde_constants.json"))
        serialize.dump({"spde": cfg["spde"],
                        "u0": {"kind": "const", "value": 1.0},
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
        from monotone_ergo import transport
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
        from monotone_ergo import transport

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
        from monotone_ergo import transport

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
        ("nu", '{"q": [0.5, 0.5]}', "distribution file: missing key 'p'"),
        ("mu", '{"p": 0.5}', "'p' must be a 1-d array"),
        ("nu", '{"p": ["a", "b"]}', "'p' is not numeric"),
        ("cost", "[[0, 1], [1, 0]]", "cost file: must be a JSON object"),
        ("cost", "{not json", "cost file: not valid JSON"),
    ], ids=["list", "no-p", "scalar-p", "text-p", "cost-list",
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

    def test_seed_option_removed_exit_4(self, capsys):
        mu = fixture_path("transport_mu.json")
        with pytest.raises(SystemExit) as exc:
            run(["transport", mu, mu, "--seed", "1"], capsys)
        assert exc.value.code == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
