"""Command-line contract: exit codes, outputs, manifests, determinism."""

import json
import os

import pytest

from monotone_ergo import cli, fixture_path, gallery, serialize


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
            "space": json.load(open(fixture_path("antichain2_space.json"))),
        }, str(tmp_path / "cfg.json"))
        code, out, err = run(["chain-verify", str(tmp_path / "cfg.json")],
                             capsys)
        assert code == 2
        assert "row 0" in err

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(["chain-verify", "/nonexistent.json"], capsys)
        assert code == 2

    def test_writes_report_and_manifest(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, _, _ = run(["chain-verify", fixture_path("chain5_verify.json"),
                          "--out", out_dir], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "report.json"))
        manifest = serialize.load(os.path.join(out_dir, "manifest.json"))
        assert manifest["subcommand"] == "chain-verify"
        assert "report.json" in manifest["output_hashes"]


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
        snaps = serialize.read_snapshots(out_dir)
        assert len(snaps) >= 2
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

        def spy(samples, seed=0):
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
