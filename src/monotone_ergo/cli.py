"""Command-line entry point.

Subcommands: chain-verify, spde (run | sync | ergodicity | swap | energy |
constants-demo | convolution), gallery, transport.

Exit codes: 0 pass, 1 verdict failure, 2 config error, 3 numeric failure,
4 usage error.  Human-readable output goes to stderr; machine-readable
JSON goes to stdout and, with --out, to atomically written files plus a
run manifest.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, experiments, gallery, serialize, spde, transport
from .chains import (ChainError, FiniteKernel, OrderedSpaceSpec,
                     theorem_main_verify)
from .posets import FinitePoset, PosetError

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 4


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj, out: str | None, filename: str) -> dict:
    """Print JSON to stdout; with --out also write it to a file.

    Returns {filename: sha256} for the manifest."""
    text = serialize.dumps(obj)
    print(text)
    hashes = {}
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, filename)
        with serialize.atomic_open(path) as fh:
            fh.write(text + "\n")
        hashes[filename] = serialize.file_hash(path)
    return hashes


def _write_manifest(out: str, subcommand: str, config_path, seed,
                    input_hashes: dict, output_hashes: dict,
                    t_start: float) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_path": config_path,
        "seed": seed,
        "out_dir": out,
        "tool_version": __version__,
        "input_hashes": input_hashes,
        "output_hashes": output_hashes,
        "duration_seconds": time.monotonic() - t_start,
    }
    os.makedirs(out, exist_ok=True)
    serialize.dump(manifest, os.path.join(out, "manifest.json"))


def _load_config(path: str):
    try:
        return serialize.load(path)
    except FileNotFoundError:
        raise spde.ConfigError(f"config file not found: {path}")
    except ValueError as exc:
        raise spde.ConfigError(f"config is not valid JSON: {exc}")


def _resolve(obj, config_dir: str, field_name: str):
    """A config field may hold an inline object or a path to a JSON file."""
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(config_dir, obj)
        if not os.path.exists(path):
            raise spde.ConfigError(f"field {field_name!r}: file not found: {path}")
        return serialize.load(path), path
    if isinstance(obj, dict):
        return obj, None
    raise spde.ConfigError(f"field {field_name!r} must be an object or a path")


# ---------------------------------------------------------------------------
# chain-verify
# ---------------------------------------------------------------------------

def cmd_chain_verify(args) -> int:
    t0 = time.monotonic()
    cfg = _load_config(args.config)
    cdir = os.path.dirname(os.path.abspath(args.config))
    input_hashes = {"config.json": serialize.file_hash(args.config)}
    for key in ("poset", "kernel", "space"):
        if key not in cfg:
            raise spde.ConfigError(f"missing field {key!r}")
    poset_obj, p_path = _resolve(cfg["poset"], cdir, "poset")
    kernel_obj, k_path = _resolve(cfg["kernel"], cdir, "kernel")
    space_obj, s_path = _resolve(cfg["space"], cdir, "space")
    for name, path in (("poset", p_path), ("kernel", k_path),
                       ("space", s_path)):
        if path:
            input_hashes[name] = serialize.file_hash(path)
    try:
        poset = FinitePoset.from_json_obj(poset_obj)
        kernel = FiniteKernel.from_json_obj(kernel_obj)
        space = OrderedSpaceSpec.from_json_obj(space_obj, poset)
    except (PosetError, ChainError, KeyError, TypeError) as exc:
        raise spde.ConfigError(str(exc))

    pairs = [tuple(p) for p in cfg.get(
        "pairs", [(i, j) for i in range(poset.n) for j in range(poset.n)
                  if i < j])]
    horizon = int(cfg.get("horizon", 40))
    report = theorem_main_verify(
        space, kernel, pairs, horizon,
        burn_in_frac=float(cfg.get("burn_in_frac", 0.125)),
        r2_threshold=float(cfg.get("r2_threshold", 0.99)))

    _say(f"{'condition':32s} verdict")
    for c in report.conditions:
        mark = "pass" if c.holds else "FAIL"
        _say(f"{c.condition:32s} {mark}")
        if c.condition == "swap" and not c.holds:
            _say("swap condition unsatisfiable")
    for (x, y), fit in zip(report.pairs, report.fits):
        _say(f"pair ({x}, {y}): rate {fit.rate:.6g}, R^2 {fit.r_squared:.4f},"
             f" {'pass' if fit.verdict or x == y else 'FAIL'}")
    _say(f"overall verdict: {'pass' if report.verdict else 'FAIL'}")

    out_hashes = _emit(report.to_json_obj(), args.out, "report.json")
    if args.out:
        _write_manifest(args.out, "chain-verify", args.config, None,
                        input_hashes, out_hashes, t0)
    return EXIT_PASS if report.verdict else EXIT_VERDICT


# ---------------------------------------------------------------------------
# spde
# ---------------------------------------------------------------------------

def _make_field(obj, N: int) -> spde.Field:
    if not isinstance(obj, dict):
        raise spde.ConfigError("field spec must be an object")
    if "values" in obj:
        v = np.asarray(obj["values"], dtype=float)
        if len(v) != N:
            raise spde.ConfigError(f"field has {len(v)} values, grid has {N}")
        return spde.Field(v)
    kind = obj.get("kind")
    grid = np.arange(N) / N
    amp = float(obj.get("amp", 1.0))
    if kind == "const":
        return spde.Field(np.full(N, float(obj.get("value", amp))))
    if kind == "cos":
        return spde.Field(amp * np.cos(2 * np.pi * float(obj.get("freq", 1))
                                       * grid))
    if kind == "sin":
        return spde.Field(amp * np.sin(2 * np.pi * float(obj.get("freq", 1))
                                       * grid))
    raise spde.ConfigError(f"unknown field kind {kind!r}")


def _spde_common(args):
    cfg_obj = _load_config(args.config)
    if "spde" not in cfg_obj:
        raise spde.ConfigError("missing field 'spde'")
    config = spde.SpdeConfig.from_json_obj(cfg_obj["spde"])
    if args.seed is not None:
        config = config.with_seed(args.seed)
    return cfg_obj, config


def cmd_spde(args) -> int:
    t0 = time.monotonic()
    cfg_obj, config = _spde_common(args)
    input_hashes = {"config.json": serialize.file_hash(args.config)}
    sub = args.spde_command
    snapshots = None

    if sub == "run":
        u0 = _make_field(cfg_obj.get("u0", {"kind": "const", "value": 0.0}),
                         config.N)
        T = float(cfg_obj.get("T", config.T))
        n_record = int(cfg_obj.get("n_record", 11))
        times = experiments._record_grid(T, config.dt, n_record)
        from dataclasses import replace
        cfg = replace(config, T=T)
        snaps = spde.simulate(cfg, u0, times)
        rec = experiments.ExperimentRecord(name="run",
                                           config=cfg.to_json_obj(),
                                           times=times)
        for t in times:
            nsq = spde.l2_sq(snaps[t])
            m, _, lo, hi = experiments._mean_ci(nsq) if len(nsq) > 1 else (
                float(nsq[0]), 0.0, float(nsq[0]), float(nsq[0]))
            rec.add_stat(t, "energy_l2sq", m, lo, hi)
        snapshots = snaps
        summary = f"run: {len(times)} snapshots, final mean L2^2 " \
                  f"{rec.statistics[-1]['value']:.6g}"
    elif sub == "sync":
        x = _make_field(cfg_obj["x"], config.N)
        y = _make_field(cfg_obj["y"], config.N)
        rec = experiments.synchronization_experiment(
            config, x, y, T=float(cfg_obj.get("T", config.T)),
            n_paths=int(cfg_obj.get("n_paths", config.n_paths)))
        fit = rec.fits.get("sync_rate", {})
        summary = f"sync: rate {fit.get('rate', float('nan')):.6g}, " \
                  f"R^2 {fit.get('r_squared', float('nan')):.4f}, " \
                  f"verdict {rec.extra.get('verdict')}"
    elif sub == "ergodicity":
        x = _make_field(cfg_obj["x"], config.N)
        y = _make_field(cfg_obj["y"], config.N)
        rec = experiments.ergodicity_experiment(
            config, x, y, time_grid=cfg_obj["time_grid"],
            n_paths=int(cfg_obj.get("n_paths", config.n_paths)),
            extra_x_times=tuple(cfg_obj.get("extra_x_times", ())))
        fit = rec.fits.get("w_rate", {})
        summary = f"ergodicity: rate {fit.get('rate', float('nan')):.6g}, " \
                  f"verdict {rec.extra.get('verdict')}"
    elif sub == "swap":
        x = _make_field(cfg_obj["x"], config.N)
        rec = experiments.swap_probability_estimate(
            config, x, T=float(cfg_obj.get("T", 1.0)),
            n_paths=int(cfg_obj.get("n_paths", config.n_paths)))
        summary = f"swap: p_below {rec.extra['p_below_zero']:.4f} " \
                  f"(se {rec.extra['p_below_zero_se']:.4f}), " \
                  f"p_above {rec.extra['p_above_zero']:.4f}"
    elif sub == "energy":
        u0 = _make_field(cfg_obj["u0"], config.N)
        rec = experiments.energy_moments(
            config, u0, T=float(cfg_obj.get("T", config.T)),
            n_paths=int(cfg_obj.get("n_paths", config.n_paths)))
        summary = f"energy: dissipation inequality " \
                  f"{rec.extra['dissipation_inequality_holds']}, " \
                  f"C4 {rec.extra['smallest_C4']:.6g}"
    elif sub == "constants-demo":
        rec = experiments.constants_obstruction_demo(
            config, x_nonconst=_make_field(cfg_obj["x_nonconst"], config.N),
            x_const=_make_field(cfg_obj["x_const"], config.N),
            T=float(cfg_obj.get("T", config.T)),
            n_paths=int(cfg_obj.get("n_paths", config.n_paths)))
        summary = f"constants-demo: const fraction " \
                  f"{rec.extra['fraction_constant_const']:.4f}, nonconst " \
                  f"{rec.extra['fraction_constant_nonconst']:.4f}, " \
                  f"indicator TV {rec.extra['indicator_tv']:.4f}"
    elif sub == "convolution":
        rec = experiments.stochastic_convolution(
            config, T=float(cfg_obj.get("T", config.T)))
        summary = f"convolution: time exponent " \
                  f"{rec.extra['time_holder_exponent']:.4f}, space exponent " \
                  f"{rec.extra['space_holder_exponent']:.4f}"
    else:  # pragma: no cover - argparse restricts choices
        raise spde.ConfigError(f"unknown spde subcommand {sub!r}")

    _say(summary)
    print(serialize.dumps(rec.to_json_obj()))
    if args.out:
        written = experiments.write_run_archive(
            args.out, rec, snapshots=snapshots, n_grid=config.N,
            n_paths=config.n_paths)
        out_hashes = {fn: serialize.file_hash(os.path.join(args.out, fn))
                      for fn in written}
        _write_manifest(args.out, f"spde {sub}", args.config, config.seed,
                        input_hashes, out_hashes, t0)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def cmd_gallery(args) -> int:
    t0 = time.monotonic()
    names = list(gallery.ALL_CASES) if args.case == "all" else [args.case]
    for name in names:
        if name not in gallery.ALL_CASES:
            _say(f"unknown gallery case {name!r}; known: "
                 f"{', '.join(gallery.ALL_CASES)}")
            return EXIT_USAGE
    kwargs = {}
    if args.n is not None:
        kwargs["n"] = args.n
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.seed is not None:
        kwargs["seed"] = args.seed
    reports = [gallery.run_case(name, **kwargs) for name in names]
    all_hold = all(r["all_hold"] for r in reports)
    for r in reports:
        for c in r["claims"]:
            mark = "pass" if c["holds"] else "FAIL"
            _say(f"[{r['name']}] {mark}: {c['statement']} "
                 f"(lhs {c['lhs']:.6g}, rhs {c['rhs']:.6g})")
    obj = reports[0] if len(reports) == 1 else {"cases": reports,
                                               "all_hold": all_hold}
    out_hashes = _emit(obj, args.out, "gallery.json")
    if args.out:
        _write_manifest(args.out, "gallery", None, args.seed, {},
                        out_hashes, t0)
    return EXIT_PASS if all_hold else EXIT_VERDICT


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def cmd_transport(args) -> int:
    try:
        mu = np.asarray(serialize.load(args.mu)["p"], dtype=float)
        nu = np.asarray(serialize.load(args.nu)["p"], dtype=float)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        raise spde.ConfigError(f"bad distribution file: {exc}")
    if args.cost == "discrete":
        c = 1.0 - np.eye(len(mu))
    else:
        cobj, _ = _resolve(args.cost, os.getcwd(), "cost")
        c = np.asarray(cobj["C"], dtype=float)
    if len(mu) != len(nu) or c.shape != (len(mu), len(nu)):
        raise spde.ConfigError(
            f"shape mismatch: mu {len(mu)}, nu {len(nu)}, cost {c.shape}")
    cost = transport.CostMatrix(c)
    if args.method == "tv":
        res = transport.TransportResult(
            value=transport.total_variation(mu, nu), method="tv")
    elif args.method == "sinkhorn":
        res = transport.sinkhorn(mu, nu, cost, epsilon=args.epsilon)
    else:
        res = transport.wasserstein_exact(mu, nu, cost)
    _say(f"{res.method}: value {res.value:.12g}")
    _emit(res.to_json_obj(), args.out, "transport.json")
    if not res.converged:
        _say(f"numeric failure: {res.method} did not converge in "
             f"{res.iterations} iterations (marginal gap {res.gap:.3g})")
        return EXIT_NUMERIC
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _say(f"usage error: {message}")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monotone-ergo",
        description="Verification laboratory for ergodicity of "
                    "order-preserving Markov processes.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("chain-verify",
                        help="check the framework conditions and the "
                             "coupling-distance decay on a finite chain")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chain_verify)

    p = subs.add_parser("spde", help="torus reaction-diffusion experiments")
    p.add_argument("spde_command",
                   choices=["run", "sync", "ergodicity", "swap", "energy",
                            "constants-demo", "convolution"])
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_spde)

    p = subs.add_parser("gallery", help="run counterexample gallery cases")
    p.add_argument("case", help="case name or 'all'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_gallery)

    p = subs.add_parser("transport", help="coupling distance between two "
                                          "distribution files")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--cost", default="discrete",
                   help="'discrete' or a path to a JSON cost matrix {\"C\": ...}")
    p.add_argument("--method", choices=["exact", "sinkhorn", "tv"],
                   default="exact")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_transport)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except spde.NonFinite as exc:
        _say(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (spde.ConfigError, ChainError, PosetError,
            transport.TransportError) as exc:
        _say(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
