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


def _load_object(path: str, what: str) -> dict:
    """The JSON object in the file at `path`; a missing file, invalid JSON
    or any other top-level value is a ConfigError naming `what`."""
    try:
        obj = serialize.load(path)
    except FileNotFoundError:
        raise spde.ConfigError(f"{what}: file not found: {path}")
    except ValueError as exc:
        raise spde.ConfigError(f"{what}: not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise spde.ConfigError(f"{what}: must be a JSON object")
    return obj


def _read_config(path: str, keys: dict) -> dict:
    """The JSON object at `path` with every key of `keys` (key -> default,
    ... if it must be given) filled in; a missing or an unknown key is a
    ConfigError."""
    cfg = _load_object(path, "config")
    spde.reject_unknown(cfg, keys, "config")
    missing = [key for key, default in keys.items()
               if default is ... and key not in cfg]
    if missing:
        raise spde.ConfigError(f"missing field(s) {missing}")
    return {**keys, **cfg}


def _write(args, subcommand: str, name: str, payload, t0: float, seed=None,
           inputs=None, files=None) -> None:
    """Print `payload` as JSON.  With --out, write it to `<name>.json` and
    each of `files` (file name -> text or bytes) into the out directory,
    then manifest.json with the sha256 of every file written and of every
    input file (`inputs`, label -> path)."""
    text = serialize.dumps(payload)
    print(text)
    if not args.out:
        return
    os.makedirs(args.out, exist_ok=True)
    outputs = {}
    for fn, content in {f"{name}.json": text + "\n", **(files or {})}.items():
        path = os.path.join(args.out, fn)
        with serialize.atomic_open(path, "wb") as fh:
            fh.write(content.encode() if isinstance(content, str) else content)
        outputs[fn] = serialize.file_hash(path)
    serialize.dump({
        "subcommand": subcommand,
        "config_path": getattr(args, "config", None),
        "seed": seed,
        "out_dir": args.out,
        "tool_version": __version__,
        "input_hashes": {label: serialize.file_hash(path)
                         for label, path in (inputs or {}).items()},
        "output_hashes": outputs,
        "duration_seconds": time.monotonic() - t0,
    }, os.path.join(args.out, "manifest.json"))


def _resolve(obj, config_dir: str, field_name: str):
    """A config field may hold an inline object or a path to a JSON file."""
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(config_dir, obj)
        return _load_object(path, f"field {field_name!r}"), path
    if isinstance(obj, dict):
        return obj, None
    raise spde.ConfigError(f"field {field_name!r} must be an object or a path")


# ---------------------------------------------------------------------------
# chain-verify
# ---------------------------------------------------------------------------

# pairs defaults to every pair i < j of the poset
CHAIN_KEYS = {"poset": ..., "kernel": ..., "space": ...,
              "pairs": None, "horizon": 40, "burn_in_frac": 0.125,
              "r2_threshold": 0.99}


def cmd_chain_verify(args) -> int:
    t0 = time.monotonic()
    cfg = _read_config(args.config, CHAIN_KEYS)
    cdir = os.path.dirname(os.path.abspath(args.config))
    inputs = {"config.json": args.config}
    for key in ("poset", "kernel", "space"):
        cfg[key], path = _resolve(cfg[key], cdir, key)
        if path:
            inputs[key] = path
    # a malformed input is a config error (exit 2), raised by the input
    # types and theorem_main_verify; a failed condition is a verdict (exit 1)
    try:
        poset = FinitePoset.from_json_obj(cfg["poset"])
        kernel = FiniteKernel.from_json_obj(cfg["kernel"])
        space = OrderedSpaceSpec.from_json_obj(cfg["space"], poset)
        horizon = int(cfg["horizon"])
        burn_in_frac = float(cfg["burn_in_frac"])
        r2_threshold = float(cfg["r2_threshold"])
    except (KeyError, TypeError, ValueError) as exc:
        raise spde.ConfigError(str(exc))

    pairs = cfg["pairs"] if cfg["pairs"] is not None \
        else [(i, j) for i in range(poset.n) for j in range(poset.n) if i < j]
    report = theorem_main_verify(space, kernel, pairs, horizon,
                                 burn_in_frac=burn_in_frac,
                                 r2_threshold=r2_threshold)

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

    _write(args, "chain-verify", "report", report.to_json_obj(), t0,
           inputs=inputs)
    return EXIT_PASS if report.verdict else EXIT_VERDICT


# ---------------------------------------------------------------------------
# spde
# ---------------------------------------------------------------------------

def _fit(rec, name, key):
    return rec.fits.get(name, {}).get(key, float("nan"))


# subcommand -> (experiment, {top-level key it reads: default}, stderr
# summary of its record); a default of None is the solver block's own T or
# n_paths
SPDE_EXPERIMENTS = {
    "run": (experiments.snapshot_run,
            {"u0": {"kind": "const", "value": 0.0}, "T": None,
             "n_paths": None, "n_record": 11},
            lambda rec: f"run: {len(rec.times)} snapshots, final mean L2^2 "
                        f"{rec.statistics[-1]['value']:.6g}"),
    "sync": (experiments.synchronization_experiment,
             {"x": ..., "y": ..., "T": None, "n_paths": None},
             lambda rec: f"sync: rate {_fit(rec, 'sync_rate', 'rate'):.6g}, "
                         f"R^2 {_fit(rec, 'sync_rate', 'r_squared'):.4f}, "
                         f"verdict {rec.extra.get('verdict')}"),
    "ergodicity": (experiments.ergodicity_experiment,
                   {"x": ..., "y": ..., "time_grid": ...,
                    "n_paths": None, "extra_x_times": ()},
                   lambda rec: f"ergodicity: rate "
                               f"{_fit(rec, 'w_rate', 'rate'):.6g}, "
                               f"verdict {rec.extra.get('verdict')}"),
    "swap": (experiments.swap_probability_estimate,
             {"x": ..., "T": 1.0, "n_paths": None},
             lambda rec: f"swap: p_below {rec.extra['p_below_zero']:.4f} "
                         f"(se {rec.extra['p_below_zero_se']:.4f}), "
                         f"p_above {rec.extra['p_above_zero']:.4f}"),
    "energy": (experiments.energy_moments,
               {"u0": ..., "T": None, "n_paths": None},
               lambda rec: f"energy: dissipation inequality "
                           f"{rec.extra['dissipation_inequality_holds']}, "
                           f"C4 {rec.extra['smallest_C4']:.6g}"),
    "constants-demo": (
        experiments.constants_obstruction_demo,
        {"x_nonconst": ..., "x_const": ..., "T": None,
         "n_paths": None},
        lambda rec: f"constants-demo: const fraction "
                    f"{rec.extra['fraction_constant_const']:.4f}, nonconst "
                    f"{rec.extra['fraction_constant_nonconst']:.4f}, "
                    f"indicator TV {rec.extra['indicator_tv']:.4f}"),
    "convolution": (experiments.stochastic_convolution, {"T": None},
                    lambda rec: f"convolution: time exponent "
                                f"{rec.extra['time_holder_exponent']:.4f}, "
                                f"space exponent "
                                f"{rec.extra['space_holder_exponent']:.4f}"),
}
# how each top-level key but the initial fields becomes an argument
_SPDE_VALUES = {"T": float, "n_paths": int, "n_record": int,
                "time_grid": list, "extra_x_times": tuple}


def read_spde(path: str, sub: str, seed):
    """(solver config, experiment keyword arguments) of `spde sub` from the
    config file at `path`, the solver seed replaced by `seed` if given."""
    cfg = _read_config(path, {"spde": ..., **SPDE_EXPERIMENTS[sub][1]})
    config = spde.SpdeConfig.from_json_obj(cfg.pop("spde"))
    if seed is not None:
        config = config.with_seed(seed)
    solver = {"T": config.T, "n_paths": config.n_paths}
    kwargs = {}
    for key, value in cfg.items():
        value = solver.get(key) if value is None else value
        try:
            kwargs[key] = _SPDE_VALUES[key](value) if key in _SPDE_VALUES \
                else spde.Field.from_json_obj(value, config.N)
        except (TypeError, ValueError) as exc:
            raise spde.ConfigError(f"field {key!r}: {exc}")
    return config, kwargs


def cmd_spde(args) -> int:
    t0 = time.monotonic()
    sub = args.spde_command
    experiment, _, summary = SPDE_EXPERIMENTS[sub]
    config, kwargs = read_spde(args.config, sub, args.seed)
    # looked up by name, so that a wrapper installed on the module (a
    # profiler's span) sees the call
    rec = getattr(experiments, experiment.__name__)(config, **kwargs)
    _say(summary(rec))
    files = {} if not args.out else {
        "config.json": serialize.dumps(rec.config) + "\n",
        "statistics.csv": serialize.statistics_csv(rec.statistics),
        **serialize.snapshot_files(rec.snapshots)}
    _write(args, f"spde {sub}", "record", rec.to_json_obj(), t0,
           seed=config.seed, inputs={"config.json": args.config}, files=files)
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
    kwargs = {key: value for key, value in (("n", args.n),
                                            ("samples", args.samples),
                                            ("seed", args.seed))
              if value is not None}
    reports = [gallery.run_case(name, **kwargs) for name in names]
    all_hold = all(r["all_hold"] for r in reports)
    for r in reports:
        for c in r["claims"]:
            mark = "pass" if c["holds"] else "FAIL"
            _say(f"[{r['name']}] {mark}: {c['statement']} "
                 f"(lhs {c['lhs']:.6g}, rhs {c['rhs']:.6g})")
    obj = reports[0] if len(reports) == 1 else {"cases": reports,
                                               "all_hold": all_hold}
    _write(args, "gallery", "gallery", obj, t0, seed=args.seed)
    return EXIT_PASS if all_hold else EXIT_VERDICT


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _array_field(path: str, key: str, what: str, ndim: int) -> np.ndarray:
    """The `ndim`-dimensional float array under `key` of the JSON object in
    the file at `path`; anything else there is a ConfigError."""
    obj = _load_object(path, f"{what} file")
    if key not in obj:
        raise spde.ConfigError(f"{what} file: missing key {key!r}: {path}")
    try:
        arr = np.asarray(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise spde.ConfigError(f"{what} file: {key!r} is not numeric: {exc}")
    if arr.ndim != ndim:
        raise spde.ConfigError(
            f"{what} file: {key!r} must be a {ndim}-d array: {path}")
    return arr


def cmd_transport(args) -> int:
    t0 = time.monotonic()
    inputs = {"mu": args.mu, "nu": args.nu}
    mu, nu = (_array_field(path, "p", "distribution", 1)
              for path in (args.mu, args.nu))
    if args.cost == "discrete":
        c = 1.0 - np.eye(len(mu))
    else:
        c = _array_field(args.cost, "C", "cost", 2)
        inputs["cost"] = args.cost
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
    _write(args, "transport", "transport", res.to_json_obj(), t0,
           inputs=inputs)
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
    p.add_argument("spde_command", choices=list(SPDE_EXPERIMENTS))
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_spde)

    p = subs.add_parser("gallery", help="run counterexample gallery cases")
    p.add_argument("case", help="case name or 'all'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    _add_common(p)
    # the sampled case's seed when none is given, recorded in the manifest
    p.set_defaults(func=cmd_gallery, seed=0)

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
    except (spde.NonFinite, transport.SinkhornDiverged) as exc:
        _say(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (spde.ConfigError, ChainError, PosetError,
            transport.TransportError) as exc:
        _say(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
