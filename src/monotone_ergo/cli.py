"""Command-line entry point.

Subcommands: chain-verify, spde (run | sync | ergodicity | swap | energy |
constants-demo), gallery, transport.

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
    """The JSON object in the file at `path`; a file that cannot be read,
    invalid JSON or any other top-level value is a ConfigError naming
    `what`."""
    try:
        obj = serialize.load(path)
    except OSError as exc:
        raise serialize.ConfigError(f"{what}: {path}: {exc.strerror}")
    except ValueError as exc:
        raise serialize.ConfigError(f"{what}: not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise serialize.ConfigError(f"{what}: must be a JSON object")
    return obj


def _write(args, subcommand: str, name: str, payload, t0: float, seed=None,
           inputs=None, files=None) -> None:
    """Print `payload` as JSON.  With --out, write it to `<name>.json` and
    each of `files` (file name -> text or bytes) into the out directory,
    then manifest.json with the sha256 of every file written and of every
    input file (`inputs`, label -> path); an OSError is a ConfigError."""
    text = serialize.dumps(payload)
    print(text)
    if not args.out:
        return
    files = {f"{name}.json": text + "\n", **(files or {})}
    try:
        os.makedirs(args.out, exist_ok=True)
        outputs = {}
        for fn, content in files.items():
            path = os.path.join(args.out, fn)
            with serialize.atomic_open(path, "wb") as fh:
                fh.write(content.encode() if isinstance(content, str)
                         else content)
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
    except OSError as exc:
        raise serialize.ConfigError(f"--out {args.out}: {exc}") from None


# ---------------------------------------------------------------------------
# chain-verify
# ---------------------------------------------------------------------------

# the config keys, all required, each an object, with their readers; the
# space is read against the poset, by `read_chain`
CHAIN_READERS = {"poset": FinitePoset.from_json_obj,
                 "kernel": FiniteKernel.from_json_obj,
                 "space": lambda space: space}


def read_chain(path: str):
    """(space, kernel) of the chain-verify config at `path`."""
    cfg = serialize.read_keys(_load_object(path, "config"), CHAIN_READERS,
                              "config", CHAIN_READERS)
    try:
        space = OrderedSpaceSpec.from_json_obj(cfg["space"], cfg["poset"])
    except serialize.ConfigError as exc:
        raise serialize.ConfigError(f"field 'space': {exc}") from None
    return space, cfg["kernel"]


def _swap_failure(report, swap_eps: float) -> str:
    """Why the failed swap check `report` (check_swap_condition) failed."""
    if isinstance(report.witness, tuple):
        return (f"swap_A element {report.witness[0]} does not precede swap_B "
                f"element {report.witness[1]}")
    if report.witness is not None:
        return report.witness
    got = report.attained
    return (f"from state {got['argmin_state']} of {{V <= {got['level']:.6g}}}"
            f" a swap set is hit with probability {got['attained_eps']:.6g},"
            f" not above swap_eps {swap_eps:.6g}")


def cmd_chain_verify(args) -> int:
    t0 = time.monotonic()
    # a malformed input is a config error (exit 2), raised by the readers and
    # theorem_main_verify; a failed condition is a verdict (exit 1)
    space, kernel = read_chain(args.config)
    report = theorem_main_verify(space, kernel)

    _say(f"{'condition':32s} verdict")
    for c in report.conditions:
        mark = "pass" if c.holds else "FAIL"
        _say(f"{c.condition:32s} {mark}")
        if c.condition == "swap" and not c.holds:
            _say(f"swap: {_swap_failure(c, space.swap_eps)}")
    for (x, y), fit in zip(report.pairs, report.fits):
        _say(f"pair ({x}, {y}): rate {fit.rate:.6g}, R^2 {fit.r_squared:.4f},"
             f" {'pass' if fit.verdict else 'FAIL'}")
    _say(f"overall verdict: {'pass' if report.verdict else 'FAIL'}")

    _write(args, "chain-verify", "report", report.to_json_obj(), t0,
           inputs={"config.json": args.config})
    return EXIT_PASS if report.verdict else EXIT_VERDICT


# ---------------------------------------------------------------------------
# spde
# ---------------------------------------------------------------------------

def _fit(rec, name, key):
    return rec.fits.get(name, {}).get(key, float("nan"))


# subcommand -> (experiment, {top-level key it reads: default, ... where
# the key must be given}, stderr summary of its record)
SPDE_EXPERIMENTS = {
    "run": (experiments.snapshot_run,
            {"u0": {"kind": "const", "amp": 0.0}, "n_record": 11},
            lambda rec: f"run: {len(rec.times)} snapshots, final mean L2^2 "
                        f"{rec.statistics[-1]['value']:.6g}"),
    "sync": (experiments.synchronization_experiment,
             {"x": ..., "y": ...},
             lambda rec: f"sync: rate {_fit(rec, 'sync_rate', 'rate'):.6g}, "
                         f"R^2 {_fit(rec, 'sync_rate', 'r_squared'):.4f}, "
                         f"verdict {rec.extra.get('verdict')}"),
    "ergodicity": (experiments.ergodicity_experiment,
                   {"x": ..., "y": ..., "time_grid": ...,
                    "extra_x_times": ()},
                   lambda rec: f"ergodicity: rate "
                               f"{_fit(rec, 'w_rate', 'rate'):.6g}, "
                               f"verdict {rec.extra.get('verdict')}"),
    "swap": (experiments.swap_probability_estimate,
             {"x": ...},
             lambda rec: f"swap: p_below {rec.extra['p_below_zero']:.4f} "
                         f"(se {rec.extra['p_below_zero_se']:.4f}), "
                         f"p_above {rec.extra['p_above_zero']:.4f}"),
    "energy": (experiments.energy_moments,
               {"u0": ...},
               lambda rec: f"energy: dissipation inequality "
                           f"{rec.extra['dissipation_inequality_holds']}, "
                           f"C4 {rec.extra['smallest_C4']:.6g}"),
    "constants-demo": (
        experiments.constants_obstruction_demo,
        {"x_nonconst": ..., "x_const": ...},
        lambda rec: f"constants-demo: const fraction "
                    f"{rec.extra['fraction_constant_const']:.4f}, nonconst "
                    f"{rec.extra['fraction_constant_nonconst']:.4f}, "
                    f"indicator TV {rec.extra['indicator_tv']:.4f}"),
}


_times = serialize.checked(
    serialize.array(1, float), lambda t: np.all((t >= 0) & (t < np.inf)),
    "an array of finite numbers >= 0")

# the top-level keys but the solver block and the fields (spde.read_field);
# every spde subcommand reads "T", which repeats the solver block's T
_SPDE_READERS = {"T": serialize.number,
                 "n_record": serialize.checked(
                     serialize.integer, lambda n: n >= 1, "at least 1"),
                 "time_grid": serialize.checked(
                     _times, len, "a non-empty array"),
                 "extra_x_times": _times}


def read_spde(path: str, sub: str):
    """(solver config, experiment keyword arguments) of `spde sub` from the
    config file at `path`.  A top-level T that differs from the solver
    block's is a ConfigError, and so is a field that does not fit the grid,
    naming its key."""
    keys = SPDE_EXPERIMENTS[sub][1]
    cfg = {**keys, **serialize.read_keys(
        _load_object(path, "config"),
        {"spde": spde.SpdeConfig.from_json_obj,
         **{key: _SPDE_READERS.get(key, spde.read_field)
            for key in ("T", *keys)}},
        "config", {"spde", *(key for key in keys if keys[key] is ...)})}
    config = cfg.pop("spde")
    T = cfg.pop("T", None)
    if T is not None and T != config.T:
        raise serialize.ConfigError(f"field 'T': must equal the spde block's "
                                    f"T, {config.T!r}, not {T!r}")
    for key in [key for key in cfg if key not in _SPDE_READERS]:
        try:
            cfg[key] = spde.Field(spde.profile(cfg[key], config.N))
        except serialize.ConfigError as exc:
            raise serialize.ConfigError(f"field {key!r}: {exc}") from None
    return config, cfg


def cmd_spde(args) -> int:
    t0 = time.monotonic()
    sub = args.spde_command
    experiment, _, summary = SPDE_EXPERIMENTS[sub]
    config, kwargs = read_spde(args.config, sub)
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
    # "trivially-synchronized" is a positive verdict, not a False one
    return EXIT_VERDICT if rec.extra.get("verdict") is False else EXIT_PASS


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------

def cmd_gallery(args) -> int:
    t0 = time.monotonic()
    if args.case not in ("all", *gallery.ALL_CASES):
        _say(f"unknown gallery case {args.case!r}; known: "
             f"{', '.join(gallery.ALL_CASES)}")
        return EXIT_USAGE
    names = list(gallery.ALL_CASES) if args.case == "all" else [args.case]
    # the options each selected case takes, with their defaults
    takes = {name: gallery.ALL_CASES[name][1] for name in names}
    given = {key: getattr(args, key) for key in ("n", "samples", "seed")
             if getattr(args, key) is not None}
    for key in given:
        if not any(key in options for options in takes.values()):
            _say(f"usage error: {args.case} takes no --{key}")
            return EXIT_USAGE
    reports = [gallery.run_case(name, **{key: value for key, value
                                         in given.items() if key in options})
               for name, options in takes.items()]
    # the seed of the sampled case, if one ran
    seed = next((given.get("seed", options["seed"])
                 for options in takes.values() if "seed" in options), None)
    all_hold = all(r["all_hold"] for r in reports)
    for r in reports:
        for c in r["claims"]:
            mark = "pass" if c["holds"] else "FAIL"
            _say(f"[{r['name']}] {mark}: {c['statement']} "
                 f"(lhs {c['lhs']:.6g}, rhs {c['rhs']:.6g})")
    obj = reports[0] if len(reports) == 1 else {"cases": reports,
                                               "all_hold": all_hold}
    _write(args, "gallery", "gallery", obj, t0, seed=seed)
    return EXIT_PASS if all_hold else EXIT_VERDICT


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

# each kind of input file with its keys, all required
TRANSPORT_FILES = {"distribution file": {"p": serialize.array(1, float)},
                   "cost file": {"C": serialize.array(2, float)}}


def _read_file(path: str, what: str) -> dict:
    keys = TRANSPORT_FILES[what]
    return serialize.read_keys(_load_object(path, what), keys, what, keys)


def cmd_transport(args) -> int:
    t0 = time.monotonic()
    # an option the method does not use is a usage error, not ignored
    for option, unused in (
            ("--epsilon", args.epsilon is not None
             and args.method != "sinkhorn"),
            ("--cost file", args.cost != "discrete" and args.method == "tv")):
        if unused:
            _say(f"usage error: --method {args.method} takes no {option}")
            return EXIT_USAGE
    inputs = {"mu": args.mu, "nu": args.nu}
    mu, nu = (_read_file(path, "distribution file")["p"]
              for path in (args.mu, args.nu))
    if args.cost == "discrete":
        c = 1.0 - np.eye(len(mu))
    else:
        c = _read_file(args.cost, "cost file")["C"]
        inputs["cost"] = args.cost
    # the discrete cost (tv's) is square; a cost file may be m x n
    if c.shape != (len(mu), len(nu)):
        raise serialize.ConfigError(
            f"shape mismatch: mu {len(mu)}, nu {len(nu)}, cost {c.shape}")
    cost = transport.CostMatrix(c)
    if args.method == "tv":
        res = transport.TransportResult(
            value=transport.total_variation(mu, nu), method="tv")
    elif args.method == "sinkhorn":
        epsilon = 0.01 if args.epsilon is None else args.epsilon
        res = transport.sinkhorn(mu, nu, cost, epsilon=epsilon)
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
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spde)

    p = subs.add_parser("gallery", help="run counterexample gallery cases")
    p.add_argument("case", help="case name or 'all'")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gallery)

    p = subs.add_parser("transport", help="coupling distance between two "
                                          "distribution files")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--cost", default="discrete",
                   help="'discrete' or a path to a JSON cost matrix {\"C\": ...}")
    p.add_argument("--method", choices=["exact", "sinkhorn", "tv"],
                   default="exact")
    p.add_argument("--epsilon", type=float, default=None,
                   help="sinkhorn's regularization (default 0.01)")
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
        if os.path.exists(args.out or "") and not os.path.isdir(args.out):
            raise serialize.ConfigError(f"--out {args.out}: not a directory")
        return args.func(args)
    except (spde.NonFinite, transport.SinkhornDiverged,
            transport.NotConverged) as exc:
        _say(f"numeric failure: {exc}")
        return EXIT_NUMERIC
    except (serialize.ConfigError, ChainError, PosetError,
            transport.TransportError) as exc:
        _say(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
