"""Benchmark of monotone_ergo: end-to-end time, set-up time and memory of
three workloads, and per-layer spans from a separate traced pass.

    python3 perfbench/run.py --workload {sync,ergodicity,exact,all}
                             --seed N --seconds S --trace {0,1}

Closed loop, one client: one single-threaded worker process runs one
operation after another until S seconds have passed (and, with
--trace 1, until at least one untraced and one traced operation are
done; the two alternate).  Every operation is a fresh process, so each
one measures set-up (interpreter start, imports, loading and validating
the inputs) as well as its run.  Three set-up-only processes per run add
set-up samples; one more, before any timing, fills the byte-code and
page caches.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json (medians over the run's operations); with --trace 1 they
are the per-layer metrics (means over its traced operations) and two
estimates of the tracing overhead: `trace.overhead_s` (traced minus
untraced median run_s, noisy) and `trace.wrapper_cost_s` (spans times
the measured cost of one wrapped call).  The lines above it say the
same for a reader, with quartiles, sample counts and the machine.  Exit
code 0 means the run measured; failed operations show in `failed`, not
in the exit code.
"""

from __future__ import annotations

import os

# Pinned before numpy can be imported here, and inherited by every worker.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0      # every run ends within the 180 s the caller allows

sys.path.insert(0, HERE)
import machine  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not measure at all."""


class Runner:
    """Spawns worker processes for one workload input."""

    def __init__(self, workload: str, input_path: str, deadline: float):
        self.workload = workload
        self.input_path = input_path
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def spawn(self, mode: str) -> dict:
        """One worker; its report plus `setup_s`, or `error`."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--input", self.input_path,
               "--mode", mode]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run ended")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                env=self.env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{self.workload} {mode} worker passed the "
                             f"{TIME_LIMIT_S:.0f} s limit")
        lines = out.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, json.JSONDecodeError):
            report = None
        if report is None:
            tail = err.strip().splitlines()[-3:]
            return {"error": f"worker exited {proc.returncode}: "
                             + " | ".join(tail)}
        report["setup_s"] = report["t_ready"] - t_spawn
        return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: warm-up, set-up probes, then operations for `seconds`."""
    t_start = time.monotonic()
    os.makedirs(WORKDIR, exist_ok=True)
    path = workloads.make_input(workload, seed, ROOT, WORKDIR)
    runner = Runner(workload, path, t_start + TIME_LIMIT_S)

    probes = []
    for _ in range(SETUP_PROBES + 1):
        probe = runner.spawn("setup")
        if "error" in probe:
            raise BenchError(f"set-up failed: {probe['error']}")
        probes.append(probe)
    setups = [p["setup_s"] for p in probes[1:]]   # the first only warms up

    ops = []
    window_end = time.monotonic() + seconds
    while True:
        mode = "traced" if trace and len(ops) % 2 == 1 else "run"
        ops.append((mode, runner.spawn(mode)))
        modes = {m for m, _ in ops}
        if time.monotonic() >= window_end and (
                not trace or modes == {"run", "traced"}):
            break

    expected = (workloads.exact_instance_count(workloads.exact_batch(seed))
                if workload == "exact" else 1)
    attempted = failed = 0
    failures = []
    for _, rep in ops:
        if "error" in rep:
            attempted += expected
            failed += expected
            failures.append(rep["error"])
            continue
        attempted += rep["attempted"]
        failed += rep["failed"]
        failures.extend(rep["failures"])
        setups.append(rep["setup_s"])
    plain = [rep for mode, rep in ops if mode == "run" and "error" not in rep]
    traced = [rep for mode, rep in ops
              if mode == "traced" and "error" not in rep]
    if not plain or (trace and not traced):
        raise BenchError("no operation completed: "
                         + "; ".join(failures[:3]))
    return {"workload": workload, "seed": seed, "attempted": attempted,
            "failed": failed, "failures": failures, "setups": setups,
            "plain": plain, "traced": traced,
            "stack": probes[0]["stack"],
            "wall_s": time.monotonic() - t_start}


def end_to_end(res: dict) -> dict:
    plain = res["plain"]
    return {"run_s": statistics.median(r["run_s"] for r in plain),
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in plain)}


def per_layer(res: dict) -> dict:
    traced = res["traced"]
    out = {name: statistics.fmean(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    traced_run = statistics.median(r["run_s"] for r in traced)
    plain_run = statistics.median(r["run_s"] for r in res["plain"])
    out["trace.run_s"] = traced_run
    out["trace.unattributed_s"] = statistics.fmean(
        r["unattributed_s"] for r in traced)
    out["trace.overhead_s"] = traced_run - plain_run
    return out


def print_report(res: dict, trace: bool, units: dict) -> dict:
    """Human-readable lines; returns the metrics of the result line."""
    w = res["workload"]
    n_ops = len(res["plain"]) + len(res["traced"])
    print(f"== {w} seed {res['seed']}: {n_ops} operations "
          f"({len(res['traced'])} traced), {len(res['setups'])} set-ups, "
          f"{res['wall_s']:.1f} s wall")
    run_s = [r["run_s"] for r in res["plain"]]
    q1, q2, q3 = quartiles(run_s)
    print(f"   run_s         median {q2:.4f} s  quartiles [{q1:.4f}, "
          f"{q3:.4f}]  n={len(run_s)}")
    q1, q2, q3 = quartiles(res["setups"])
    print(f"   setup_s       median {q2:.4f} s  quartiles [{q1:.4f}, "
          f"{q3:.4f}]  n={len(res['setups'])}")
    rss = [r["peak_rss_mib"] for r in res["plain"]]
    print(f"   peak_rss_mib  median {statistics.median(rss):.1f} MiB  "
          f"max {max(rss):.1f}  n={len(rss)}")
    frac = res["failed"] / res["attempted"]
    print(f"   fail_frac     {res['failed']}/{res['attempted']} = {frac:.4g}")
    for msg in res["failures"][:5]:
        print(f"   failure: {msg}")
    if not trace:
        return end_to_end(res)

    layers = per_layer(res)
    rep = res["traced"][0]
    print(f"   traced run: run_s {rep['run_s']:.4f} s = self times "
          f"{rep['self_sum_s']:.4f} + unattributed "
          f"{rep['unattributed_s']:.4f}")
    n_traced = len(res["traced"])
    q1, _, q3 = quartiles(run_s)
    overhead = layers["trace.overhead_s"]
    resolved = min(len(run_s), n_traced) >= 2 and abs(overhead) > q3 - q1
    print(f"   tracing overhead: traced - untraced run_s {overhead:+.4f} s "
          f"(n={n_traced} traced, n={len(run_s)} untraced, untraced "
          f"quartile spread {q3 - q1:.4f} s"
          f"{'' if resolved else '; unresolved, within noise'}); "
          f"spans x per-call wrapper cost "
          f"{layers['trace.wrapper_cost_s']:.4f} s")
    table = sorted(rep["span_table"].items(),
                   key=lambda kv: -kv[1]["self_s"])
    for name, row in table:
        print(f"   span {name:34s} calls {row['calls']:7d}  total "
              f"{row['s']:9.4f} s  self {row['self_s']:9.4f} s")
    for name, value in layers.items():
        print(f"   layer {name:42s} {value:.6g} {units[name]}")
    return layers


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "monotone_ergo",
                                       "__init__.py")):
        print(f"no monotone_ergo source under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                     "end_to_end"]]
    todo = (list(workloads.WORKLOADS) if args.workload == "all"
            else [args.workload])

    print("machine:", json.dumps(machine.cpu_info()))
    results = {}
    try:
        for w in todo:
            res = measure(w, args.seed, args.seconds, bool(args.trace))
            if not results:
                print("stack:", json.dumps(res["stack"]))
            metrics = print_report(res, bool(args.trace), units)
            missing = set(names) - set(metrics)
            if missing:
                raise BenchError(f"metrics not measured: {sorted(missing)}")
            results[w] = {
                "correct": res["failed"] == 0, "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {n: {"value": metrics[n], "unit": units[n]}
                            for n in names}}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[todo[0]] if len(todo) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
