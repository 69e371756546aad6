"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py --workload W --input FILE --mode M

M is `setup` (import and load the inputs, then stop), `run` (also run
the workload once, untraced) or `traced` (the same run with a span
around every layer entry point of spans.targets()).  The parent pins the
BLAS and OpenMP thread counts in this process's environment.

The last stdout line is one JSON object: `t_ready` (CLOCK_MONOTONIC when
the inputs were ready, so the parent can compute set-up time from the
moment it spawned this process), `run_s`, `peak_rss_mib`, `attempted`,
`failed` and the first failure messages; traced runs add `layers`,
`span_table`, `unattributed_s` and `self_sum_s`.  Correctness checks run
after the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    sys.path.insert(0, SRC)
    import monotone_ergo
    from monotone_ergo import cli  # noqa: F401  (import cost is set-up)
    where = os.path.dirname(os.path.abspath(monotone_ergo.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"monotone_ergo imported from {where}, not {SRC}")
    return monotone_ergo


class Workload:
    """Loads inputs (set-up), runs them (timed) and checks the outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def cli(self, argv):
        """cli.main with stdout captured; returns (exit code, stdout)."""
        from monotone_ergo import cli
        out = io.StringIO()
        span = (self.tracer.span("cli.main") if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), span:
            code = cli.main(argv)
        return code, out.getvalue()


class SpdeWorkload(Workload):
    def __init__(self, name, path, tracer=None):
        super().__init__(tracer)
        from monotone_ergo import spde
        self.name, self.path = name, path
        with open(path) as fh:
            self.obj = json.load(fh)
        spde.SpdeConfig.from_json_obj(self.obj["spde"])  # validation
        self.attempted = 1

    def run(self):
        self.code, self.stdout = self.cli(["spde", self.name, self.path])

    def check(self):
        """(failure messages, number of failed operations)."""
        import workloads
        fails = workloads.check_exit(f"spde {self.name}", self.code, 0)
        if not fails:
            record = json.loads(self.stdout)
            fails = (workloads.check_sync(record, T=float(self.obj["T"]))
                     if self.name == "sync"
                     else workloads.check_ergodicity(record))
        return fails, int(bool(fails))


class ExactWorkload(Workload):
    def __init__(self, path, tracer=None):
        super().__init__(tracer)
        import numpy as np
        from monotone_ergo import posets, transport
        import workloads
        with open(path) as fh:
            batch = json.load(fh)
        self.attempted = workloads.exact_instance_count(batch)
        self.pairs = []
        for item in batch["posets"]:
            order = posets.validate_poset(np.asarray(item["leq"], dtype=bool))
            for pair in item["pairs"]:
                self.pairs.append((order, posets.Distribution(pair["mu"]),
                                   posets.Distribution(pair["nu"]),
                                   pair["dominated"]))
        self.transport = [
            (np.asarray(t["a"]), np.asarray(t["b"]),
             transport.CostMatrix(np.asarray(t["C"])), float(t["epsilon"]))
            for t in batch["transport"]]
        self.chain_verify = [
            (os.path.join(SRC, "monotone_ergo", "fixtures", name), expected)
            for name, expected in batch["chain_verify"]]
        self.errors = []

    def _attempt(self, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # one failed instance must not stop a batch
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def run(self):
        from monotone_ergo import posets, transport
        self.pair_out = [
            (self._attempt(posets.stochastically_dominates, mu, nu, order),
             self._attempt(posets.strassen_coupling, mu, nu, order))
            for order, mu, nu, _ in self.pairs]
        self.transport_out = [
            (self._attempt(transport.wasserstein_exact, a, b, cost),
             self._attempt(transport.sinkhorn, a, b, cost, eps))
            for a, b, cost, eps in self.transport]
        self.chain_out = [self._attempt(self.cli, ["chain-verify", path])
                          for path, _ in self.chain_verify]
        self.gallery_out = self._attempt(self.cli, ["gallery", "all"])

    def check(self):
        """(failure messages, number of failed instances)."""
        from monotone_ergo.posets import Coupling
        import workloads
        per_instance = []
        for (order, mu, nu, dominated), (enum, cpl) in zip(self.pairs,
                                                            self.pair_out):
            if enum is None or cpl is None:
                per_instance.append(["poset instance raised"])
                continue
            plan = cpl.plan if isinstance(cpl, Coupling) else None
            per_instance.append(workloads.check_poset_case(
                order.leq, mu.p, nu.p, dominated, enum, plan))
        for (a, b, cost, eps), (ex, sk) in zip(self.transport,
                                               self.transport_out):
            if ex is None or sk is None:
                per_instance.append(["transport instance raised"])
                continue
            per_instance.append(workloads.check_transport_case(
                ex.value, lp_oracle(a, b, cost.c), sk.value, sk.gap, eps,
                cost.c.shape))
        for (path, expected), out in zip(self.chain_verify, self.chain_out):
            name = os.path.basename(path)
            per_instance.append(
                [f"chain-verify {name} raised"] if out is None
                else workloads.check_exit(f"chain-verify {name}", out[0],
                                          expected))
        if self.gallery_out is None:
            per_instance.append(["gallery all raised"])
        else:
            code, stdout = self.gallery_out
            per_instance.append(workloads.check_gallery(code,
                                                        json.loads(stdout)))
        fails = [f[0] for f in per_instance if f]
        return self.errors + fails, sum(1 for f in per_instance if f)


def lp_oracle(a, b, c) -> float:
    """Optimal transport value by HiGHS on the dense transportation LP."""
    import numpy as np
    from scipy.optimize import linprog
    m, n = c.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["sync", "ergodicity", "exact"])
    parser.add_argument("--input", required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "run", "traced"])
    args = parser.parse_args(argv)

    _import_program()
    import spans as tracing
    tracer = tracing.Tracer() if args.mode == "traced" else None
    installed = (tracing.traced(tracer) if tracer
                 else contextlib.nullcontext())
    with installed:
        if args.workload == "exact":
            work = ExactWorkload(args.input, tracer)
        else:
            work = SpdeWorkload(args.workload, args.input, tracer)
        t_ready = time.monotonic()
        if args.mode == "setup":
            import machine
            print(json.dumps({"t_ready": t_ready,
                              "stack": machine.stack_info()}))
            return 0
        if tracer:
            setup_spans, _ = tracer.take()
        t0 = time.perf_counter()
        work.run()
        run_s = time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fails, n_failed = work.check()
    out = {"t_ready": t_ready, "run_s": run_s, "peak_rss_mib": peak_rss_mib,
           "attempted": work.attempted, "failed": n_failed,
           "failures": fails[:5]}
    if tracer:
        run_spans, counts = tracer.take()
        tracing.check_nesting(run_spans)
        table = tracing.span_table(run_spans)
        out["layers"] = tracing.layer_metrics(run_spans, counts, setup_spans)
        out["layers"]["trace.wrapper_cost_s"] = (
            len(run_spans) * tracing.wrapper_cost_s())
        out["span_table"] = table
        out["unattributed_s"] = tracing.unattributed(run_spans, run_s)
        out["self_sum_s"] = sum(r["self_s"] for r in table.values())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
