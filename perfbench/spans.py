"""In-memory spans around calls into the layers of monotone_ergo.

A span is installed by replacing a name where its caller looks it up
(a module global or a class attribute) with a wrapper that records the
call's name, start, end and parent span.  `traced` installs a wrapper at
every entry point listed by `targets()` and restores the original objects
on exit, so an untraced run executes exactly the program's own code.

Self time of a span is its duration minus the time its child spans
cover; calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root span


class Tracer:
    """Collects spans and per-span counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.clock(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def take(self):
        """Return (spans, counts) recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while one is open")
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(args, result)` adds named counters."""
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result
        return traced_call


# ---------------------------------------------------------------------------
# where each layer's entry points are looked up by their callers
# ---------------------------------------------------------------------------

def _step_rows(args, result):
    return {"path_steps": args[1].shape[0]}


def _pairwise_bytes(args, result):
    xs, ys = args[0], args[1]
    dim = xs.shape[1] if xs.ndim > 1 else 1
    return {"bytes_computed": len(xs) * len(ys) * dim * 8}


def _iterations(args, result):
    return {"iterations": result.iterations}


def _feasible(args, result):
    from monotone_ergo.posets import Coupling
    return {"feasible": int(isinstance(result, Coupling))}


def targets():
    """(owner, attribute, span name, counter) for every traced entry point.

    An owner is the module or class through which the calling code finds
    the name: `experiments` imports `noise_draws` and `simulate` by name,
    `transport` imports `linear_sum_assignment`, `posets` imports
    `max_flow_bipartite`, `chains` imports the posets functions and `cli`
    imports `theorem_main_verify`.
    """
    from monotone_ergo import (chains, cli, experiments, gallery, posets,
                               serialize, spde, transport)
    return [
        (spde.SpdeConfig, "from_json_obj", "spde.config", None),
        (spde.Stepper, "step", "spde.step", _step_rows),
        (spde, "noise_draws", "spde.noise_draws", None),
        (experiments, "noise_draws", "spde.noise_draws", None),
        (experiments, "simulate", "spde.simulate", None),
        (experiments, "synchronization_experiment", "experiments.sync", None),
        (experiments, "ergodicity_experiment", "experiments.ergodicity",
         None),
        (experiments, "_permutation_null", "experiments.permutation_null",
         None),
        (transport, "pairwise_cost", "transport.pairwise_cost",
         _pairwise_bytes),
        (transport, "linear_sum_assignment", "transport.assignment", None),
        (transport, "wasserstein_empirical", "transport.wasserstein_empirical",
         None),
        (transport, "wasserstein_exact", "transport.wasserstein_exact",
         _iterations),
        (transport, "sinkhorn", "transport.sinkhorn", _iterations),
        (posets, "stochastically_dominates", "posets.dominates", None),
        (chains, "stochastically_dominates", "posets.dominates", None),
        (posets, "_upset_masks", "posets.upset_masks", None),
        (posets, "strassen_coupling", "posets.strassen", _feasible),
        (chains, "strassen_coupling", "posets.strassen", _feasible),
        (posets, "max_flow_bipartite", "posets.max_flow", None),
        (cli, "theorem_main_verify", "chains.theorem_verify", None),
        (chains, "check_all_conditions", "chains.check_all_conditions", None),
        (chains, "moment_bound_M", "chains.moment_bound_M", None),
        (gallery, "run_case", "gallery.run_case", None),
        (serialize, "dumps", "serialize.dumps", None),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper at every target; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, count in targets():
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, raw.__func__, count))
            else:
                wrapped = tracer.wrap(name, raw, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def span_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    table: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child_time):
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += s.end - s.start - covered
    return table


def unattributed(spans: list[Span], run_s: float) -> float:
    """Part of run_s covered by no root span."""
    return run_s - sum(s.end - s.start for s in spans if s.parent < 0)


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds over the bare call, for a no-op.

    Times `calls` calls of a wrapped and of a bare no-op function and
    returns the per-call difference (median of five repetitions).
    """
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.take()
        diffs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(diffs)[2]


def check_nesting(spans: list[Span]) -> None:
    """Raise if a span is open, or a child lies outside its parent."""
    for s in spans:
        if not s.end >= s.start:
            raise ValueError(f"span {s.name} is not closed")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                raise ValueError(f"span {s.name} lies outside parent {p.name}")


# Per-layer metric "<span name>.<field>" for each field listed here.
SPAN_METRICS = {
    "spde.step": ("calls", "s"),
    "spde.noise_draws": ("calls", "s"),
    "spde.simulate": ("self_s",),
    "experiments.sync": ("self_s",),
    "experiments.ergodicity": ("self_s",),
    "experiments.permutation_null": ("s",),
    "transport.pairwise_cost": ("calls", "s"),
    "transport.assignment": ("calls", "s"),
    "transport.wasserstein_empirical": ("self_s",),
    "transport.wasserstein_exact": ("calls", "s"),
    "transport.sinkhorn": ("calls", "s"),
    "posets.dominates": ("calls", "s"),
    "posets.upset_masks": ("s",),
    "posets.strassen": ("calls", "s"),
    "posets.max_flow": ("calls", "s"),
    "chains.theorem_verify": ("s",),
    "chains.check_all_conditions": ("s",),
    "chains.moment_bound_M": ("s",),
    "gallery.run_case": ("calls", "s"),
    "serialize.dumps": ("s",),
    "cli.main": ("self_s",),
}
COUNTERS = ("spde.step.path_steps", "transport.pairwise_cost.bytes_computed",
            "transport.wasserstein_exact.iterations",
            "transport.sinkhorn.iterations", "posets.strassen.feasible")


def layer_metrics(spans: list[Span], counts: dict[str, float],
                  setup_spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    `spans` and `counts` are those of the timed run; `spde.config.s` is
    taken from `setup_spans`, the spans of set-up.
    """
    table = span_table(spans)
    out = {f"{name}.{field}": float(table.get(name, {}).get(field, 0.0))
           for name, fields in SPAN_METRICS.items() for field in fields}
    out.update({name: float(counts.get(name, 0.0)) for name in COUNTERS})
    config = span_table(setup_spans).get("spde.config", {})
    out["spde.config.s"] = float(config.get("s", 0.0))
    steps = out["spde.step.path_steps"]
    out["spde.step.us_per_path_step"] = (
        1e6 * out["spde.step.s"] / steps if steps else 0.0)
    return out
