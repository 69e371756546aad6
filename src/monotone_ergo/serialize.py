"""JSON serialization helpers: 17-significant-digit floats, content hashes,
and the contents of the binary snapshot and statistics files the CLI
archives."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from typing import Any

import numpy as np


def _convert(obj: Any) -> Any:
    """Recursively turn numpy scalars/arrays into plain Python objects."""
    if isinstance(obj, np.ndarray):
        return [_convert(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(x) for x in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(_convert(x) for x in obj)
    return obj


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _iterencode(o: Any, sort_keys: bool):
    """JSON text of `o` (plain Python objects) in pieces, every float with
    17 significant digits."""
    if isinstance(o, float):
        yield _fmt_float(o)
    elif isinstance(o, dict):
        yield "{"
        first = True
        items = o.items()
        if sort_keys:
            items = sorted(items)
        for k, v in items:
            if not first:
                yield ", "
            first = False
            yield json.dumps(str(k))
            yield ": "
            yield from _iterencode(v, sort_keys)
        yield "}"
    elif isinstance(o, (list, tuple)):
        yield "["
        first = True
        for v in o:
            if not first:
                yield ", "
            first = False
            yield from _iterencode(v, sort_keys)
        yield "]"
    else:
        yield json.dumps(o)


def dumps(obj: Any, sort_keys: bool = False) -> str:
    return "".join(_iterencode(_convert(obj), sort_keys))


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write through a temporary file that replaces `path` only once the
    block completes; on error `path` keeps its old content."""
    tmp = path + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def dump(obj: Any, path: str) -> None:
    with atomic_open(path) as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def content_hash(obj: Any) -> str:
    """Stable sha256 over the canonical (sorted-key) serialization."""
    return hashlib.sha256(dumps(obj, sort_keys=True).encode()).hexdigest()


def file_hash(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def snapshot_files(snapshots: dict[float, np.ndarray]) -> dict:
    """Contents of the snapshot archive of {t: (n_paths, N) array}:
    snapshots.bin, little-endian float64 in time order, and its JSON
    header snapshots.json; empty for no snapshots."""
    if not snapshots:
        return {}
    times = sorted(snapshots)
    n_paths, n_grid = snapshots[times[0]].shape
    return {"snapshots.bin": b"".join(
                np.ascontiguousarray(snapshots[t], dtype="<f8").tobytes()
                for t in times),
            "snapshots.json": dumps({"N": n_grid, "n_paths": n_paths,
                                     "times": [float(t) for t in times]})
            + "\n"}


def statistics_csv(rows: list[dict]) -> str:
    """Text of statistics.csv; rows are dicts with keys t, stat, value,
    ci_low, ci_high."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "stat", "value", "ci_low", "ci_high"])
    for r in rows:
        writer.writerow([
            _fmt_float(float(r["t"])), r["stat"],
            _fmt_float(float(r["value"])),
            _fmt_float(float(r.get("ci_low", float("nan")))),
            _fmt_float(float(r.get("ci_high", float("nan")))),
        ])
    return buf.getvalue()
