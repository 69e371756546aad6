"""JSON input and output: `read_keys`, the one reader of every input
object, and its value readers; `dumps`, the one writer, which writes each
float as its shortest round-trip text (NaN and the infinities as `NaN` and
`Infinity`) and numpy values as plain ones; content hashes, and the
snapshot and statistics files the CLI archives."""

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


class ConfigError(ValueError):
    """An input that its reader rejects (exit 2)."""


def read_keys(obj, readers: dict, where: str, required) -> dict:
    """{key: readers[key](value)} of the JSON object `obj`, the `where`; a
    non-object, an unknown or a missing `required` key, or a value that its
    reader rejects is a ConfigError that begins "field '<key>': "."""
    if not isinstance(obj, dict):
        raise ConfigError(f"the {where} must be a JSON object, not {obj!r}")
    for keys, problem in ((set(obj) - set(readers), "not a key of"),
                          (set(required) - set(obj), "missing from")):
        if keys:
            raise ConfigError(f"field {min(keys)!r}: {problem} the {where}")
    out = {}
    for key, value in obj.items():
        try:
            out[key] = readers[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"field {key!r}: {exc}") from None
    return out


def integer(value) -> int:
    """A JSON integer; a boolean, a float or a string is rejected."""
    if type(value) is not int:
        raise TypeError(f"must be an integer, not {value!r}")
    return value


def number(value) -> float:
    """A finite JSON number; a boolean or a string is rejected."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise TypeError(f"must be a finite number, not {value!r}")
    return float(value)


def array(ndim: int, kind: type):
    """The reader of an `ndim`-d JSON array of numbers (kind float, NaN
    and the infinities included) or of integers (kind int), as a numpy
    array; strings, booleans and ragged rows are rejected, `[]` is empty."""
    entries = {float: (int, float), int: (int,)}[kind]
    def read(value) -> np.ndarray:
        arr = np.array(value, dtype=object)
        if arr.ndim != ndim and arr.shape != (0,) \
                or not all(type(x) in entries for x in arr.flat):
            raise TypeError(f"must be a {ndim}-d array of "
                            f"{'numbers' if kind is float else 'integers'}")
        return arr.astype(kind)
    return read


def checked(read, ok, what: str):
    """`read`, with a value that fails `ok` rejected: it must be `what`."""
    def read_checked(value):
        value = read(value)
        if not ok(value):
            raise ValueError(f"must be {what}, not "
                             f"{np.asarray(value).tolist()!r}")
        return value
    return read_checked


def _plain(obj: Any) -> Any:
    """The JSON form of what `json` cannot write itself: a numpy array or
    scalar as its `tolist()`, a set as its sorted list."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(obj: Any, sort_keys: bool = False) -> str:
    return json.dumps(obj, sort_keys=sort_keys, default=_plain)


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
        writer.writerow([float(r["t"]), r["stat"], float(r["value"]),
                         float(r.get("ci_low", float("nan"))),
                         float(r.get("ci_high", float("nan")))])
    return buf.getvalue()
