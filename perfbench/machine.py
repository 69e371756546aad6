"""The machine and numeric stack a measurement was taken on."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_CACHE_DIR = "/sys/devices/system/cpu/cpu0/cache"


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_info() -> dict:
    """nproc, CPU model and the unified L2 and L3 sizes of cpu0."""
    model = None
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    try:
        entries = sorted(os.listdir(_CACHE_DIR))
    except OSError:
        entries = []
    for entry in entries:
        if not entry.startswith("index"):
            continue
        base = os.path.join(_CACHE_DIR, entry)
        level = _read(os.path.join(base, "level"))
        kind = _read(os.path.join(base, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read(os.path.join(base, "size"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "L2": caches.get("L2"), "L3": caches.get("L3"),
            "platform": platform.platform()}


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    paths = set()
    for line in (_read("/proc/self/maps") or "").splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in fields[-1].lower():
            paths.add(fields[-1])
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def stack_info() -> dict:
    """Python, numpy, scipy and BLAS versions and effective threads.

    Call after numpy is imported, in the process being measured."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}
