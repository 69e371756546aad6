"""Source hygiene: no module of the package or the test suite imports a
name it never uses.  An import line marked `# noqa: F401` is kept on
purpose (a name looked up by another module) and is not reported.  No
module of the package but `shards` imports a way to start processes or
threads, so the package has one way to use more than one core."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "monotone_ergo").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that no other part
    of it reads; attribute chains count through their first name."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa: F401" in text:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_reports_unused_and_keeps_used_names():
    source = ("import os\nimport sys\nimport numpy.linalg\n"
              "from math import pi, tau  # noqa: F401\n"
              "from json import dumps as to_text, loads\n"
              "print(sys.argv, numpy.linalg.norm, loads)\n")
    assert unused_imports(source) == ["line 1: os", "line 5: to_text"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


CONCURRENCY_MODULES = {"multiprocessing", "threading", "concurrent"}


def concurrency_imports(source: str) -> list[str]:
    """Modules of `source`'s import statements that start processes or
    threads, by their top-level package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[0] in CONCURRENCY_MODULES]
    return found


def test_concurrency_scan_reports_each_form():
    source = ("import os, threading\nimport multiprocessing.pool\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from .shards import run_sharded\n")
    assert concurrency_imports(source) == [
        "threading", "multiprocessing.pool", "concurrent.futures"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "monotone_ergo"
             and p.name != "shards.py"],
    ids=lambda p: p.name)
def test_only_the_shard_module_starts_workers(path):
    assert concurrency_imports(path.read_text()) == []
