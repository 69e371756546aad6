"""Source hygiene: no module of the package or the test suite imports a
name it never uses.  An import line marked `# noqa: F401` is kept on
purpose (a name looked up by another module) and is not reported."""

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
