"""Source hygiene: no module of the package or the test suite imports a
name it never uses.  An import line marked `# noqa: F401` is kept on
purpose (a name looked up by another module) and is not reported.  No
module of the package but `shards` imports a way to start processes or
threads, so the package has one way to use more than one core.  Every
public top-level function or class of the package, and every public
method of its classes, is read by package code, apart from a fixed list
of names only the tests call.  Every field of a package dataclass is read
as an attribute somewhere in the package, the tests or the benchmark."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "monotone_ergo").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
READERS = sorted([*SOURCES, *(ROOT / "perfbench").rglob("*.py")])


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


# public top-level names and class methods of the package that only the
# tests call; a name leaves this list when it gains a caller in the
# package or moves into tests/, and no name joins it
TEST_ONLY_NAMES = {
    "chains.return_time_exp_moments",
    "chains.absorbed_chain_second_eigenvalue",
    "posets.chain_poset", "__init__.fixture_path",
}


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public top-level function or class of the
    package modules `sources` (module name -> text) that no package code
    reads: no name in its own module, no `from .module import name` and
    no `module.name` elsewhere; and `module.Class.name` of each public
    method of a public top-level class whose name no package code reads as an
    attribute (`anything.name`), since the owner of an attribute read is
    not known before run time."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = {mod: {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for mod, tree in trees.items()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                target = node.module or "__init__"
                refs.setdefault(target, set()).update(
                    alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name):
                refs.setdefault(node.value.id, set()).add(node.attr)
    attributes = {node.attr for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    names = [f"{mod}.{node.name}" for mod, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_")
             and node.name not in refs[mod]]
    methods = [f"{mod}.{cls.name}.{fn.name}" for mod, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               and not cls.name.startswith("_")
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and not fn.name.startswith("_")
               and fn.name not in attributes]
    return sorted(names + methods)


def test_reference_scan_reports_only_unread_names():
    sources = {
        "a": "def used(): pass\ndef unread(): pass\ndef _private(): pass\n"
             "class Local:\n    def run(self): pass\n"
             "    def idle(self): pass\n    def _own(self): pass\n"
             "    def __len__(self): return 0\n"
             "class Lonely: pass\nx = Local()\nx.run()\n",
        "b": "from .a import used\nfrom . import c\nc.via_attribute()\n",
        "c": "def via_attribute(): pass\ndef unread(): pass\n",
        "__init__": "def helper(): pass\n",
    }
    assert unreferenced_public_names(sources) == [
        "__init__.helper", "a.Local.idle", "a.Lonely", "a.unread",
        "c.unread"]
    sources["d"] = ("from . import helper\nfrom .a import Lonely, unread\n"
                    "def _read(obj): return obj.idle\n")
    assert unreferenced_public_names(sources) == ["c.unread"]


def test_public_names_have_a_caller_in_the_package():
    package = ROOT / "src" / "monotone_ergo"
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    assert set(unreferenced_public_names(sources)) == TEST_ONLY_NAMES


def unread_fields(dataclasses: dict[str, str],
                  readers: list[str]) -> list[str]:
    """`module.Class.field` of each field of a `@dataclass` class in the
    modules `dataclasses` (module name -> text) that no source in
    `readers` reads as an attribute (`anything.field`; a store is not a
    read), since the owner of an attribute read is not known before run
    time."""
    read = {node.attr for text in readers for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{mod}.{cls.name}.{stmt.target.id}"
        for mod, text in dataclasses.items()
        for cls in ast.walk(ast.parse(text)) if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read)


def test_field_scan_reports_only_unread_fields():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass Spec:\n"
              "    size: int\n    unread: float = 0.0\n"
              "    written: str = ''\n"
              "class Plain:\n    note: str\n"
              "@dataclass\nclass Report:\n    lhs: float\n"
              "    def check(self):\n        return self.lhs\n"
              "spec = Spec(3)\nspec.written = 'x'\nprint(spec.size)\n")
    assert unread_fields({"a": source}, [source]) == [
        "a.Spec.unread", "a.Spec.written"]
    assert unread_fields({"a": source},
                         [source, "def f(s): return s.unread\n"]) == [
        "a.Spec.written"]


def test_dataclass_fields_are_read():
    package = ROOT / "src" / "monotone_ergo"
    assert unread_fields({p.stem: p.read_text() for p in package.glob("*.py")},
                         [p.read_text() for p in READERS]) == []
