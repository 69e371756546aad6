"""Source hygiene: no module of the package or the test suite imports a
name it never uses.  An import line marked `# noqa: F401` is kept on
purpose (a name looked up by another module) and is not reported.  No
module of the package but `shards` imports a way to start processes or
threads, so the package has one way to use more than one core, none
but `serialize` imports `json`, so it has one reader and one writer, and
none but `transport` imports `scipy`.  Every
public top-level function or class of the package, and every public
method of its classes, is read by package code, apart from a fixed list
of names only the tests call; a method counts as read when it is called,
a property when it is read.  Every defaulted parameter of those functions
and methods is passed by some package call, apart from a fixed list.
Every field of a package dataclass is read as an attribute somewhere in
the package, the tests or the benchmark.  No package module reads a
private name of another, and every private top-level function or class
is read in its own module.  Every JSON input is read by
`serialize.read_keys`: each `from_json_obj` calls it, and no other
module defines a ConfigError or checks a JSON object for unknown keys."""

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


def imports_of(source: str, packages: set[str]) -> list[str]:
    """Modules of `source`'s import statements whose top-level package is
    one of `packages`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in packages]
    return found


def test_concurrency_scan_reports_each_form():
    source = ("import os, threading\nimport multiprocessing.pool\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from .shards import run_sharded\n")
    assert imports_of(source, CONCURRENCY_MODULES) == [
        "threading", "multiprocessing.pool", "concurrent.futures"]
    assert imports_of("import json\nimport jsonschema\n"
                      "from json.decoder import JSONDecodeError\n",
                      {"json"}) == ["json", "json.decoder"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "monotone_ergo"
             and p.name != "shards.py"],
    ids=lambda p: p.name)
def test_only_the_shard_module_starts_workers(path):
    assert imports_of(path.read_text(), CONCURRENCY_MODULES) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "monotone_ergo"
             and p.name != "serialize.py"],
    ids=lambda p: p.name)
def test_only_the_serialize_module_imports_json(path):
    assert imports_of(path.read_text(), {"json"}) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "monotone_ergo"
             and p.name != "transport.py"],
    ids=lambda p: p.name)
def test_only_the_transport_module_imports_scipy(path):
    assert imports_of(path.read_text(), {"scipy"}) == []


# public top-level names and class methods of the package that only the
# tests call; a name leaves this list when it gains a caller in the
# package or moves into tests/, and no name joins it
TEST_ONLY_NAMES = {"posets.chain_poset", "__init__.fixture_path"}


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public top-level function or class of the
    package modules `sources` (module name -> text) that no package code
    reads: no name in its own module, no `from .module import name` and
    no `module.name` elsewhere; and `module.Class.name` of each public
    method of a public top-level class whose name no package code calls
    as an attribute (`anything.name(...)`), or, for a property, reads as
    one (`anything.name`), since the owner of an attribute read is not
    known before run time."""
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
    called = {node.func.attr for tree in trees.values()
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
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
               and fn.name not in (attributes if _decorated(fn, "property")
                                   else called)]
    return sorted(names + methods)


def _decorated(fn: ast.FunctionDef, decorator: str) -> bool:
    return any(isinstance(d, ast.Name) and d.id == decorator
               for d in fn.decorator_list)


def test_reference_scan_reports_only_unread_names():
    sources = {
        "a": "def used(): pass\ndef unread(): pass\ndef _private(): pass\n"
             "class Local:\n    def run(self): pass\n"
             "    def idle(self): pass\n    def _own(self): pass\n"
             "    def __len__(self): return 0\n"
             "    def series(self): return []\n"
             "    @property\n    def size(self): return 0\n"
             "class Lonely: pass\nx = Local()\nx.run()\nprint(x.size)\n"
             "def _rows(report): return report.series\n",
        "b": "from .a import used\nfrom . import c\nc.via_attribute()\n",
        "c": "def via_attribute(): pass\ndef unread(): pass\n",
        "__init__": "def helper(): pass\n",
    }
    assert unreferenced_public_names(sources) == [
        "__init__.helper", "a.Local.idle", "a.Local.series", "a.Lonely",
        "a.unread", "c.unread"]
    # a method read but not called, like a field of the same name, is
    # still unused
    sources["d"] = ("from . import helper\nfrom .a import Lonely, unread\n"
                    "def _read(obj): return obj.idle(), obj.series\n")
    assert unreferenced_public_names(sources) == ["a.Local.series",
                                                  "c.unread"]


def test_public_names_have_a_caller_in_the_package():
    package = ROOT / "src" / "monotone_ergo"
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    assert set(unreferenced_public_names(sources)) == TEST_ONLY_NAMES


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module._name` of each private top-level function or class of the
    package modules `sources` (module name -> text) that no code of its
    own module reads; no other module may read it (see `private_reads`),
    so such a name is dead code."""
    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{mod}.{node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")
                  and node.name not in read]
    return sorted(found)


def test_private_scan_reports_only_unread_names():
    sources = {
        "a": "def _used(): pass\ndef _left(): pass\nclass _Old: pass\n"
             "def __getattr__(name): pass\ndef run(): return _used()\n",
        "b": "from .a import _left\nclass _Kept: pass\nx = [_Kept]\n",
    }
    assert unread_private_names(sources) == ["a._Old", "a._left"]


def test_private_names_are_read_in_their_module():
    package = ROOT / "src" / "monotone_ergo"
    assert unread_private_names({p.stem: p.read_text()
                                 for p in package.glob("*.py")}) == []


# defaulted parameters of public package functions that no package call
# passes, each with the reason it keeps its default; a parameter leaves
# this list when a package call passes it or its default goes, and no
# parameter joins it
TEST_ONLY_PARAMETERS = {
    "cli.main.argv": "the console script calls main() bare; perfbench and "
                     "the tests pass argv",
}


def _passes(call: ast.Call, name: str, place) -> bool:
    """Whether `call` passes the parameter `name`: by keyword, through
    `**`, or, for a parameter at positional index `place` of the call
    (None for a keyword-only one), by a positional argument there or
    through `*`."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or place is not None
            and (len(call.args) > place
                 or any(isinstance(a, ast.Starred) for a in call.args)))


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """`module.function.parameter` (`module.Class.method.parameter` for a
    method) of each defaulted parameter of a public top-level function,
    or of a public method of a public top-level class, of the package
    modules `sources` (module name -> text) that no call in them passes.
    A call is matched by name (`name(...)` or `anything.name(...)`), since
    the owner of an attribute is not known before run time; its
    positional arguments start after `self` for a method that is not a
    staticmethod."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    defs = [(f"{mod}.{fn.name}", fn, 0) for mod, tree in trees.items()
            for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    defs += [(f"{mod}.{cls.name}.{fn.name}", fn,
              0 if _decorated(fn, "staticmethod") else 1)
             for mod, tree in trees.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
             for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    found = []
    for qualname, fn, skip in defs:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        params = [(arg.arg, place - skip)
                  for place, arg in enumerate(positional)
                  ][len(positional) - len(args.defaults):]
        params += [(arg.arg, None) for arg, default
                   in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        found += [f"{qualname}.{name}" for name, place in params
                  if not any(_passes(call, name, place)
                             for call in calls.get(fn.name, []))]
    return sorted(found)


def test_default_scan_reports_only_unpassed_parameters():
    sources = {
        "a": "def fit(t, burn_in=0.25, gate=0.99, spare=0): pass\n"
             "def run(x, *, only=1): pass\n"
             "def _private(x=1): pass\n"
             "class Record:\n"
             "    def add(self, t, low=0.0, high=1.0): pass\n"
             "    @staticmethod\n"
             "    def make(name, size=1): pass\n"
             "    def _own(self, k=1): pass\n",
        "b": "from . import a\na.fit(0, gate=0.5)\na.run(*[1, 2])\n"
             "rec = a.Record()\nrec.add(0.0, 0.1)\na.Record.make('x', 2)\n",
    }
    assert unpassed_defaults(sources) == [
        "a.Record.add.high", "a.fit.burn_in", "a.fit.spare", "a.run.only"]
    sources["c"] = ("from .a import fit, run\nfit(0, *[1])\nrun(0, **{})\n"
                    "def _more(rec): rec.add(0.0, **{})\n")
    assert unpassed_defaults(sources) == []


def test_defaulted_parameters_are_passed_in_the_package():
    package = ROOT / "src" / "monotone_ergo"
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    assert {name for name in unpassed_defaults(sources)
            if name.rsplit(".", 1)[0] not in TEST_ONLY_NAMES} \
        == set(TEST_ONLY_PARAMETERS)


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


def private_reads(sources: dict[str, str]) -> list[str]:
    """`reader: module._name` or `reader: from .module import _name` for
    each read of a private name of a package module by another of the
    modules `sources` (module name -> text), as an attribute of the
    module's name or by a relative import; dunder names are not
    private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for reader, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in sources \
                    and node.value.id != reader and private(node.attr):
                found.append(f"{reader}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{reader}: from .{node.module} import {alias.name}"
                          for alias in node.names if private(alias.name)]
    return sorted(found)


def test_private_scan_reports_only_reads_of_a_sibling():
    sources = {
        "a": "def _helper(): pass\ndef run(): return _helper()\n",
        "b": "from . import a\nfrom .a import _helper, run\n"
             "import numpy as np\n"
             "print(a._helper, a.run, np._NoValue, __name__, a.__doc__)\n",
        "c": "from . import __version__\nimport a\n"
             "def own(c): return c._cache\n",
    }
    assert private_reads(sources) == ["b: a._helper",
                                      "b: from .a import _helper"]


def test_no_module_reads_a_private_name_of_another():
    package = ROOT / "src" / "monotone_ergo"
    assert private_reads({p.stem: p.read_text()
                          for p in package.glob("*.py")}) == []


def hand_rolled_readers(sources: dict[str, str]) -> list[str]:
    """In the package modules `sources` (module name -> text): each
    `from_json_obj` that does not call `read_keys`, and, in every module
    but `serialize`, each class named ConfigError and each check for
    unknown keys of its own: a set difference `set(...) - ...`, or a
    raise whose text speaks of an unknown key."""
    found = []
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) \
                    and node.name == "from_json_obj" \
                    and not any(isinstance(call, ast.Call)
                                and getattr(call.func, "id", getattr(
                                    call.func, "attr", None)) == "read_keys"
                                for call in ast.walk(node)):
                found.append(f"{mod}: from_json_obj without read_keys")
            if mod == "serialize":
                continue
            if isinstance(node, ast.ClassDef) and node.name == "ConfigError":
                found.append(f"{mod}: class ConfigError")
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) \
                    and isinstance(node.left, ast.Call) \
                    and getattr(node.left.func, "id", None) == "set":
                found.append(f"{mod}: line {node.lineno}: set difference")
            elif isinstance(node, ast.Raise) and "unknown" in ast.unparse(
                    node).lower() and "key" in ast.unparse(node).lower():
                found.append(f"{mod}: line {node.lineno}: unknown-key raise")
    return sorted(found)


def test_reader_scan_reports_each_hand_rolled_check():
    sources = {
        "serialize": "class ConfigError(ValueError): pass\n"
                     "def read_keys(obj, readers):\n"
                     "    return set(obj) - set(readers)\n",
        "a": "class Spec:\n"
             "    def from_json_obj(obj):\n"
             "        return Spec(**read_keys(obj, {}))\n"
             "class Raw:\n"
             "    def from_json_obj(obj):\n"
             "        return Raw(obj['x'])\n",
        "b": "class ConfigError(ValueError): pass\n"
             "def check(obj, allowed):\n"
             "    extra = set(obj) - allowed\n"
             "    if extra:\n"
             "        raise ValueError(f'unknown key(s) {extra}')\n"
             "    return {1, 2} - {2}\n",
        "c": "def f(name):\n"
             "    raise ValueError(f'unknown drift {name}')\n",
    }
    assert hand_rolled_readers(sources) == [
        "a: from_json_obj without read_keys", "b: class ConfigError",
        "b: line 3: set difference", "b: line 5: unknown-key raise"]


def test_every_input_goes_through_read_keys():
    package = ROOT / "src" / "monotone_ergo"
    assert hand_rolled_readers({p.stem: p.read_text()
                                for p in package.glob("*.py")}) == []
