"""Every top-level import is read by its module, and no source module
imports another's private names.

A stdlib ``ast`` scan: each name bound by a module-level ``import`` or
``from ... import`` must appear as a name somewhere in the same module.
Package ``__init__.py`` files are exempt, since their imports are
re-exports.  ``from __future__`` imports bind no name and are skipped.
A second scan keeps each module's underscore names its own: a name that two
modules share is public.  A third keeps the reference oracle,
``core.deviation_verdict``, out of the fast paths: outside ``core`` only
the verdict rules of ``dynamics`` may name it.  A fourth finds code that
nothing in the package calls: every module-level function and public
method under ``src/`` is named somewhere under ``src/``, or is on
``UNCALLED`` with the reason it stays.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for tree in ("src", "tests")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
)
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by top-level imports of ``source`` that it never reads."""
    module = ast.parse(source)
    bound = {}
    for node in module.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_flags_only_unread_imports():
    source = "from os import path, sep\nimport sys\n\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]
    source = "from __future__ import annotations\nimport os.path\n\nos.path.join\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list:
    """The underscore names that ``source`` imports from another module,
    at any depth (dunder names such as ``__version__`` are public)."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_the_scan_flags_only_private_names():
    source = "from .a import _x, y, __version__\n\ndef f():\n    from b import _z\n"
    assert private_imports(source) == ["_x (line 1)", "_z (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_source_module_imports_private_names(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def scopes_naming(source: str, name: str) -> list:
    """Where ``source`` names ``name``, as a bare name, an attribute or an
    imported name: per use, the dotted path of the classes and functions
    around it (``""`` at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_scan_finds_every_use_with_its_scope():
    source = (
        "from .core import f\n"
        "import core\n\n"
        "class A:\n"
        "    def g(self):\n"
        "        return core.f, f\n\n"
        "x = 'f'\n"
    )
    assert scopes_naming(source, "f") == ["", "A.g", "A.g"]


def test_only_core_and_the_verdict_rules_name_the_oracle():
    uses = {
        path.relative_to(ROOT / "src").as_posix(): set(
            scopes_naming(path.read_text(encoding="utf-8"), "deviation_verdict"))
        for path in SOURCES
    }
    del uses["hedonic_dynamics/core.py"]
    assert {name: scopes for name, scopes in uses.items() if scopes} == {
        "hedonic_dynamics/dynamics.py": {"_VerdictRules.__init__"}
    }


def uncalled_functions(sources: dict) -> list:
    """The module-level functions and public methods of ``sources`` (a
    text per module name) that none of them names, as ``module:name`` or
    ``module:Class.name``.  A bare name, an attribute or an imported name
    counts as a use; a string, a docstring included, does not."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and node.name not in named:
                found.append(f"{module}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                found.extend(
                    f"{module}:{node.name}.{item.name}" for item in node.body
                    if isinstance(item, defs) and not item.name.startswith("_")
                    and item.name not in named)
    return found


def test_the_scan_flags_only_functions_nothing_names():
    source = (
        '"""Mentions unused and Box.spare."""\n'
        "def used():\n"
        "    return Box().size()\n\n"
        "def _helper():\n"
        "    return used\n\n"
        "def unused():\n"
        "    return _helper()\n\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 'spare'\n\n"
        "    def spare(self):\n"
        "        pass\n\n"
        "    def _own(self):\n"
        "        pass\n"
    )
    assert uncalled_functions({"m": source, "n": "from m import used\n"}) == [
        "m:unused", "m:Box.spare"]


#: functions nothing under ``src/`` calls, each with the reason it stays
UNCALLED = {
    "hedonic_dynamics/dynamics.py:MoveFinder.iter_moves":
        "the benchmark lists moves with it and its tracer wraps it by name",
    "hedonic_dynamics/cli.py:dumps_instance":
        "the benchmark's run-long set-up writes its instance with it",
    "hedonic_dynamics/cli.py:revalidate_trace_doc":
        "the benchmark re-checks the trace files it writes with it",
    "hedonic_dynamics/prng.py:SplitMix64.next_raw":
        "the published SplitMix64 draw, which the test vectors pin",
    "hedonic_dynamics/games.py:single_peaked_brute":
        "the reference check that single_peaked_check is tested against",
    "hedonic_dynamics/games.py:materialize":
        "the reference order that the lazy orders are tested against",
    "hedonic_dynamics/search.py:tolerable_coalitions":
        "the benchmark's tracer wraps it by name and counts the coalitions "
        "it returns, and the tests pin its order against a brute-force pool",
}


def test_every_source_function_is_named_in_the_package_or_allowed():
    sources = {
        path.relative_to(ROOT / "src").as_posix(): path.read_text(encoding="utf-8")
        for path in SOURCES
    }
    assert sorted(uncalled_functions(sources)) == sorted(UNCALLED)
