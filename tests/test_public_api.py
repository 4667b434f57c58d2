"""Every public name has a production caller or a documented use.

A name in the ``__all__`` of a ``pemlab`` submodule passes when code in
``src/pemlab``, ``demos/`` or ``perfbench/`` uses it (as a name, an
attribute or an import; its own ``def``/``class`` line, its ``__all__``
entry and ``pemlab/__init__.py`` do not count), or when ``README.md``
names it.  Tests do not count as callers.

In the sort stack, the same holds for every parameter with a default of a
public function and every field of ``SortPlan``: some production call must
pass it, by position or by keyword, or README.md must show it as ``name=``.
"""
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pemlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _production_nodes() -> list:
    """Every AST node of the production code."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return [node for path in files
            for node in ast.walk(ast.parse(path.read_text(), str(path)))]


NODES = _production_nodes()


def _used_names() -> set:
    used = set()
    for node in NODES:
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


USED = _used_names()
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller_or_a_readme_entry(module):
    names = importlib.import_module(f"pemlab.{module}").__all__
    orphans = [name for name in names if name not in USED
               and not re.search(rf"\b{re.escape(name)}\b", README)]
    assert not orphans, f"pemlab.{module} exports {orphans} with no caller"


SORT_STACK = ("primitives", "partition", "merge", "sorting")


def _production_calls() -> dict:
    """Callee name -> ``(positional count, keyword names)`` of every call."""
    calls: dict = {}
    for node in NODES:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        calls.setdefault(name, []).append((len(node.args), keywords))
    return calls


def _optional_parameters(module) -> list:
    """``(callee, position, parameter)`` for every parameter with a default."""
    mod = importlib.import_module(f"pemlab.{module}")
    found = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            params = list(inspect.signature(obj).parameters.values())
            found += [(name, i, p.name) for i, p in enumerate(params)
                      if p.default is not inspect.Parameter.empty]
    if module == "sorting":
        found += [("SortPlan", i, f.name)
                  for i, f in enumerate(dataclasses.fields(mod.SortPlan))]
    return found


def test_sort_stack_parameters_have_a_production_caller():
    calls = _production_calls()
    unused = [
        f"{callee}.{param}"
        for module in SORT_STACK
        for callee, pos, param in _optional_parameters(module)
        if not any(nargs > pos or param in keywords
                   for nargs, keywords in calls.get(callee, ()))
        and not re.search(rf"\b{re.escape(param)}=", README)
    ]
    assert unused == []
