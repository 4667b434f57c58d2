"""Every public name has a production caller or a documented use.

A name in the ``__all__`` of a ``pemlab`` submodule passes when code in
``src/pemlab``, ``demos/`` or ``perfbench/`` uses it, or when ``README.md``
names it in code: an inline code span or a fenced block.  A use is an
import, an attribute, or a load of the name where no enclosing function,
lambda or comprehension binds it as a parameter or a local; its own
``def``/``class`` line, its ``__all__`` entry and ``pemlab/__init__.py``
do not count.  Tests do not count as callers.  The same holds for every
public method and property that a public class defines, except that
production code must use it as an attribute.

In the library modules, the same holds for every parameter with a default
of a public function and every field of a public ``*Plan`` or ``*Config``
dataclass: some production call must pass it, by position or by keyword,
or a README.md line that shows the call as ``callee(`` must show the
parameter as ``name=``.  Conversely, every ``name=`` on a README.md line
that shows a public ``callee(`` must name a parameter of such a callee.

Every import in ``src/pemlab``, ``demos/`` and ``tests/`` is used: the name
it binds appears as a name in its file, or in that file's ``__all__``.

``pemlab`` and ``pemlab.cli`` import nothing outside the standard library.

Nothing in ``src/pemlab`` reads the environment: no ``environ`` or
``getenv`` attribute and no ``from os import`` of either, so a run depends
only on its arguments and its config.
"""
import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pemlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _production_trees() -> list:
    """The parsed modules of the production code."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(), str(path)) for path in files]


TREES = _production_trees()
NODES = [node for tree in TREES for node in ast.walk(tree)]

# Nodes that open a scope of their own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_in(scope) -> set:
    """The names that ``scope`` binds itself: its parameters, the names it
    stores, defines or imports, and its ``except ... as`` names, less those
    it declares ``global``.  Nested scopes keep their own names."""
    bound, declared = set(), set()
    args = getattr(scope, "args", None)
    if isinstance(args, ast.arguments):
        bound |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared |= set(node.names)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _global_loads(node, scopes=()) -> set:
    """The names loaded under ``node`` where no enclosing scope binds them.
    ``scopes`` holds ``(is_class, bound)`` of the enclosing scopes; a class
    body's names are not visible inside the scopes nested in it."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return set() if any(node.id in bound for _, bound in scopes) else {node.id}
    if isinstance(node, _SCOPES):
        scopes = tuple(s for s in scopes if not s[0]) + (
            (isinstance(node, ast.ClassDef), _bound_in(node)),)
    loads = set()
    for child in ast.iter_child_nodes(node):
        loads |= _global_loads(child, scopes)
    return loads


ATTRIBUTES = {node.attr for node in NODES if isinstance(node, ast.Attribute)}
USED = (set().union(*map(_global_loads, TREES)) | ATTRIBUTES
        | {node.name for node in NODES if isinstance(node, ast.alias)})
README = (ROOT / "README.md").read_text()


def _readme_code() -> list:
    """The code of README.md: its fenced blocks and, outside them, its
    inline code spans."""
    fenced = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.S | re.M)
    prose = re.sub(r"^```[^\n]*\n.*?^```", "", README, flags=re.S | re.M)
    return fenced + re.findall(r"`([^`\n]+)`", prose)


README_CODE = _readme_code()


def _in_readme_code(name: str) -> bool:
    return any(re.search(rf"\b{re.escape(name)}\b", chunk) for chunk in README_CODE)


@pytest.mark.parametrize("module", MODULES)
def test_public_names_have_a_caller_or_a_readme_entry(module):
    names = importlib.import_module(f"pemlab.{module}").__all__
    orphans = [name for name in names if name not in USED and not _in_readme_code(name)]
    assert not orphans, f"pemlab.{module} exports {orphans} with no caller"


def _public_members(module) -> list:
    """``(class, member)`` for every public method and property that a
    public class of ``module`` defines itself."""
    mod = importlib.import_module(f"pemlab.{module}")
    found = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if not inspect.isclass(obj):
            continue
        found += [(name, member) for member, value in vars(obj).items()
                  if not member.startswith("_")
                  and (inspect.isfunction(value)
                       or isinstance(value, (property, staticmethod, classmethod)))]
    return found


@pytest.mark.parametrize("module", MODULES)
def test_public_methods_have_a_caller_or_a_readme_entry(module):
    orphans = [f"{cls}.{member}" for cls, member in _public_members(module)
               if member not in ATTRIBUTES and not _in_readme_code(member)]
    assert not orphans, f"pemlab.{module} has public methods {orphans} with no caller"


LIBRARY = ("machine", "primitives", "partition", "merge", "sorting",
           "geometry", "hull", "procalloc")


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
    """``(callee, position, parameter)`` for every parameter with a default
    and every field of a configuration dataclass."""
    mod = importlib.import_module(f"pemlab.{module}")
    found = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            params = list(inspect.signature(obj).parameters.values())
            found += [(name, i, p.name) for i, p in enumerate(params)
                      if p.default is not inspect.Parameter.empty]
        elif dataclasses.is_dataclass(obj) and name.endswith(("Plan",
                                                              "Config")):
            found += [(name, i, f.name)
                      for i, f in enumerate(dataclasses.fields(obj))]
    return found


def _readme_shows(callee: str, param: str) -> bool:
    """Does one README.md line show ``callee(`` and ``param=``?"""
    call = re.compile(rf"\b{re.escape(callee)}\(")
    keyword = re.compile(rf"\b{re.escape(param)}=")
    return any(call.search(line) and keyword.search(line)
               for line in README.splitlines())


def test_parameters_have_a_production_caller():
    calls = _production_calls()
    unused = [
        f"{callee}.{param}"
        for module in LIBRARY
        for callee, pos, param in _optional_parameters(module)
        if not any(nargs > pos or param in keywords
                   for nargs, keywords in calls.get(callee, ()))
        and not _readme_shows(callee, param)
    ]
    assert unused == []


def _public_parameters() -> dict:
    """Public function or dataclass name -> the names of its parameters."""
    params: dict = {}
    for module in MODULES:
        mod = importlib.import_module(f"pemlab.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                params[name] = set(inspect.signature(obj).parameters)
    return params


def test_readme_keywords_are_parameters():
    """The converse: a ``name=`` on a README.md line that shows a public
    ``callee(`` is a parameter of some callee on that line."""
    params = _public_parameters()
    wrong = []
    for line in README.splitlines():
        callees = [c for c in re.findall(r"\b(\w+)\(", line) if c in params]
        wrong += [f"{kw}= in {line.strip()!r}"
                  for kw in re.findall(r"\b(\w+)=(?!=)", line)
                  if callees and not any(kw in params[c] for c in callees)]
    assert wrong == []


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), str(path))
    # A name is used where it is read; a store such as ``dumps = 1`` is not a use.
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}: {bound}")
    return unused


def test_imports_are_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    assert [name for path in files for name in _unused_imports(path)] == []


def _environment_reads(path: Path) -> list:
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = [alias.name for alias in node.names]
        else:
            continue
        reads += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                  for name in names if name in ("environ", "getenv")]
    return reads


def test_library_reads_no_environment():
    assert [read for path in sorted(PACKAGE.glob("*.py"))
            for read in _environment_reads(path)] == []


def test_import_needs_only_the_standard_library():
    """A fresh interpreter imports ``pemlab`` and ``pemlab.cli``; every
    top-level package this adds to ``sys.modules`` is ``pemlab`` or in the
    standard library.  Modules the interpreter loaded at start-up (``site``
    hooks) are not the package's imports."""
    code = ("import sys; before = set(sys.modules); import pemlab, pemlab.cli; "
            "print(*sorted({m.partition('.')[0] "
            "for m in set(sys.modules) - before}))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = proc.stdout.split()
    assert "pemlab" in imported
    assert [m for m in imported
            if m != "pemlab" and m not in sys.stdlib_module_names] == []
