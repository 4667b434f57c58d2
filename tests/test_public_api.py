"""Every public name has a production caller or a documented use.

A name in the ``__all__`` of a ``pemlab`` submodule passes when code in
``src/pemlab``, ``demos/`` or ``perfbench/`` uses it (as a name, an
attribute or an import; its own ``def``/``class`` line, its ``__all__``
entry and ``pemlab/__init__.py`` do not count), or when ``README.md``
names it.  Tests do not count as callers.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pemlab"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _used_names() -> set:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
