"""Every exported name resolves, so ``from carpetlab.<module> import *`` works,
and every name a submodule exports is used by the package's own code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import carpetlab

MODULES = ["carpetlab"] + [
    f"carpetlab.{info.name}" for info in pkgutil.iter_modules(carpetlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _used_names(tree) -> set:
    """Names the code reads: loaded names, loaded attributes and imported names.

    Docstrings and comments are not nodes of these kinds, and a definition
    (``def``, ``class`` or an assignment) does not count as a use.
    """
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_is_used_by_the_package():
    # A helper only tests call belongs with the tests.  __init__ only
    # re-exports, so its imports do not count as uses.
    sources = [p for p in Path(carpetlab.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    used = set().union(*(_used_names(ast.parse(p.read_text(encoding="utf-8"))) for p in sources))
    unused = [
        f"{name}.{n}"
        for name in MODULES[1:]
        for n in getattr(importlib.import_module(name), "__all__", [])
        if n not in used
    ]
    assert unused == []
