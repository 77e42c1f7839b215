"""Every exported name resolves, so ``from carpetlab.<module> import *`` works."""

import importlib
import pkgutil

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
