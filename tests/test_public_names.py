"""The package's public names: each ``__all__`` lists what its module defines,
the package re-exports only listed names, every public name a module
imports from a sibling is listed there, and no module reaches into a
sibling's private names."""

import ast
import importlib
import os
import pkgutil

import pytest

import esc_sat

MODULES = sorted(info.name for info in pkgutil.iter_modules(esc_sat.__path__))


def _imports_from_siblings(module: str):
    """(sibling, name) for every ``from .sibling import name`` in a module."""
    path = os.path.join(esc_sat.__path__[0], f"{module}.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_exists(module):
    mod = importlib.import_module(f"esc_sat.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_only_listed_names():
    for sibling, name in _imports_from_siblings("__init__"):
        assert name in importlib.import_module(f"esc_sat.{sibling}").__all__, (sibling, name)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_sibling_import_is_listed(module):
    unlisted = [
        f"{sibling}.{name}"
        for sibling, name in _imports_from_siblings(module)
        if not name.startswith("_")
        and name not in getattr(importlib.import_module(f"esc_sat.{sibling}"), "__all__", ())
    ]
    assert unlisted == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_sibling_name(module):
    private = [
        f"{sibling}.{name}"
        for sibling, name in _imports_from_siblings(module)
        if name.startswith("_")
    ]
    assert private == []
