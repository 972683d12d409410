"""Every `__all__` entry of a secest module names something the module
defines, and every name the package re-exports is in its module's
`__all__`, so removing a function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import secest


def test_module_exports_resolve():
    modules = [
        importlib.import_module(f"secest.{info.name}")
        for info in pkgutil.iter_modules(secest.__path__)
    ]
    assert modules
    missing = [f"{m.__name__}.{name}" for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_package_reexports_are_module_exports():
    tree = ast.parse(Path(secest.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    stale = [
        f"secest.{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"secest.{node.module}").__all__
    ]
    assert stale == []
    assert all(hasattr(secest, alias.name) for node in imports for alias in node.names)
