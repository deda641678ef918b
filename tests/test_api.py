"""Every name a module exports through ``__all__`` resolves, and every name a
module imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ionsynth

MODULES = ["ionsynth"] + [
    f"ionsynth.{info.name}" for info in pkgutil.iter_modules(ionsynth.__path__)
]
SOURCES = sorted(Path(ionsynth.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], name


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads and does not list in
    ``__all__``; an import on a line marked ``# noqa: F401`` is kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_sees_names_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from itertools import compress  # noqa: F401  kept on purpose\n"
        "__all__ = ['Iterable']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["Sequence"]
