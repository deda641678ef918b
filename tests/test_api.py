"""Every name a module exports through ``__all__`` resolves, and every name a
module imports is used."""

import ast
import importlib
import importlib.util
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


def perfbench_patches() -> set[tuple[str, str]]:
    """The (module, attribute) names ``perfbench/spans.py`` patches, loaded by
    path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {(module, attr) for module, attr, _ in spans.PATCHES}


def unused_imports(source: str, module: str, patched: set[tuple[str, str]]) -> list[str]:
    """Names ``source`` imports but never reads and does not list in
    ``__all__``.  An import on a line marked ``# noqa: F401`` is kept on
    purpose only if ``(module, name)`` is in ``patched``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        for name in [alias.asname or alias.name.split(".")[0]]
        if not ("# noqa: F401" in lines[alias.lineno - 1] and (module, name) in patched)
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
    module = f"ionsynth.{path.stem}" if path.stem != "__init__" else "ionsynth"
    assert unused_imports(path.read_text(), module, perfbench_patches()) == []


def test_unused_import_check_sees_names_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from itertools import compress  # noqa: F401  kept on purpose\n"
        "from itertools import islice  # noqa: F401  but not patched\n"
        "__all__ = ['Iterable']\n"
        "x = np.zeros(1)\n"
    )
    patched = {("ionsynth.m", "compress"), ("ionsynth.other", "islice")}
    assert unused_imports(source, "ionsynth.m", patched) == ["Sequence", "islice"]
