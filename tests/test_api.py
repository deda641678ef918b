"""Every name a module exports through ``__all__`` resolves, every name a
module imports is used, every private top-level name is read somewhere in
the package and defined in one module only, only ``fock`` words or
applies the numeric-argument rules or tests finiteness with ``np.isfinite``,
a ``Schedule`` is built only through its two constructors, and importing the
package and its CLI loads no SciPy."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ionsynth

MODULES = ["ionsynth"] + [
    f"ionsynth.{info.name}" for info in pkgutil.iter_modules(ionsynth.__path__)
]
SOURCES = sorted(Path(ionsynth.__file__).parent.glob("*.py"))
TEST_SOURCES = sorted(Path(__file__).parent.glob("*.py"))  # conftest.py too


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], name


def test_importing_the_package_loads_no_scipy():
    """The package runs on NumPy alone; only the tests and the benchmark use
    SciPy, as their reference.  A fresh interpreter is needed, since other
    tests load SciPy into this one."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, ionsynth, ionsynth.cli; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = ast.literal_eval(out)
    assert "ionsynth.cli" in loaded
    assert [name for name in loaded if name == "scipy" or name.startswith("scipy.")] == []


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


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES, ids=lambda path: path.name)
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


def private_name_faults(sources: dict[str, str]) -> list[str]:
    """Private top-level functions, classes and assigned constants that no
    source reads, as ``"unread: module.name"``, then private names defined in
    more than one module, as ``"twice: name"``.  A read is a loaded name or an
    attribute access; an import alone is not one."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {target.id for target in targets if isinstance(target, ast.Name)}
        defined[module] = {name for name in names if name[:1] == "_" and name[:2] != "__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    faults = [f"unread: {module}.{name}" for module, names in defined.items()
              for name in sorted(names - read)]
    counts = Counter(name for names in defined.values() for name in names)
    return faults + [f"twice: {name}" for name, count in sorted(counts.items()) if count > 1]


def test_every_private_name_is_read_and_defined_once():
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert private_name_faults(sources) == []


def test_private_name_check_sees_dead_and_doubled_names():
    sources = {
        "a": (
            "from .b import _LIMIT\n"
            "_CACHE: dict = {}\n"
            "def _helper():\n    return _CACHE\n"
            "def _dead():\n    pass\n"
            "class _Gone:\n    pass\n"
        ),
        "b": (
            "import a\n"
            "_LIMIT = 3\n"
            "def _helper():\n    return a._helper()\n"
        ),
    }
    assert private_name_faults(sources) == [
        "unread: a._Gone", "unread: a._dead", "unread: b._LIMIT", "twice: _helper",
    ]


# The wording of the integer, occupation, flag, real and complex rules that ``fock`` owns.
RULE_MESSAGE = re.compile(
    r"must be (an integer >=|a bool|a finite (non-negative )?real( or complex number)?)"
    r"|exceeds the (cap of|cutoff)|must be finite"
)


def _tests_bool(node: ast.AST) -> bool:
    """Whether ``node`` is a call ``isinstance(..., bool)`` or ``isinstance(..., (..., bool))``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1:]
    kinds = kinds[0].elts if kinds and isinstance(kinds[0], ast.Tuple) else kinds
    return any(getattr(kind, "id", None) == "bool" for kind in kinds)


def _tests_int_type(node: ast.AST) -> bool:
    """Whether ``node`` is a comparison ``type(...) is int`` or ``type(...) is not int``."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    sides = node.left, node.comparators[0]
    return (isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and any(getattr(side.func, "id", None) == "type" for side in sides
                    if isinstance(side, ast.Call))
            and any(getattr(side, "id", None) == "int" for side in sides))


def _replay_overflow_check(tree: ast.AST) -> set[ast.AST]:
    """The nodes of ``_replay``, whose one ``np.isfinite`` finds a pulse whose
    x*|Omega| overflows: a replay check, not a check of an argument."""
    return {node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and fn.name == "_replay" for node in ast.walk(fn)}


def rule_owner_faults(sources: dict[str, str]) -> list[str]:
    """Outside ``fock``: each string holding a rule's wording, as
    ``"message: module:line"``, each ``isinstance(..., bool)`` test, as
    ``"bool: module:line"``, each ``type(...) is int`` or ``is not int`` test, as
    ``"int: module:line"``, each ``np.isfinite``, as ``"isfinite: module:line"``,
    and each call of ``_vib_index``, the closed form of the basis order, as
    ``"vib_index: module:line"``; only ``pulses._replay`` may call ``np.isfinite``."""
    faults = []
    for module, source in sources.items():
        if module == "fock":
            continue
        tree = ast.parse(source)
        allowed = _replay_overflow_check(tree) if module == "pulses" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if RULE_MESSAGE.search(node.value):
                    faults.append(f"message: {module}:{node.lineno}")
            elif _tests_bool(node) and node not in allowed:
                faults.append(f"bool: {module}:{node.lineno}")
            elif _tests_int_type(node):
                faults.append(f"int: {module}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                  and getattr(node.value, "id", None) == "np" and node not in allowed):
                faults.append(f"isfinite: {module}:{node.lineno}")
            elif isinstance(node, ast.Call) and "_vib_index" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                faults.append(f"vib_index: {module}:{node.lineno}")
    return faults


def test_only_fock_words_or_applies_the_argument_rules():
    sources = {path.stem: path.read_text() for path in SOURCES}
    # integer, integer cap, occupation total, flag, real, non-negative real, real or complex
    assert len(RULE_MESSAGE.findall(sources["fock"])) == 7
    assert rule_owner_faults(sources) == []


def test_rule_owner_check_sees_rules_outside_fock():
    sources = {
        "fock": (
            "def _integer(name, value, low):\n"
            "    if isinstance(value, bool) or value < low:\n"
            "        raise DomainError(f'{name} must be an integer >= {low}')\n"
        ),
        "noise": (
            "def run(n):\n"
            "    if isinstance(n, (int, bool)):\n"
            "        raise DomainError(f'n must be a finite non-negative real, got {n}')\n"
        ),
        "files": (
            "def parse(v, where):\n"
            "    if isinstance(v, bool):\n"
            "        raise ScheduleFormatError(f'{where}: must be integers >= 0')\n"
            "    if isinstance(v, bool):\n"
            "        raise DomainError('must be a finite real')\n"
            "    return 4 * _vib_index(*v)\n"
        ),
        "pulses": (
            "def _set(self, x):\n"
            "    bad = ~np.isfinite(x)\n"
            "def _replay(amps, x, peak):\n"
            "    finite = np.isfinite(x * peak)\n"
            "def _outside(column, low, high):\n"
            "    return [type(v) is not int or not low <= v <= high for v in column]\n"
        ),
        "channels": (
            "def nonlinearity(eps, n):\n"
            "    if n > J_MAX_CAP:\n"
            "        raise DomainError(f'occupation {n} exceeds the cap of {J_MAX_CAP}')\n"
            "def _pairs(spec, occ):\n"
            "    return fock._vib_index(*occ)\n"
        ),
        "cli": (
            "def _grid_spec(start, step):\n"
            "    if not (0 <= start < math.inf and 0 <= step < math.inf):\n"
            "        raise ArgumentTypeError('grid start and step must be finite and >= 0')\n"
        ),
    }
    sources["fock"] += "def _real_column(name, column):\n    return np.isfinite(column)\n"
    sources["fock"] += "def _basis_index(occ, level):\n    return 4 * _vib_index(*occ) + level\n"
    assert rule_owner_faults(sources) == [
        "bool: noise:2", "message: noise:3", "bool: files:2", "bool: files:4", "vib_index: files:6",
        "message: files:5", "isfinite: pulses:2", "int: pulses:6", "vib_index: channels:5",
        "message: channels:3", "message: cli:3",
    ]


CHECKED_CLASSES = {"Schedule", "StateVector"}


def construction_faults(sources: dict[str, str]) -> list[str]:
    """Each ``__new__`` call that may build a ``Schedule`` outside
    ``Schedule.from_columns``, or a ``StateVector`` at all, as
    ``"__new__: module:line"``, and each ``__dict__.update`` call, as
    ``"__dict__.update: module:line"``.  A call may build one if it sits in
    either class or names either class."""
    faults = []
    for module, source in sources.items():
        tree = ast.parse(source)
        inside, allowed = set(), set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in CHECKED_CLASSES:
                inside |= set(ast.walk(cls))
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and (cls.name, fn.name) == (
                        "Schedule", "from_columns"
                    ):
                        allowed |= set(ast.walk(fn))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            names = {n.id for part in (node.func.value, *node.args) for n in ast.walk(part)
                     if isinstance(n, ast.Name)}
            if node.func.attr == "__new__" and (node in inside or names & CHECKED_CLASSES):
                if node not in allowed:
                    faults.append(f"__new__: {module}:{node.lineno}")
            elif node.func.attr == "update" and getattr(node.func.value, "attr", None) == "__dict__":
                faults.append(f"__dict__.update: {module}:{node.lineno}")
    return faults


def test_a_schedule_is_built_only_through_its_constructors():
    """Every schedule passes ``Schedule._set`` and every state its shape check:
    no schedule is made by ``__new__`` outside ``from_columns``, no state by
    ``__new__`` at all, and neither has its attributes copied in."""
    sources = {path.stem: path.read_text() for path in SOURCES}
    assert construction_faults(sources) == []


def test_construction_check_sees_schedules_built_around_the_constructors():
    sources = {
        "pulses": (
            "class Schedule:\n"
            "    @classmethod\n"
            "    def from_columns(cls):\n"
            "        return cls.__new__(cls)\n"
            "    def copy(self):\n"
            "        new = type(self).__new__(type(self))\n"
            "        new.__dict__.update(self.__dict__)\n"
            "        return new\n"
            "class StateVector:\n"
            "    @classmethod\n"
            "    def _wrap(cls):\n"
            "        return cls.__new__(cls)\n"
            "    def copy(self):\n"
            "        return StateVector(self.amplitudes, self.truncation)\n"
        ),
        "noise": (
            "def perturb(s):\n"
            "    views = map(object.__new__, [Pulse])\n"
            "    return object.__new__(Schedule), Schedule.__new__(Schedule)\n"
            "def score(out, t):\n"
            "    return object.__new__(StateVector), StateVector(out, t)\n"
        ),
    }
    assert construction_faults(sources) == [
        "__new__: pulses:6", "__dict__.update: pulses:7", "__new__: pulses:12",
        "__new__: noise:3", "__new__: noise:3", "__new__: noise:5",
    ]
