"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ionsynth

MODULES = ["ionsynth"] + [
    f"ionsynth.{info.name}" for info in pkgutil.iter_modules(ionsynth.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], name
