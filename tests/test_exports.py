import importlib
import pkgutil
import types

import pytest

import mpshmm

MODULES = sorted(info.name for info in pkgutil.iter_modules(mpshmm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"mpshmm.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_come_from_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"mpshmm.{name}").__all__)
    for name in mpshmm.__all__:
        value = getattr(mpshmm, name)
        assert isinstance(value, types.ModuleType) or name in exported, name
    assert len(set(mpshmm.__all__)) == len(mpshmm.__all__)
