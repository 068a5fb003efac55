import importlib
import pkgutil
import re
import types
from pathlib import Path

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


def test_package_exports_are_the_readme_api():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    imported = {
        name.strip()
        for names in re.findall(r"^from mpshmm import (.+)$", readme, flags=re.M)
        for name in names.split(",")
    }
    assert set(mpshmm.__all__) == imported | {"EhmmModel", "SiteTensorSet", "serialize"}
    assert len(mpshmm.__all__) == 10
