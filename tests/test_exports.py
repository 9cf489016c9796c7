"""Every name a module exports must exist, so a deletion cannot leave a
stale export behind, and the package exports exactly its modules' names,
so each public name is written once, in its own module."""

import importlib
import pkgutil

import pytest

import stepfdr

MODULES = ["stepfdr"] + [f"stepfdr.{info.name}"
                         for info in pkgutil.iter_modules(stepfdr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_package_exports_the_union_of_its_modules():
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    union = {attr for module in modules for attr in getattr(module, "__all__", [])}
    assert sorted(stepfdr.__all__) == sorted(union)
