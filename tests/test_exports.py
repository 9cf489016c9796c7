"""Every name a module exports must exist, so a deletion cannot leave a
stale export behind."""

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
