"""Every name in the package's and each module's export list resolves."""

import importlib
import pkgutil

import pytest

import bladebind

MODULES = ["bladebind"] + [
    f"bladebind.{info.name}" for info in pkgutil.iter_modules(bladebind.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_export_list_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)
