"""Every name in the package's and each module's export list resolves,
the package re-exports the modules' own objects, and every name the
benchmark's tracer patches is still bound."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bladebind
from bladebind import blades, codec, multivector

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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


@pytest.mark.parametrize("module", [blades, codec, multivector], ids=lambda m: m.__name__)
def test_package_reexports_each_module_object(module):
    copies = [name for name in module.__all__ if getattr(bladebind, name) is not getattr(module, name)]
    assert copies == []


def test_every_name_the_tracer_patches_is_bound():
    # perfbench/spans.py reads each patched name from its owner's vars()
    # (codec's entry points, product_sign and hamming, multivector.product_sign,
    # Multivector.gp, CleanupMemory.from_table, BladeIndex.__init__), so a
    # renamed or removed one fails a traced benchmark run with a KeyError.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.timing(spans.Tracer(), multivector, codec):
        pass
    with spans.counting(spans.Tracer(), blades, multivector, codec):
        pass
