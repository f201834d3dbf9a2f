"""Every name in the package's and each module's export list resolves,
and every name the benchmark's tracer patches is still bound."""

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
