"""Binary spatter codes over a blade algebra, with a matrix oracle.

Blades are indexed by n-bit strings; the geometric product is XOR of
the strings times a sign computed by a word-parallel kernel.  Records
bind roles to fillers with that product, chunk by sparse addition, and
decode by blade inverses plus a similarity clean-up.  The classic
XOR/majority/Hamming codec is included as a baseline, and Kronecker
products of Pauli matrices give an independent numerical model used to
cross-check everything.

The numpy-backed names (the matrix oracle, the pinned verification and
the bench) are imported on first access, so the codecs and the CLI's
gen/encode/decode run without loading numpy.
"""

import importlib

from .blades import (
    BladeIndex,
    DimensionMismatch,
    SignedBlade,
    blade_inverse,
    format_blade,
    geometric_product,
    parse_blade,
    product_sign,
    reversion_sign,
)
from .codec import (
    CleanupMemory,
    ClassicDecodeResult,
    EncodedRecord,
    GaDecodeResult,
    SymbolTable,
    classic_bind,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
    hamming,
    majority_chunk,
)
from .multivector import Multivector, similarity, trace_product

# name -> submodule for the re-exports that need numpy
_LAZY = {
    "run_bench": "bench",
    "blade_matrix": "cartan",
    "generator_matrix": "cartan",
    "min_factor_count": "cartan",
    "pauli": "cartan",
    "rep": "cartan",
    "run_verification": "verify",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BladeIndex",
    "SignedBlade",
    "DimensionMismatch",
    "Multivector",
    "SymbolTable",
    "EncodedRecord",
    "CleanupMemory",
    "GaDecodeResult",
    "ClassicDecodeResult",
    "blade_inverse",
    "blade_matrix",
    "classic_bind",
    "classic_decode",
    "classic_encode",
    "format_blade",
    "ga_decode",
    "ga_encode",
    "gen_symbols",
    "generator_matrix",
    "geometric_product",
    "hamming",
    "majority_chunk",
    "min_factor_count",
    "parse_blade",
    "pauli",
    "product_sign",
    "rep",
    "reversion_sign",
    "run_bench",
    "run_verification",
    "similarity",
    "trace_product",
]
