"""Binary spatter codes over a blade algebra, with a matrix oracle.

Blades are indexed by n-bit strings; the geometric product is XOR of
the strings times a sign computed by a word-parallel kernel.  Records
bind roles to fillers with that product, chunk by sparse addition, and
decode by relabelling each record key with a role's blade and reading
the filler coefficients off the relabelled keys.  The classic
XOR/majority/Hamming codec is included as a baseline, and Kronecker
products of Pauli matrices give an independent numerical model used to
cross-check everything.

The numpy-backed names (the matrix oracle, the pinned verification and
the bench) are imported on first access, so the codecs and the CLI's
gen/encode/decode run without loading numpy.
"""

import importlib

from . import blades, codec, multivector
from .blades import *
from .codec import *
from .multivector import *

# name -> submodule for the re-exports that need numpy
_LAZY = {
    "run_bench": "bench",
    "blade_matrix": "cartan",
    "generator_matrix": "cartan",
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

__all__ = [*blades.__all__, *codec.__all__, *multivector.__all__, *_LAZY]
