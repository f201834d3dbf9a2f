"""Binary spatter codes over a blade algebra, with a Pauli-string oracle.

Blades are indexed by n-bit strings; the geometric product is XOR of
the strings times a sign computed by a word-parallel kernel.  Records
bind roles to fillers with that product, chunk by sparse addition, and
decode by relabelling each record key with a role's blade and reading
the filler coefficients off the relabelled keys.  The classic
XOR/majority/Hamming codec is included as a baseline, and the
Kronecker model of the algebra, written as Pauli strings in `cartan`,
gives an independent oracle used to cross-check everything.

The package re-exports `blades`, `codec` and `multivector`; the oracle
(`cartan`), the pinned verification (`verify`), the bench (`bench`) and
the slow baselines (`reference`) are imported from their modules.
"""

from . import blades, codec, multivector
from .blades import *
from .codec import *
from .multivector import *

__version__ = "0.1.0"

__all__ = [*blades.__all__, *codec.__all__, *multivector.__all__]
