"""Basis blades as bit strings and the signed product kernel.

A basis blade of an n-generator Euclidean geometric algebra is identified
with an n-bit string: bit i (1-based, leftmost first) is set exactly when
generator e_i appears in the blade.  The all-zero string is the scalar
blade 1, the all-one string the pseudoscalar.

Convention: position 1 is the *leftmost* character of the textual literal,
so literals read exactly like the subscripts in standard blade notation
(e_1 e_2 == "1100..." in 4 or more dimensions).  Internally a blade is a
Python int with position i stored at machine bit n - i; the textual form
is authoritative, the word layout is an implementation detail.

Products of blades are again blades up to sign: the index of the product
is the XOR of the factor indexes and the sign is (-1)^D, where D counts
how many generator transpositions are needed to merge the two factors
into sorted order.  `product_sign` computes the parity of D in a handful
of word-parallel big-int operations; `bladebind.reference` keeps slow
independent implementations for differential testing.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

__all__ = [
    "BladeIndex",
    "SignedBlade",
    "DimensionMismatch",
    "product_sign",
    "geometric_product",
    "blade_inverse",
    "reversion_sign",
    "parse_blade",
    "format_blade",
]

# Literals longer than this are written in hex by default.
BINARY_LITERAL_MAX = 64

# Input text longer than this is cut in the middle when an error message echoes it.
_ECHO_MAX = 80


def _shorten(text: str) -> str:
    """text as an error message echoes it: at most _ECHO_MAX characters."""
    if len(text) <= _ECHO_MAX:
        return text
    half = (_ECHO_MAX - 3) // 2
    return f"{text[:half]}...{text[-half:]}"


class DimensionMismatch(ValueError):
    """Raised when blades from algebras of different dimension are combined."""


def _check_dims(a, b) -> None:
    """Blades or multivectors: both operands must share the dimension n."""
    if a.n != b.n:
        raise DimensionMismatch(
            f"operands live in different algebras (n={a.n} vs n={b.n})"
        )


class BladeIndex:
    """An n-bit blade identifier.  Immutable after construction.

    Attributes:
        n: number of generator positions (n >= 1).
        value: the bits packed into an int, position i at machine bit n - i.
    """

    __slots__ = ("n", "value", "_below_mask")

    def __init__(self, n: int, value: int):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if value < 0 or value >> n:
            raise ValueError(f"value {_shorten(f'{value:#x}')} does not fit in {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_below_mask", None)

    def __setattr__(self, name, val):
        raise AttributeError("BladeIndex is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def from_bits(cls, text: str) -> "BladeIndex":
        """Build from a '0'/'1' literal, position 1 first (e.g. "1100")."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"not a binary blade literal: {_shorten(repr(text))}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_hex(cls, text: str, n: int) -> "BladeIndex":
        """Build from big-endian hex nibbles, left-padded to ceil(n/4) digits."""
        if len(text) != (n + 3) // 4:
            raise ValueError(
                f"hex literal {_shorten(repr(text))} has {len(text)} nibbles, "
                f"expected {(n + 3) // 4}"
            )
        # unhexlify takes hex digits only, where int(text, 16) would also
        # take signs, spaces, underscores and a 0x prefix.
        try:
            raw = binascii.unhexlify("0" * (len(text) % 2) + text)
        except ValueError:
            raise ValueError(
                f"hex literal {_shorten(repr(text))} has characters outside 0-9a-fA-F"
            ) from None
        return cls(n, int.from_bytes(raw, "big"))

    @classmethod
    def from_positions(cls, positions, n: int) -> "BladeIndex":
        """Build from 1-based generator positions, e.g. [1, 2, 5] -> e_125."""
        value = 0
        for p in positions:
            if not 1 <= p <= n:
                raise ValueError(f"generator position {p} outside 1..{n}")
            value |= 1 << (n - p)
        return cls(n, value)

    @classmethod
    def scalar(cls, n: int) -> "BladeIndex":
        """The all-zero string: the scalar blade 1."""
        return cls(n, 0)

    # --- views ----------------------------------------------------------

    @property
    def bits(self) -> str:
        """The '0'/'1' literal, position 1 first."""
        return format(self.value, f"0{self.n}b")

    @property
    def hex(self) -> str:
        """Big-endian hex form, left-padded to ceil(n/4) nibbles."""
        return format(self.value, f"0{(self.n + 3) // 4}x")

    def grade(self) -> int:
        """Number of generators present (the blade's grade)."""
        return self.value.bit_count()

    def positions(self):
        """Sorted 1-based positions of the generators present."""
        b = self.bits
        return tuple(i + 1 for i in range(self.n) if b[i] == "1")

    # --- algebra ----------------------------------------------------------

    def __xor__(self, other: "BladeIndex") -> "BladeIndex":
        _check_dims(self, other)
        return BladeIndex(self.n, self.value ^ other.value)

    def below_parity_mask(self) -> int:
        """Int whose machine bit j holds the parity of this blade's bits below j.

        Computed once per blade by a shift-XOR prefix scan (log n big-int
        ops, each O(n/w) machine words) and cached; `product_sign` then
        needs one AND and one popcount per product.
        """
        mask = self._below_mask
        if mask is None:
            p = self.value
            shift = 1
            while shift < self.n:
                p ^= p << shift
                shift <<= 1
            mask = p << 1
            object.__setattr__(self, "_below_mask", mask)
        return mask

    # --- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BladeIndex)
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __lt__(self, other: "BladeIndex") -> bool:
        # Lexicographic on fixed-width literals == numeric on values.
        _check_dims(self, other)
        return self.value < other.value

    def __repr__(self) -> str:
        return f"BladeIndex({format_blade(self)!r})" if self.n <= BINARY_LITERAL_MAX else (
            f"BladeIndex(n={self.n}, hex={self.hex!r})"
        )


@dataclass(frozen=True)
class SignedBlade:
    """A blade with an explicit sign in {+1, -1}.

    Signs are kept as ints, never booleans or floats, so composition
    stays literal multiplication.
    """

    sign: int
    index: BladeIndex

    def __post_init__(self):
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    def __mul__(self, other: "SignedBlade") -> "SignedBlade":
        return geometric_product(self, other)

    def __neg__(self) -> "SignedBlade":
        return SignedBlade(-self.sign, self.index)

    def __repr__(self) -> str:
        mark = "+" if self.sign > 0 else "-"
        return f"SignedBlade({mark}{format_blade(self.index)})"


# --- operations -------------------------------------------------------------


def product_sign(a: BladeIndex, b: BladeIndex) -> int:
    """Sign of the product (left factor a, right factor b).

    Equals (-1)^D where D counts the pairs (k, l), k < l, with bit k set
    in b and bit l set in a: the number of times a generator of the right
    factor jumps over a generator of the left factor while merging the
    two sorted generator lists.
    """
    _check_dims(a, b)
    return -1 if (b.value & a.below_parity_mask()).bit_count() & 1 else 1


def geometric_product(a: SignedBlade, b: SignedBlade) -> SignedBlade:
    """Signed blade product: XOR of indexes, signs multiplied through."""
    s = a.sign * b.sign * product_sign(a.index, b.index)
    return SignedBlade(s, a.index ^ b.index)


def blade_inverse(a: BladeIndex) -> SignedBlade:
    """The signed blade that cancels a: inverse(a) * (+a) == +scalar.

    For a grade-k blade the sign is (-1)^(k(k-1)/2), the parity of
    reversing the blade's own generator list.
    """
    return SignedBlade(reversion_sign(a.grade()), a)


def reversion_sign(k: int) -> int:
    """(-1)^(k(k-1)/2): +1 for grades 0,1 mod 4, -1 for grades 2,3 mod 4."""
    return -1 if k & 2 else 1


# --- textual literals ---------------------------------------------------------


def parse_blade(text: str, n: int) -> BladeIndex:
    """Parse an n-bit blade literal, binary or hex.

    A literal of length n over '0'/'1' is binary and a literal of
    ceil(n/4) hex digits is hex (the two lengths only agree for n=1,
    where both readings coincide).
    """
    if len(text) == n and not set(text) - {"0", "1"}:
        return BladeIndex.from_bits(text)
    if len(text) == (n + 3) // 4:
        return BladeIndex.from_hex(text, n)
    raise ValueError(
        f"blade literal {_shorten(repr(text))} matches neither binary nor hex for n={n}"
    )


def format_blade(b: BladeIndex) -> str:
    """Render a blade literal: binary up to BINARY_LITERAL_MAX bits, hex beyond."""
    return b.bits if b.n <= BINARY_LITERAL_MAX else b.hex
