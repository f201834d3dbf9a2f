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
into sorted order.  The parity of D takes a handful of word-parallel
big-int operations on the raw ints: a prefix-parity scan of the left
factor (`_prefix_parity`), then one AND and one popcount against the
right factor (`_masked_sign`).  `Multivector.gp` applies that rule to
raw int keys; `product_sign` applies it to two `BladeIndex` objects,
popcounting only from the right factor's lowest set bit up.  It is the
one sign of the GA codec: binding a filler f to a role r and reading f
back after unbinding by inverse(r) take the same sign, see
`bladebind.codec.ga_decode`.
`bladebind.reference` keeps slow independent implementations for
differential testing.
"""

from __future__ import annotations

import binascii

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
            f"operands live in different algebras "
            f"(n={_shorten(str(a.n))} vs n={_shorten(str(b.n))})"
        )


class BladeIndex:
    """An n-bit blade identifier.  Immutable after construction.

    Attributes:
        n: number of generator positions (n >= 1).
        value: the bits packed into an int, position i at machine bit n - i.

    Two product caches start empty and `product_sign` fills each on
    first use: the prefix-parity mask (`_prefix_parity`, as a left
    factor) and the machine bit where the sign's popcount starts (as a
    right factor, see `_popcount_start`).
    """

    __slots__ = ("n", "value", "_below_mask", "_low")

    def __init__(self, n: int, value: int):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {_shorten(str(n))}")
        if value < 0 or value >> n:
            raise ValueError(
                f"value {_shorten(f'{value:#x}')} does not fit in {_shorten(str(n))} bits"
            )
        _set_n(self, n)
        _set_value(self, value)
        _set_below_mask(self, None)
        _set_low(self, None)

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
    def from_positions(cls, positions, n: int) -> "BladeIndex":
        """Build from 1-based generator positions, e.g. [1, 2, 5] -> e_125."""
        value = 0
        for p in positions:
            if not 1 <= p <= n:
                raise ValueError(f"generator position {p} outside 1..{n}")
            value |= 1 << (n - p)
        return cls(n, value)

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
        if not isinstance(other, BladeIndex):
            return NotImplemented
        _check_dims(self, other)
        return BladeIndex(self.n, self.value ^ other.value)

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
        if not isinstance(other, BladeIndex):
            return NotImplemented
        # Lexicographic on fixed-width literals == numeric on values.
        _check_dims(self, other)
        return self.value < other.value

    def __repr__(self) -> str:
        return f"BladeIndex({format_blade(self)!r})" if self.n <= BINARY_LITERAL_MAX else (
            f"BladeIndex(n={self.n}, hex={self.hex!r})"
        )


# The slot descriptors' setters write a field past __setattr__'s refusal,
# without the generic attribute lookup of object.__setattr__.
_set_n = BladeIndex.n.__set__
_set_value = BladeIndex.value.__set__
_set_below_mask = BladeIndex._below_mask.__set__
_set_low = BladeIndex._low.__set__


class SignedBlade:
    """A blade with an explicit sign in {+1, -1}.  Immutable after construction.

    Signs are kept as ints, never booleans or floats, so composition
    stays literal multiplication.
    """

    __slots__ = ("sign", "index")

    def __init__(self, sign: int, index: BladeIndex):
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        _set_sign(self, sign)
        _set_index(self, index)

    def __setattr__(self, name, val):
        raise AttributeError("SignedBlade is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedBlade)
            and self.sign == other.sign
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.sign, self.index))

    def __mul__(self, other: "SignedBlade") -> "SignedBlade":
        if not isinstance(other, SignedBlade):
            return NotImplemented
        return geometric_product(self, other)

    def __neg__(self) -> "SignedBlade":
        return SignedBlade(-self.sign, self.index)

    def __repr__(self) -> str:
        mark = "+" if self.sign > 0 else "-"
        return f"SignedBlade({mark}{format_blade(self.index)})"


_set_sign = SignedBlade.sign.__set__
_set_index = SignedBlade.index.__set__


# --- operations -------------------------------------------------------------


def product_sign(a: BladeIndex, b: BladeIndex) -> int:
    """Sign of the product (left factor a, right factor b).

    Equals (-1)^D where D counts the pairs (k, l), k < l, with bit k set
    in b and bit l set in a: the number of times a generator of the right
    factor jumps over a generator of the left factor while merging the
    two sorted generator lists.

    D's parity is that of b AND a's prefix-parity mask.  That AND has no
    set bit below b's lowest set bit, so the popcount can start there: a
    filler, zero in its lowest n - k machine bits, costs k bits of
    popcount rather than n.  a's mask and b's start are each found once
    per blade and cached in its slots.
    """
    if a.n != b.n:
        _check_dims(a, b)
    mask = a._below_mask
    if mask is None:
        mask = _prefix_parity(a.value, a.n)
        _set_below_mask(a, mask)
    low = b._low
    if low is None:
        low = _popcount_start(b.value, b.n)
        _set_low(b, low)
    bits = b.value & mask
    if low:
        bits >>= low
    return -1 if bits.bit_count() & 1 else 1


def _popcount_start(value: int, n: int) -> int:
    """Machine bit where `product_sign` starts its popcount for right factor value.

    The lowest set bit, when at least a third of the n bits lie below
    it; else 0 (so 0 for the scalar).  The shift that skips those bits
    copies the ones above, and costs more than it saves for a shorter
    skip (bit 0 of a random blade is set half the time).
    """
    low = (value & -value).bit_length() - 1
    return low if 3 * low >= n else 0


def _prefix_parity(value: int, n: int) -> int:
    """Int whose machine bit j holds the parity of value's bits below j.

    A shift-XOR prefix scan: log n big-int ops, each O(n/w) machine
    words.  The scan runs up to n plus the next power of two of bits;
    one AND cuts it to the n bits `product_sign` and `Multivector.gp`
    read, so a cached mask costs no more than its blade.
    """
    shift = 1
    while shift < n:
        value ^= value << shift
        shift <<= 1
    return value << 1 & (1 << n) - 1


def _masked_sign(b: int, mask: int) -> int:
    """Sign of left * right, given the right factor b and the left's `_prefix_parity`."""
    return -1 if (b & mask).bit_count() & 1 else 1


def geometric_product(a: SignedBlade, b: SignedBlade) -> SignedBlade:
    """Signed blade product: XOR of indexes, signs multiplied through.

    Both results are built through the slot setters: the XOR of two
    n-bit values fits in n bits and a product of +-1 ints is one.
    """
    ai, bi = a.index, b.index
    sign = a.sign * b.sign * product_sign(ai, bi)  # checks the dimensions
    index = object.__new__(BladeIndex)
    _set_n(index, ai.n)
    _set_value(index, ai.value ^ bi.value)
    _set_below_mask(index, None)
    _set_low(index, None)
    product = object.__new__(SignedBlade)
    _set_sign(product, sign)
    _set_index(product, index)
    return product


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
        # unhexlify takes hex digits only, where int(text, 16) would also
        # take signs, spaces, underscores and a 0x prefix.
        try:
            raw = binascii.unhexlify("0" * (len(text) % 2) + text)
        except ValueError:
            raise ValueError(
                f"hex literal {_shorten(repr(text))} has characters outside 0-9a-fA-F"
            ) from None
        return BladeIndex(n, int.from_bytes(raw, "big"))
    raise ValueError(
        f"blade literal {_shorten(repr(text))} matches neither binary nor hex "
        f"for n={_shorten(str(n))}"
    )


def format_blade(b: BladeIndex) -> str:
    """Render a blade literal: binary up to BINARY_LITERAL_MAX bits, hex beyond."""
    return b.bits if b.n <= BINARY_LITERAL_MAX else b.hex
