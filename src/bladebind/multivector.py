"""Sparse real-coefficient combinations of blades.

A multivector is a finite sum of signed blades with real weights; the
records built by the GA codec live here (decoding relabels their keys).
The terms are kept as a dict from raw blade ints (the `BladeIndex.value`
bit layout) to coefficients, with the dimension n held once, so products
and sums run on plain ints: the product of two blades lands on the XOR
of their ints, with the sign from `blades._masked_sign`.  `BladeIndex`
appears only at the API boundary: the constructor, `from_blade`,
`from_pairs`, `items`, `coeff` and `to_pairs`.  Coefficients that cancel
to exactly zero are dropped, so the term table only ever holds genuine
support; NaN and infinite coefficients are rejected.  Values are
immutable and every operation returns a fresh instance.
"""

from __future__ import annotations

import math

from .blades import (
    BladeIndex,
    SignedBlade,
    _check_dims,
    _masked_sign,
    _prefix_parity,
    _shorten,
    format_blade,
    parse_blade,
    product_sign,  # unused here; perfbench/spans.py counts calls through this name
    reversion_sign,
)

__all__ = ["Multivector", "similarity", "trace_product", "min_factor_count"]

# Absolute tolerance for coefficient comparison; the algebra itself is exact,
# so this only matters when comparing against the matrix oracle.
DEFAULT_TOLERANCE = 1e-9


class Multivector:
    """Sparse mapping from raw blade ints to nonzero real coefficients, in n dimensions."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        """terms maps BladeIndex to coefficient; every blade must have dimension n."""
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {_shorten(str(n))}")
        values: dict[int, float] = {}
        for idx, coeff in (terms or {}).items():
            if idx.n != n:
                raise ValueError(
                    f"term {idx!r} has dimension {idx.n}, multivector has {_shorten(str(n))}"
                )
            values[idx.value] = float(coeff)
        _fill(self, n, values)

    @classmethod
    def _trusted(cls, n: int, values: dict) -> "Multivector":
        """Internal constructor over raw int keys that the caller keeps in range.

        values becomes the new instance's term table, so the caller hands
        over a dict of its own.  No dimension or range check: an XOR of
        in-range values stays in range.  Exact zeros are still dropped and
        non-finite coefficients still raise, since sums and products of
        finite floats can overflow.
        """
        self = object.__new__(cls)
        _fill(self, n, values)
        return self

    def __setattr__(self, name, val):
        raise AttributeError("Multivector is immutable")

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_blade(cls, b) -> "Multivector":
        """Single-term multivector; a bare BladeIndex counts as +1 signed."""
        if isinstance(b, SignedBlade):
            return cls._trusted(b.index.n, {b.index.value: float(b.sign)})
        return cls._trusted(b.n, {b.value: 1.0})

    @classmethod
    def from_pairs(cls, pairs, n: int) -> "Multivector":
        """Build from (coefficient, blade-literal) pairs, as `to_pairs` writes them.

        Each blade may be named once: a repeat, in the same spelling or
        binary against hex, raises ValueError rather than adding to or
        cancelling the term.
        """
        values: dict[int, float] = {}
        for coeff, literal in pairs:
            idx = parse_blade(literal, n)
            size = len(values)
            values.setdefault(idx.value, float(coeff))
            if len(values) == size:
                raise ValueError(f"blade {_shorten(format_blade(idx))} is named twice")
        # parse_blade has checked n and every key; with no terms, cls(n)
        # still rejects an n below 1
        return cls._trusted(n, values) if values else cls(n)

    # --- views --------------------------------------------------------------

    def items(self):
        """Terms as (BladeIndex, coefficient), ordered by blade literal."""
        n = self.n
        return [(BladeIndex(n, v), c) for v, c in sorted(self._terms.items())]

    def coeff(self, idx: BladeIndex) -> float:
        """Coefficient of blade idx; 0.0 if absent or of another dimension."""
        return self._terms.get(idx.value, 0.0) if idx.n == self.n else 0.0

    def to_pairs(self) -> list:
        """Serializable [(coefficient, literal), ...] in deterministic order."""
        return [(c, format_blade(idx)) for idx, c in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    # --- linear structure ---------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        _check_dims(self, other)
        return Multivector._trusted(self.n, _add_terms(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "Multivector":
        return Multivector._trusted(self.n, {v: -c for v, c in self._terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    # --- products -----------------------------------------------------------

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product, distributed over all term pairs.

        Each left term's prefix-parity mask is built once and shared by
        every right term it meets.
        """
        _check_dims(self, other)
        n = self.n
        right = other._terms.items()

        def terms():
            for a, ca in self._terms.items():
                mask = _prefix_parity(a, n)
                for b, cb in right:
                    yield a ^ b, ca * cb * _masked_sign(b, mask)

        return Multivector._trusted(n, _add_terms({}, terms()))

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.gp(other)
        if isinstance(other, (int, float)):
            return Multivector._trusted(
                self.n, {v: other * c for v, c in self._terms.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def reverse(self) -> "Multivector":
        """Reversion: each grade-k term picks up (-1)^(k(k-1)/2)."""
        return Multivector._trusted(
            self.n,
            {v: c * reversion_sign(v.bit_count()) for v, c in self._terms.items()},
        )

    # --- extraction -----------------------------------------------------------

    def scalar_part(self) -> float:
        """Coefficient of the all-zero blade, 0.0 if absent."""
        return self._terms.get(0, 0.0)

    def project_to_support(self, filler_bits: int) -> "Multivector":
        """Keep only terms whose bits beyond position filler_bits are zero."""
        if not 0 <= filler_bits <= self.n:
            raise ValueError(f"filler_bits {filler_bits} outside 0..{self.n}")
        low = (1 << (self.n - filler_bits)) - 1
        return Multivector._trusted(
            self.n, {v: c for v, c in self._terms.items() if not v & low}
        )

    # --- comparison --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Key-by-key coefficient equality within DEFAULT_TOLERANCE."""
        if not isinstance(other, Multivector) or self.n != other.n:
            return False
        mine, theirs = self._terms, other._terms
        for v in mine.keys() | theirs.keys():
            if abs(mine.get(v, 0.0) - theirs.get(v, 0.0)) > DEFAULT_TOLERANCE:
                return False
        return True

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        body = ", ".join(f"{lit}: {c:g}" for c, lit in self.to_pairs())
        return f"Multivector(n={self.n}, {{{body}}})"


def _add_terms(acc: dict, terms) -> dict:
    """Add the (key, coefficient) pairs of terms into acc; return acc.

    A Python int never caches its hash, and hashing one reads all its
    bits, so each term goes in with one setdefault; only a key already
    there is hashed a second time, to add to it.  The dict not growing
    tells a repeat: comparing setdefault's result with the coefficient
    could not, since equal floats can be one object.
    """
    for v, c in terms:
        size = len(acc)
        old = acc.setdefault(v, c)
        if len(acc) == size:
            acc[v] = old + c
    return acc


def _fill(mv: Multivector, n: int, values: dict) -> None:
    """Set mv's fields to n and the nonzero terms of values, each finite.

    values is taken over, not copied, unless it holds a zero to drop:
    rebuilding a dict rehashes every key, O(n) bits each.
    """
    if not all(map(math.isfinite, values.values())):
        v, c = next((v, c) for v, c in values.items() if not math.isfinite(c))
        raise ValueError(
            f"coefficient {c!r} of blade {_shorten(format_blade(BladeIndex(n, v)))} "
            "is not finite"
        )
    if 0.0 in values.values():
        values = {v: c for v, c in values.items() if c}
    object.__setattr__(mv, "n", n)
    object.__setattr__(mv, "_terms", values)


def similarity(x: Multivector, y: Multivector) -> float:
    """Positive-definite clean-up form: scalar part of reverse(x) * y.

    Each blade times its own reverse is +1, so the scalar part is the
    coefficient sum of x_b * y_b over the blades b both operands share,
    read off the terms without forming the product.
    """
    _check_dims(x, y)
    terms = y._terms
    total = 0.0
    for idx, c in x._terms.items():
        d = terms.get(idx)
        if d is not None:
            total += c * d
    return _finite(total)


def trace_product(x: Multivector, y: Multivector, m: int) -> float:
    """Matrix-trace scalar product evaluated algebraically: 2^m * <x*y>_0.

    Reversion is an involution, so <x*y>_0 is similarity(reverse(x), y),
    the coefficient sum over shared blades.

    m is the Pauli factor count of the representation the trace refers
    to; the algebra needs n <= 2m generators to be representable.  The
    value agrees with the literal matrix trace whenever every non-scalar
    blade is traceless in that representation; the n < 2m case is
    asserted by test, and the Kronecker construction keeps it true at
    n == 2m as well.  Saturated models built by hand can break it (three
    generators packed into 2x2 give a top blade proportional to the
    identity), which is why m is part of this function's contract.
    """
    _check_factors(x.n, m)
    s = similarity(x.reverse(), y)
    # ldexp scales by 2^m without forming it (a float 2^m overflows from
    # m = 1024 on), and raises where the scaled value would be +-inf
    try:
        return math.ldexp(s, m)
    except OverflowError:
        return _finite(math.copysign(math.inf, s))


def min_factor_count(n: int) -> int:
    """Smallest m able to host n anticommuting generators (n <= 2m)."""
    return (n + 1) // 2


def _check_factors(n: int, m: int) -> None:
    if m < min_factor_count(n):
        raise ValueError(f"n={n} needs at least {min_factor_count(n)} Pauli factors, got m={m}")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"scalar part {value!r} is not finite")
    return value
