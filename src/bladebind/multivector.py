"""Sparse real-coefficient combinations of blades.

A multivector is a finite sum of signed blades with real weights; records
built by the codec and the noisy results of unbinding both live here.
Coefficients that cancel to exactly zero are dropped, so the term table
only ever holds genuine support; NaN and infinite coefficients are
rejected.  Values are immutable and every operation returns a fresh
instance.
"""

from __future__ import annotations

import math

from .blades import (
    BladeIndex,
    SignedBlade,
    _check_dims,
    _shorten,
    format_blade,
    parse_blade,
    product_sign,
    reversion_sign,
)

__all__ = ["Multivector", "similarity", "trace_product", "min_factor_count", "DEFAULT_TOLERANCE"]

# Absolute tolerance for coefficient comparison; the algebra itself is exact,
# so this only matters when comparing against the matrix oracle.
DEFAULT_TOLERANCE = 1e-9


class Multivector:
    """Sparse mapping from blade indexes to nonzero real coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        clean: dict[BladeIndex, float] = {}
        for idx, coeff in (terms or {}).items():
            if idx.n != n:
                raise ValueError(
                    f"term {idx!r} has dimension {idx.n}, multivector has {n}"
                )
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(
                    f"coefficient {c!r} of blade {_shorten(format_blade(idx))} is not finite"
                )
            if c != 0.0:
                clean[idx] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, val):
        raise AttributeError("Multivector is immutable")

    # --- constructors -----------------------------------------------------

    @classmethod
    def from_blade(cls, b) -> "Multivector":
        """Single-term multivector; a bare BladeIndex counts as +1 signed."""
        if isinstance(b, SignedBlade):
            return cls(b.index.n, {b.index: b.sign})
        return cls(b.n, {b: 1.0})

    @classmethod
    def from_pairs(cls, pairs, n: int) -> "Multivector":
        """Build from (coefficient, blade-literal) pairs; duplicates accumulate."""
        acc: dict[BladeIndex, float] = {}
        for coeff, literal in pairs:
            idx = parse_blade(literal, n)
            acc[idx] = acc.get(idx, 0.0) + float(coeff)
        return cls(n, acc)

    # --- views --------------------------------------------------------------

    def items(self):
        """Terms as (BladeIndex, coefficient), ordered by blade literal."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].value)

    def coeff(self, idx: BladeIndex) -> float:
        return self._terms.get(idx, 0.0)

    def to_pairs(self) -> list:
        """Serializable [(coefficient, literal), ...] in deterministic order."""
        return [(c, format_blade(idx)) for idx, c in self.items()]

    def __len__(self) -> int:
        return len(self._terms)

    # --- linear structure ---------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        _check_dims(self, other)
        acc = dict(self._terms)
        for idx, c in other._terms.items():
            acc[idx] = acc.get(idx, 0.0) + c
        return Multivector(self.n, acc)

    def __neg__(self) -> "Multivector":
        return Multivector(self.n, {idx: -c for idx, c in self._terms.items()})

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    # --- products -----------------------------------------------------------

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product, distributed over all term pairs."""
        _check_dims(self, other)
        acc: dict[BladeIndex, float] = {}
        for ia, ca in self._terms.items():
            for ib, cb in other._terms.items():
                idx = ia ^ ib
                acc[idx] = acc.get(idx, 0.0) + ca * cb * product_sign(ia, ib)
        return Multivector(self.n, acc)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return self.gp(other)
        if isinstance(other, (int, float)):
            return Multivector(self.n, {idx: other * c for idx, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def reverse(self) -> "Multivector":
        """Reversion: each grade-k term picks up (-1)^(k(k-1)/2)."""
        return Multivector(
            self.n,
            {idx: c * reversion_sign(idx.grade()) for idx, c in self._terms.items()},
        )

    # --- extraction -----------------------------------------------------------

    def scalar_part(self) -> float:
        """Coefficient of the all-zero blade, 0.0 if absent."""
        return self._terms.get(BladeIndex.scalar(self.n), 0.0)

    def project_to_support(self, filler_bits: int) -> "Multivector":
        """Keep only terms whose bits beyond position filler_bits are zero."""
        if not 0 <= filler_bits <= self.n:
            raise ValueError(f"filler_bits {filler_bits} outside 0..{self.n}")
        low = (1 << (self.n - filler_bits)) - 1
        return Multivector(
            self.n, {idx: c for idx, c in self._terms.items() if not idx.value & low}
        )

    # --- comparison --------------------------------------------------------------

    def approx_eq(self, other: "Multivector", tol: float = DEFAULT_TOLERANCE) -> bool:
        """Key-by-key coefficient equality within absolute tolerance."""
        if not isinstance(other, Multivector) or self.n != other.n:
            return False
        for idx in self._terms.keys() | other._terms.keys():
            if abs(self.coeff(idx) - other.coeff(idx)) > tol:
                return False
        return True

    __eq__ = approx_eq
    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        body = ", ".join(f"{lit}: {c:g}" for c, lit in self.to_pairs())
        return f"Multivector(n={self.n}, {{{body}}})"


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
