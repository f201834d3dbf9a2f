"""Kronecker model of the blade algebra as Pauli strings, an oracle at every n.

With m Pauli factors, the generator e_(2k-1) is sigma1 on the m-k
leading factors, sigma3 in the next one and the identity on the k-1
trailing ones; e_(2k) has sigma2 in place of the sigma3 (Jordan-Wigner).
These are 2m anticommuting square roots of +1, so any algebra with
n <= 2m generators embeds faithfully.  Kronecker products multiply slot
by slot, so a blade is a phase i^p times m letters, the "phase plus
letters" form of Aaronson & Gottesman: the pair (p, letters), p in 0..3
and letters a tuple of codes, 0 for I and a for sigma_a, slot 0
leftmost.  Nothing here shares the transposition count or the
prefix-parity scan of `blades`, and no matrix is ever formed.
"""

from __future__ import annotations

import math

from .blades import BladeIndex
from .multivector import Multivector, _check_factors

__all__ = ["blade_string", "string_product", "rep", "product", "trace", "diagonal"]

I, SIGMA1, SIGMA2, SIGMA3 = 0, 1, 2, 3

# i^p, with +0.0 for each zero part so that they print as 1j, -1j, ...
PHASES = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))

# (a, b) -> (p, c) with sigma_a sigma_b = i^p sigma_c, from
# sigma_a sigma_b = delta_ab I + i epsilon_abc sigma_c; with these codes c = a ^ b
_SLOT_PRODUCT = {
    (a, b): (0 if I in (a, b) or a == b else 1 if (b - a) % 3 == 1 else 3, a ^ b)
    for a in range(4)
    for b in range(4)
}


def blade_string(b: BladeIndex, m: int) -> tuple:
    """The blade's generators multiplied in ascending order, as (phase, letters).

    Slot p holds sigma1^c, then sigma3 if e_(2(m-p)-1) is present, then
    sigma2 if e_(2(m-p)) is, where c counts the blade's generators of
    index <= 2(m-p-1); one running count fills the slots right to left.
    """
    _check_factors(b.n, m)
    bits = b.bits.ljust(2 * m, "0")  # e_j is present iff bits[j - 1] == "1"
    phase, below, letters = 0, 0, [I] * m
    for k in range(1, m + 1):
        letter = SIGMA1 if below & 1 else I
        for bit, sigma in zip(bits[2 * k - 2 : 2 * k], (SIGMA3, SIGMA2)):
            if bit == "1":
                p, letter = _SLOT_PRODUCT[letter, sigma]
                phase += p
                below += 1
        letters[m - k] = letter
    return phase % 4, tuple(letters)


def string_product(s: tuple, t: tuple) -> tuple:
    """(i^p P)(i^q Q) = i^(p+q) times the slot-by-slot product of P and Q."""
    (phase, left), (q, right) = s, t
    if len(left) != len(right):
        raise ValueError(f"strings of {len(left)} and {len(right)} factors")
    letters = []
    for a, b in zip(left, right):
        p, c = _SLOT_PRODUCT[a, b]
        phase += p
        letters.append(c)
    return (phase + q) % 4, tuple(letters)


def rep(x: Multivector, m: int) -> dict:
    """Linear extension of blade_string: letters -> complex coefficient."""
    _check_factors(x.n, m)
    out: dict = {}
    for idx, coeff in x.items():
        phase, letters = blade_string(idx, m)
        out[letters] = coeff * PHASES[phase]
    return out


def product(x: dict, y: dict) -> dict:
    """Product of two representations, distributed over all term pairs."""
    out: dict = {}
    for left, cx in x.items():
        for right, cy in y.items():
            phase, letters = string_product((0, left), (0, right))
            out[letters] = out.get(letters, 0j) + cx * cy * PHASES[phase]
    return out


def trace(x: dict) -> complex:
    """2^m times the all-I coefficient (only I has a trace); OverflowError past a float."""
    for letters, coeff in x.items():
        if not any(letters):  # + 0j turns a -0.0 part into +0.0
            m = len(letters)
            return complex(math.ldexp(coeff.real, m), math.ldexp(coeff.imag, m)) + 0j
    return 0j


def diagonal(s: tuple) -> list:
    """The 2^m diagonal entries of a string, row 0 first; sigma1 and sigma2 have none,
    and sigma3 gives a -1 = i^2 where the row's bit for its slot is set."""
    phase, letters = s
    m = len(letters)
    if SIGMA1 in letters or SIGMA2 in letters:
        return [0j] * (1 << m)
    z = sum(1 << (m - 1 - p) for p, letter in enumerate(letters) if letter == SIGMA3)
    return [PHASES[(phase + 2 * (row & z).bit_count()) % 4] for row in range(1 << m)]
