"""Dense numpy references for the tests: the Kronecker matrix model and a
vectorized crossing count.

The matrix model is the literal one that `bladebind.cartan` encodes as
Pauli strings: with m factors, the odd generator e_(2k-1) is sigma1 on
the m-k leading factors, sigma3 in slot k, identity below, and the even
generator e_(2k) swaps the sigma3 for sigma2.  Everything is dense
complex arithmetic on 2^m x 2^m arrays, so m is capped well before
memory becomes a problem.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from bladebind.blades import BladeIndex, _check_dims
from bladebind.multivector import Multivector, _check_factors

# 2^12 x 2^12 complex128 is 256 MB per matrix; anything larger is out of
# scope for a dense oracle.
ORDER_CAP = 12

_SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)
for _mat in _SIGMA.values():
    _mat.setflags(write=False)
_ID2.setflags(write=False)


def pauli(which: int) -> np.ndarray:
    """Fresh copy of sigma_1, sigma_2 or sigma_3."""
    if which not in _SIGMA:
        raise ValueError(f"pauli index must be 1, 2 or 3, got {which}")
    return _SIGMA[which].copy()


def _check_order(m: int) -> None:
    if not 1 <= m <= ORDER_CAP:
        raise ValueError(f"factor count m must be in 1..{ORDER_CAP}, got {m}")


@lru_cache(maxsize=None)
def _generator(j: int, m: int) -> np.ndarray:
    k = (j + 1) // 2
    slot = _SIGMA[3] if j & 1 else _SIGMA[2]
    out = np.eye(1, dtype=complex)
    for _ in range(m - k):
        out = np.kron(out, _SIGMA[1])
    out = np.kron(out, slot)
    for _ in range(k - 1):
        out = np.kron(out, _ID2)
    out.setflags(write=False)
    return out


def generator_matrix(j: int, m: int) -> np.ndarray:
    """Matrix of the single generator e_j inside m Pauli factors."""
    _check_order(m)
    if not 1 <= j <= 2 * m:
        raise ValueError(f"generator index {j} outside 1..{2 * m} for m={m}")
    return _generator(j, m).copy()


def blade_matrix(b: BladeIndex, m: int) -> np.ndarray:
    """Matrix of a basis blade: product of its generators in ascending order."""
    _check_order(m)
    _check_factors(b.n, m)
    out = np.eye(1 << m, dtype=complex)
    for j in b.positions():
        out = out @ _generator(j, m)
    return out


def rep(x: Multivector, m: int) -> np.ndarray:
    """Linear extension of blade_matrix to a whole multivector."""
    _check_order(m)
    _check_factors(x.n, m)
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for idx, coeff in x.items():
        out += coeff * blade_matrix(idx, m)
    return out


def crossing_count(a_positions: np.ndarray, b_positions: np.ndarray) -> int:
    """Number of pairs (k, l) with k a right-factor position, l a
    left-factor position, and k < l.  Inputs must be sorted ascending."""
    insert_at = np.searchsorted(a_positions, b_positions, side="right")
    return int((len(a_positions) - insert_at).sum())


def sign_by_crossing_count(a: BladeIndex, b: BladeIndex) -> int:
    _check_dims(a, b)
    apos = np.asarray(a.positions(), dtype=np.int64)
    bpos = np.asarray(b.positions(), dtype=np.int64)
    return -1 if crossing_count(apos, bpos) & 1 else 1
