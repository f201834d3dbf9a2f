"""Slow, independent baselines for differential testing and benchmarks.

Nothing here shares code with the production sign kernel.  Two routes
to the same answer:

* ``product_sign_slow``: the quadratic per-position walk, counting for
  every generator of the right factor how many higher-position
  generators the left factor holds.  Obviously correct, O(n^2).
* ``product_by_transposition_sort``: sorts the concatenated generator
  lists with a stable insertion sort, counting adjacent swaps, then
  cancels equal neighbours.  Computes the whole product, not just the
  sign, straight from the definition of the algebra.

The Pauli strings of `cartan` are a third route, through a matrix model
of the algebra rather than through generator orderings.
"""

from __future__ import annotations

from .blades import BladeIndex, SignedBlade, _check_dims

__all__ = [
    "product_sign_slow",
    "product_by_transposition_sort",
]


def product_sign_slow(a: BladeIndex, b: BladeIndex) -> int:
    """Sign of e_a e_b by counting position jumps one bit at a time."""
    _check_dims(a, b)
    abits = [int(ch) for ch in a.bits]
    bbits = [int(ch) for ch in b.bits]
    jumps = 0
    for k in range(a.n):
        if bbits[k]:
            # every left-factor generator strictly below position k must be
            # jumped over when this right-factor generator moves into place
            jumps += sum(abits[k + 1 :])
    return -1 if jumps & 1 else 1


def product_by_transposition_sort(a: BladeIndex, b: BladeIndex) -> SignedBlade:
    """Full product e_a e_b from first principles.

    Concatenate the generator positions of both factors, bubble the list
    into ascending order with adjacent transpositions (each flips the
    sign once), then cancel equal adjacent generators pairwise since a
    generator squares to +1.
    """
    _check_dims(a, b)
    gens = list(a.positions()) + list(b.positions())
    swaps = 0
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1] > gens[j]:
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            swaps += 1
            j -= 1
    surviving: list[int] = []
    for g in gens:
        if surviving and surviving[-1] == g:
            surviving.pop()
        else:
            surviving.append(g)
    sign = -1 if swaps & 1 else 1
    return SignedBlade(sign, BladeIndex.from_positions(surviving, a.n))

