"""
Kronecker products of Pauli matrices as an independent model
============================================================

"""

import numpy as np

from bladebind import (
    BladeIndex,
    Multivector,
    blade_matrix,
    generator_matrix,
    pauli,
    product_sign,
    trace_product,
)

# Each generator is a chain of m two-by-two factors: sigma_1 up front,
# one sigma_3 (odd index) or sigma_2 (even index), identities behind.
m = 2
print("e_1 == sigma1 x sigma3:", np.array_equal(generator_matrix(1, m), np.kron(pauli(1), pauli(3))))
print("e_4 == sigma2 x 1     :", np.array_equal(generator_matrix(4, m), np.kron(pauli(2), np.eye(2))))

# The matrices anticommute and square to the identity, exactly the
# relations the bit-string kernel encodes, so literal matrix products
# must reproduce kernel products.
a = BladeIndex.from_bits("0111")
b = BladeIndex.from_bits("1110")
lhs = blade_matrix(a, m) @ blade_matrix(b, m)
rhs = product_sign(a, b) * blade_matrix(a ^ b, m)
print("homomorphism gap:", np.abs(lhs - rhs).max())

# Every nonzero blade is traceless here, so the trace of a product
# isolates the scalar part: a matched filter evaluated two ways.
x = Multivector.from_pairs([(1.0, "1100")], 4)
y = Multivector.from_pairs([(-2.0, "1100"), (2.0, "0101")], 4)
algebraic = trace_product(x, y, m)
literal = np.trace(blade_matrix(BladeIndex.from_bits("1100"), m) @ (
    -2.0 * blade_matrix(BladeIndex.from_bits("1100"), m)
    + 2.0 * blade_matrix(BladeIndex.from_bits("0101"), m)
))
print("trace_product:", algebraic, " literal matrix trace:", literal)

# Tracelessness holds for every nonzero blade that fits in m factors,
# the saturated case n = 2m included:
worst = max(
    abs(np.trace(blade_matrix(BladeIndex(4, v), m))) for v in range(1, 16)
)
print("largest |trace| over nonzero 4-bit blades at m=2:", worst)
