"""
Kronecker products of Pauli matrices as an independent model
============================================================

"""

import random

from bladebind import BladeIndex, Multivector, product_sign, trace_product
from bladebind.cartan import PHASES, blade_string, product, rep, string_product, trace

LETTERS = ("1", "s1", "s2", "s3")


def show(s):
    """A string as i^p times its Kronecker factors, slot 0 leftmost."""
    phase, letters = s
    return ("+", "+i", "-", "-i")[phase] + " " + " x ".join(LETTERS[a] for a in letters)


# Each generator is a chain of m two-by-two factors: sigma_1 up front,
# one sigma_3 (odd index) or sigma_2 (even index), identities behind.
# A blade is then a phase times one Pauli letter per factor.
m = 2
for j in range(1, 2 * m + 1):
    e_j = BladeIndex.from_positions([j], 2 * m)
    print(f"e_{j} =", show(blade_string(e_j, m)))
print("e_1 e_2 =", show(blade_string(BladeIndex.from_bits("1100"), m)))

# The strings anticommute and square to the identity, exactly the
# relations the bit-string kernel encodes, so letter-by-letter products
# must reproduce kernel products; strings make that checkable at any n.
n = 1024
rng = random.Random(3)
for _ in range(4):
    a = BladeIndex(n, rng.getrandbits(n))
    b = BladeIndex(n, rng.getrandbits(n))
    phase, letters = string_product(blade_string(a, n // 2), blade_string(b, n // 2))
    want_phase, want_letters = blade_string(a ^ b, n // 2)
    print(f"n={n}: e_a e_b = i^{phase} P, e_(a^b) = i^{want_phase} P, "
          f"product_sign {product_sign(a, b):+d}, agree:",
          letters == want_letters and PHASES[phase] == product_sign(a, b) * PHASES[want_phase])

# Only an all-identity string has a trace (2^m times its phase), so the
# trace of a product isolates the scalar part: a matched filter
# evaluated two ways.
m = 2
x = Multivector.from_pairs([(1.0, "1100")], 4)
y = Multivector.from_pairs([(-2.0, "1100"), (2.0, "0101")], 4)
print("trace_product:", trace_product(x, y, m),
      " literal trace:", trace(product(rep(x, m), rep(y, m))))

# Tracelessness holds for every nonzero blade that fits in m factors,
# the saturated case n = 2m included:
worst = max(abs(trace(rep(Multivector(4, {BladeIndex(4, v): 1.0}), m))) for v in range(1, 16))
print("largest |trace| over nonzero 4-bit blades at m=2:", worst)
