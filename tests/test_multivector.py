"""Sparse multivector arithmetic, projection, similarity, trace form."""

import math

import numpy as np
import pytest

from bladebind.blades import BladeIndex, SignedBlade, blade_inverse
from bladebind.multivector import Multivector, similarity, trace_product
from dense_cartan import blade_matrix, rep


def mv(pairs, n=4):
    return Multivector.from_pairs(pairs, n)


def test_exact_zeros_are_dropped():
    x = Multivector(4, {BladeIndex.from_bits("1010"): 0.0})
    assert len(x) == 0
    y = mv([(2.0, "1010")]) + mv([(-2.0, "1010")])
    assert len(y) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError, match="not finite"):
        Multivector(4, {BladeIndex.from_bits("1010"): bad})
    with pytest.raises(ValueError, match="not finite"):
        mv([(1.0, "1100"), (bad, "0011")])


@pytest.mark.parametrize("second", ["1100", "c"], ids=["same-literal", "binary-and-hex"])
def test_from_pairs_rejects_a_repeated_blade(second):
    # to_pairs writes each blade once; a repeat, binary or hex, would add or cancel
    with pytest.raises(ValueError, match="blade 1100 is named twice"):
        mv([(1.0, "1100"), (2.5, "0011"), (-1.0, second)])


def test_linear_ops():
    x = mv([(1.0, "1000"), (2.0, "0110")])
    y = mv([(3.0, "1000"), (-2.0, "0110")])
    assert (x + y) == mv([(4.0, "1000")])
    assert (x - y) == mv([(-2.0, "1000"), (4.0, "0110")])
    assert (-x) == mv([(-1.0, "1000"), (-2.0, "0110")])
    assert 2 * x == mv([(2.0, "1000"), (4.0, "0110")])
    assert x * 0 == Multivector(4)


def test_product_distributes_over_terms():
    a = mv([(2.0, "1000")])
    c = mv([(3.0, "0110")])
    z = mv([(1.0, "0001")])
    assert (a + c).gp(z) == a.gp(z) + c.gp(z)
    assert a * z == a.gp(z)


def test_single_blade_product_matches_signed_blade():
    x = SignedBlade(1, BladeIndex.from_bits("1010"))
    y = SignedBlade(1, BladeIndex.from_bits("0111"))
    prod = x * y
    got = Multivector.from_blade(x).gp(Multivector.from_blade(y))
    assert got == Multivector.from_blade(prod)


def test_worked_record_products():
    # the four-bit record and its two decode forms
    record = mv([(2.0, "0110"), (2.0, "1111")])
    name = Multivector.from_blade(BladeIndex.from_bits("1010"))
    assert name.gp(record) == mv([(-2.0, "1100"), (2.0, "0101")])
    inv = Multivector.from_blade(blade_inverse(BladeIndex.from_bits("1010")))
    assert inv.gp(record) == mv([(2.0, "1100"), (-2.0, "0101")])


def test_reverse_is_an_involution():
    x = mv([(1.0, "0000"), (2.0, "1000"), (3.0, "1100"), (4.0, "1110"), (5.0, "1111")])
    assert x.reverse() == mv(
        [(1.0, "0000"), (2.0, "1000"), (-3.0, "1100"), (-4.0, "1110"), (5.0, "1111")]
    )
    assert x.reverse().reverse() == x


def test_scalar_part():
    assert mv([(7.0, "0000"), (1.0, "1000")]).scalar_part() == 7.0
    assert mv([(1.0, "1000")]).scalar_part() == 0.0
    x = mv([(7.0, "0110")])
    assert x.coeff(BladeIndex.from_bits("0110")) == 7.0
    assert x.coeff(BladeIndex.from_bits("1000")) == 0.0
    assert x.coeff(BladeIndex.from_bits("01100")) == 0.0


def test_project_to_support():
    x = mv([(1.0, "1100"), (2.0, "0101"), (3.0, "0000"), (4.0, "0110")])
    # k=2 keeps blades with positions 3,4 clear
    assert x.project_to_support(2) == mv([(1.0, "1100"), (3.0, "0000")])
    assert x.project_to_support(4) == x
    assert x.project_to_support(0) == mv([(3.0, "0000")])
    with pytest.raises(ValueError):
        x.project_to_support(5)


def test_similarity_is_the_squared_norm_on_the_diagonal():
    x = mv([(2.0, "1100"), (-3.0, "0111"), (1.5, "0000")])
    assert similarity(x, x) == 2.0**2 + 3.0**2 + 1.5**2
    assert similarity(x, Multivector(4)) == 0.0


def test_similarity_of_distinct_blades_is_zero():
    x = mv([(1.0, "1100")])
    y = mv([(1.0, "0110")])
    assert similarity(x, y) == 0.0
    assert similarity(x, mv([(4.0, "1100")])) == 4.0


def test_an_overflowing_scalar_part_is_rejected():
    x = mv([(1e200, "0011")])
    with pytest.raises(ValueError, match="not finite"):
        similarity(x, x)
    with pytest.raises(ValueError, match="not finite"):
        trace_product(x, x, 2)
    big = mv([(1e308, "1000")])
    with pytest.raises(ValueError, match="not finite"):
        trace_product(big, mv([(1.0, "1000")]), 2)  # finite <xy>_0, 2^m * it is not


def test_overflow_off_the_scalar_part_leaves_it_finite():
    # x * y and reverse(x) * y both overflow on blade 0110 only
    x = mv([(1e200, "0011")])
    y = mv([(1e200, "0101")])
    assert similarity(x, y) == 0.0
    assert trace_product(x, y, 2) == 0.0
    x = mv([(1e200, "0011"), (2.0, "1000")])
    y = mv([(1e200, "0101"), (3.0, "1000")])
    assert similarity(x, y) == 6.0
    assert trace_product(x, y, 2) == 24.0


def test_trace_product_beyond_a_float_power_of_two():
    # 2^m alone overflows a float for m >= 1024; the product need not
    n, m = 10_000, 5000
    x = Multivector.from_blade(BladeIndex(n, 1))
    y = Multivector.from_blade(BladeIndex(n, 2))
    assert trace_product(x, y, m) == 0.0  # zero scalar part
    with pytest.raises(ValueError, match="not finite"):
        trace_product(x, x, m)
    y = Multivector.from_blade(BladeIndex(2048, 3))
    with pytest.raises(ValueError, match="not finite"):
        trace_product(y, y, 1024)
    with pytest.raises(ValueError, match="not finite"):
        trace_product(y * -1.0, y, 1024)
    # a tiny scalar part stays finite: 1e-300 * 2^1100 is about 1.36e31
    tiny = Multivector(4, {BladeIndex(4, 0): 1e-300})
    one = Multivector.from_blade(BladeIndex(4, 0))
    assert trace_product(tiny, one, 1100) == math.ldexp(1e-300, 1100)
    assert 1.3e31 < trace_product(tiny, one, 1100) < 1.4e31


def test_trace_product_matches_matrix_trace():
    rng = np.random.default_rng(7)
    n, m = 5, 3
    for _ in range(20):
        xs = {BladeIndex(n, int(v)): float(c) for v, c in
              zip(rng.integers(0, 1 << n, 3), rng.integers(-4, 5, 3))}
        ys = {BladeIndex(n, int(v)): float(c) for v, c in
              zip(rng.integers(0, 1 << n, 3), rng.integers(-4, 5, 3))}
        x, y = Multivector(n, xs), Multivector(n, ys)
        algebraic = trace_product(x, y, m)
        literal = np.trace(rep(x, m) @ rep(y, m))
        assert abs(algebraic - literal) <= 1e-9


def test_trace_product_needs_enough_factors():
    x = mv([(1.0, "1111")])
    with pytest.raises(ValueError):
        trace_product(x, x, 1)
    assert trace_product(x, x, 2) == 4.0  # a 4-blade squares to +1, 2^2 = 4


def test_trace_form_stays_faithful_at_saturation():
    # even with n == 2m every nonzero blade of the Kronecker
    # construction is traceless, so the trace form agrees with the
    # literal trace at the boundary too
    n, m = 4, 2
    top = Multivector.from_blade(BladeIndex(n, 0b1111))
    one = Multivector.from_blade(BladeIndex(n, 0))
    assert trace_product(one, top, m) == 0.0
    assert abs(np.trace(rep(one, m) @ rep(top, m))) <= 1e-12


def test_dimension_checks():
    with pytest.raises(ValueError):
        mv([(1.0, "10")], 2) + mv([(1.0, "100")], 3)
    with pytest.raises(ValueError):
        mv([(1.0, "10")], 2).gp(mv([(1.0, "100")], 3))
    with pytest.raises(ValueError):
        Multivector(3, {BladeIndex.from_bits("10"): 1.0})
    with pytest.raises(ValueError):
        Multivector(0)


def test_equality_is_exact():
    x = mv([(1.0, "1010")])
    y = mv([(1.0 + 5e-10, "1010")])
    assert not x == y
    assert x != y
    # the same terms built in another order are equal
    terms = [(1.0, "1010"), (-2.5, "0110"), (0.5, "0000")]
    assert mv(terms) == mv(terms[::-1])
    assert mv(terms) == mv(terms[1:]) + mv(terms[:1])
    assert not mv(terms) != mv(terms[::-1])
    assert Multivector(4) == Multivector(4) != Multivector(5)


@pytest.mark.parametrize(
    "expression",
    [
        lambda: Multivector(4) + 1,
        lambda: Multivector(4) - 1,
        lambda: Multivector(4) * "x",
        lambda: BladeIndex(4, 1) ^ 1,
        lambda: BladeIndex(4, 1) < 1,
        lambda: SignedBlade(1, BladeIndex(4, 1)) * 2,
    ],
    ids=["multivector-add", "multivector-sub", "multivector-mul", "blade-xor", "blade-lt",
         "signed-blade-mul"],
)
def test_an_operator_on_a_foreign_operand_raises_type_error(expression):
    with pytest.raises(TypeError):
        expression()


def test_to_pairs_is_sorted_and_round_trips():
    x = mv([(2.0, "1111"), (1.0, "0001"), (-1.0, "0110")])
    pairs = x.to_pairs()
    assert [lit for _, lit in pairs] == ["0001", "0110", "1111"]
    assert Multivector.from_pairs(pairs, 4) == x


def test_immutability():
    x = mv([(1.0, "1010")])
    with pytest.raises(AttributeError):
        x.n = 5
