"""Pauli/Kronecker matrix model: pins, anticommutation, homomorphism."""

import numpy as np
import pytest

from bladebind.blades import BladeIndex, product_sign
from bladebind.cartan import (
    ORDER_CAP,
    blade_matrix,
    generator_matrix,
    pauli,
    rep,
)
from bladebind.multivector import Multivector, min_factor_count

S1 = np.array([[0, 1], [1, 0]], dtype=complex)
S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
S3 = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_pauli_matrices_pinned():
    assert np.array_equal(pauli(1), S1)
    assert np.array_equal(pauli(2), S2)
    assert np.array_equal(pauli(3), S3)
    with pytest.raises(ValueError):
        pauli(0)
    with pytest.raises(ValueError):
        pauli(4)


def test_pauli_returns_fresh_copies():
    a = pauli(1)
    a[0, 0] = 9.0
    assert np.array_equal(pauli(1), S1)


def test_kron_block_rule():
    # each entry of the left factor is replaced by entry * right factor
    got = np.kron(S3, S1)
    expected = np.block([[1 * S1, 0 * S1], [0 * S1, -1 * S1]])
    assert np.array_equal(got, expected)


def test_kron_mixed_entries_pinned():
    got = np.kron(S3, S2)
    assert got[0, 1] == -1j
    assert got[1, 0] == 1j
    assert got[2, 3] == 1j
    assert got[3, 2] == -1j
    assert np.count_nonzero(got) == 4


def test_generator_layout_two_factors():
    assert np.array_equal(generator_matrix(1, 2), np.kron(S1, S3))
    assert np.array_equal(generator_matrix(2, 2), np.kron(S1, S2))
    assert np.array_equal(generator_matrix(3, 2), np.kron(S3, I2))
    assert np.array_equal(generator_matrix(4, 2), np.kron(S2, I2))


def test_generator_bounds():
    with pytest.raises(ValueError):
        generator_matrix(0, 2)
    with pytest.raises(ValueError):
        generator_matrix(5, 2)
    with pytest.raises(ValueError):
        generator_matrix(1, 0)
    with pytest.raises(ValueError):
        generator_matrix(1, ORDER_CAP + 1)


def test_generators_anticommute_and_square_to_identity():
    m = 3
    eye = np.eye(1 << m)
    gens = [generator_matrix(j, m) for j in range(1, 2 * m + 1)]
    for i, gi in enumerate(gens):
        assert np.abs(gi @ gi - eye).max() <= 1e-12
        assert abs(np.trace(gi)) <= 1e-12
        for gj in gens[i + 1 :]:
            assert np.abs(gi @ gj + gj @ gi).max() <= 1e-12


def test_min_factor_count():
    assert [min_factor_count(n) for n in (1, 2, 3, 4, 7, 8)] == [1, 1, 2, 2, 4, 4]


def test_blade_matrix_is_ordered_generator_product():
    m = 3
    b = BladeIndex.from_positions([2, 3, 5], 6)
    expected = generator_matrix(2, m) @ generator_matrix(3, m) @ generator_matrix(5, m)
    assert np.array_equal(blade_matrix(b, m), expected)
    assert np.array_equal(blade_matrix(BladeIndex.scalar(6), m), np.eye(8))


def test_two_blade_factorizations_at_four_factors():
    # e1*e2 collapses to one -i*sigma1 slot; e1*e3 leaves a sigma3 behind
    m = 4
    pat = blade_matrix(BladeIndex.from_bits("1100"), m)
    name = blade_matrix(BladeIndex.from_bits("1010"), m)
    assert np.array_equal(pat, np.kron(I2, np.kron(I2, np.kron(I2, -1j * S1))))
    assert np.array_equal(name, np.kron(I2, np.kron(I2, np.kron(-1j * S2, S3))))


def test_blade_matrix_rejects_too_many_positions():
    with pytest.raises(ValueError):
        blade_matrix(BladeIndex.scalar(7), 3)  # 7 positions need m >= 4


def test_product_homomorphism_random_pairs():
    import random

    rng = random.Random(1)
    m, n = 3, 6
    for _ in range(60):
        a = BladeIndex(n, rng.getrandbits(n))
        b = BladeIndex(n, rng.getrandbits(n))
        lhs = blade_matrix(a, m) @ blade_matrix(b, m)
        rhs = product_sign(a, b) * blade_matrix(a ^ b, m)
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_nonscalar_blades_are_traceless_up_to_saturation():
    # guaranteed for n < 2m; this construction keeps it at n == 2m too
    for n, m in [(3, 2), (4, 2), (5, 3), (6, 3)]:
        for v in range(1, 1 << n):
            assert abs(np.trace(blade_matrix(BladeIndex(n, v), m))) <= 1e-12


def test_packed_two_by_two_model_display():
    # squeezing three generators into single Pauli matrices (e1=s1,
    # e2=s2, e3=s3) realizes the 2x2 display: a general element
    # a00 + a10 e1 + a01 e2 + a11 e12 becomes
    # [[a00 + i a11, a10 - i a01], [a10 + i a01, a00 - i a11]],
    # and the top blade e123 = i*identity is NOT traceless, which is
    # why the library's general construction never packs this way
    a00, a10, a01, a11 = 2.0, 3.0, 5.0, 7.0
    elem = a00 * np.eye(2) + a10 * pauli(1) + a01 * pauli(2) + a11 * (pauli(1) @ pauli(2))
    expected = np.array(
        [
            [a00 + 1j * a11, a10 - 1j * a01],
            [a10 + 1j * a01, a00 - 1j * a11],
        ]
    )
    assert np.abs(elem - expected).max() <= 1e-12
    e123 = pauli(1) @ pauli(2) @ pauli(3)
    assert np.abs(e123 - 1j * np.eye(2)).max() <= 1e-12
    assert abs(np.trace(e123)) == 2.0


def test_rep_is_linear_in_the_terms():
    m = 4
    x = Multivector.from_pairs([(2.0, "0110"), (2.0, "1111")], 4)
    expected = 2.0 * blade_matrix(BladeIndex.from_bits("0110"), m) + 2.0 * blade_matrix(
        BladeIndex.from_bits("1111"), m
    )
    assert np.abs(rep(x, m) - expected).max() <= 1e-12
    assert np.array_equal(rep(Multivector(4), m), np.zeros((16, 16)))


def test_rep_respects_products():
    m = 3
    x = Multivector.from_pairs([(1.0, "110000"), (-2.0, "001100")], 6)
    y = Multivector.from_pairs([(3.0, "000011"), (1.0, "110000")], 6)
    assert np.abs(rep(x.gp(y), m) - rep(x, m) @ rep(y, m)).max() <= 1e-9

