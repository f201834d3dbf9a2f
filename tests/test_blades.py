"""Blade kernel: frozen worked products, literals, and oracle agreement."""

import pytest

from bladebind.blades import (
    BINARY_LITERAL_MAX,
    BladeIndex,
    DimensionMismatch,
    SignedBlade,
    _prefix_parity,
    blade_inverse,
    format_blade,
    geometric_product,
    parse_blade,
    product_sign,
    reversion_sign,
)
from bladebind.codec import gen_symbols
from bladebind.reference import product_by_transposition_sort, product_sign_slow
from dense_cartan import sign_by_crossing_count


def b(text):
    return BladeIndex.from_bits(text)


def sb(sign, text):
    return SignedBlade(sign, b(text))


# --- frozen worked products -------------------------------------------------


def test_single_generator_squares_to_plus_one():
    assert geometric_product(sb(1, "1"), sb(1, "1")) == sb(1, "0")


def test_generator_absorbs_into_two_blade():
    # e1 * e12 = e2 ; e12 * e1 = -e2
    assert geometric_product(sb(1, "10"), sb(1, "11")) == sb(1, "01")
    assert geometric_product(sb(1, "11"), sb(1, "10")) == sb(-1, "01")


def test_eight_bit_worked_product():
    # positions {1,2,5,7} times {2,6}: three jumps, so the sign is -1
    a = b("11001010")
    c = b("01000100")
    assert product_sign(a, c) == -1
    assert geometric_product(SignedBlade(1, a), SignedBlade(1, c)) == sb(-1, "10001110")


def test_four_blade_times_two_blade_positions():
    a = BladeIndex.from_positions([1, 2, 5, 7], 8)
    c = BladeIndex.from_positions([2, 6], 8)
    assert a == b("11001010") and c == b("01000100")
    prod = product_by_transposition_sort(a, c)
    assert prod.sign == -1
    assert prod.index.positions() == (1, 5, 6, 7)


def test_scalar_is_identity_on_both_sides():
    one = BladeIndex(4, 0)
    for text in ("0000", "1010", "1111"):
        assert product_sign(one, b(text)) == 1
        assert product_sign(b(text), one) == 1
        assert one ^ b(text) == b(text)


# --- sign oracle agreement -----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sign_matches_slow_reference_exhaustively(n):
    for av in range(1 << n):
        for bv in range(1 << n):
            x, y = BladeIndex(n, av), BladeIndex(n, bv)
            assert product_sign(x, y) == product_sign_slow(x, y)


def test_full_product_matches_transposition_sort():
    import random

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 100)
        x = BladeIndex(n, rng.getrandbits(n))
        y = BladeIndex(n, rng.getrandbits(n))
        got = geometric_product(SignedBlade(1, x), SignedBlade(1, y))
        assert got == product_by_transposition_sort(x, y)
        assert product_sign(x, y) == sign_by_crossing_count(x, y)


def low_zero_run_factors(n, k):
    """Right factors with long runs of low zero bits: the fillers of a
    generated table (zero in their lowest n - k machine bits), plus the
    scalar, e_n, the single top generator e_1 and the pseudoscalar."""
    table = gen_symbols(
        n + k, n, k, [f"r{i}" for i in range(3)], [f"f{i}" for i in range(min(3, 2**k - 1))]
    )
    edges = [0, 1, 1 << (n - 1), (1 << n) - 1]
    lefts = [r.value for r in table.roles.values()] + edges
    rights = [f.value for f in table.fillers.values()] + edges
    return lefts, rights


@pytest.mark.parametrize("n", [64, 1024, 10_000])
@pytest.mark.parametrize(
    "k_of_n", [lambda n: 1, lambda n: n // 4, lambda n: n], ids=["k=1", "k=n/4", "k=n"]
)
def test_sign_read_from_the_lowest_generator_matches_the_references(n, k_of_n):
    k = k_of_n(n)
    lefts, rights = low_zero_run_factors(n, k)
    for av in lefts:
        for bv in rights:
            x, y = BladeIndex(n, av), BladeIndex(n, bv)
            expected = sign_by_crossing_count(x, y)
            if n <= 64:
                assert expected == product_sign_slow(x, y)
                full = product_by_transposition_sort(x, y)
            else:
                full = SignedBlade(expected, BladeIndex(n, av ^ bv))
            # once with the right factor's lowest bit uncached, once cached
            for _ in range(2):
                assert product_sign(x, y) == expected
                # the popcount skips only zero bits, and all n - k
                # off-support bits of a filler once they are a third of n
                assert bv & ((1 << y._low) - 1) == 0
                if bv >> (n - k) << (n - k) == bv != 0 and 3 * (n - k) >= n:
                    assert y._low >= n - k
                for sign in (1, -1):
                    got = geometric_product(SignedBlade(sign, x), SignedBlade(1, y))
                    assert got == SignedBlade(sign * full.sign, full.index)
                fresh = BladeIndex(n, bv)
                assert geometric_product(SignedBlade(1, x), SignedBlade(1, fresh)) == full
                assert fresh._low is not None


def test_below_parity_mask_semantics():
    # machine bit j of the mask = parity of the blade's bits strictly below j
    import random

    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 70)
        v = rng.getrandbits(n)
        mask = _prefix_parity(v, n)
        for j in range(n):
            below = v & ((1 << j) - 1)
            assert (mask >> j) & 1 == below.bit_count() & 1


# --- inverses and reversion -------------------------------------------------------


def test_reversion_sign_by_grade():
    assert [reversion_sign(k) for k in range(6)] == [1, 1, -1, -1, 1, 1]


def test_unbind_sign_is_the_bind_sign():
    # r * r = reversion_sign(|r|), so inverse(r) * (r * f) = f gives
    # sign(r, f) * sign(r, r ^ f) = reversion_sign(|r|): ga_decode scores
    # a filler hit with the bind sign product_sign(r, f)
    for n in range(1, 7):
        for rv in range(1 << n):
            for fv in range(1 << n):
                r, f = BladeIndex(n, rv), BladeIndex(n, fv)
                bind, unbind = product_sign(r, f), product_sign(r, r ^ f)
                assert (bind, unbind) == (product_sign_slow(r, f), product_sign_slow(r, r ^ f))
                assert bind * unbind == reversion_sign(r.grade())
    for n, k in [(1024, 256), (10_000, 2500)]:
        table = gen_symbols(n, n, k, [f"r{i}" for i in range(8)], [f"f{i}" for i in range(64)])
        roles, fillers = table.roles.values(), table.fillers.values()
        assert all(r._below_mask is None for r in roles)
        assert all(f._low is None for f in fillers)
        for _ in range(2):  # caches empty, then filled
            for r in roles:
                for f in fillers:
                    assert product_sign(r, f) * product_sign(r, r ^ f) == reversion_sign(r.grade())
        assert all(r._below_mask == _prefix_parity(r.value, n) for r in roles)
        assert all(f._low is not None for f in fillers)


def test_blade_inverse_cancels():
    import random

    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 80)
        x = BladeIndex(n, rng.getrandbits(n))
        prod = blade_inverse(x) * SignedBlade(1, x)
        assert prod == SignedBlade(1, BladeIndex(n, 0))


def test_unbind_recovers_filler_exhaustively_and_at_scale():
    import random

    # every (a, x) pair at small n, then spot checks at ten-thousand-bit scale
    for n in range(1, 9):
        for a_bits in range(1 << n):
            a = SignedBlade(1, BladeIndex(n, a_bits))
            inv = blade_inverse(a.index)
            for x_bits in range(1 << n):
                x = SignedBlade(1, BladeIndex(n, x_bits))
                assert inv * (a * x) == x

    rng = random.Random(8)
    n = 10_000
    for _ in range(25):
        a = SignedBlade(1, BladeIndex(n, rng.getrandbits(n)))
        x = SignedBlade(1, BladeIndex(n, rng.getrandbits(n)))
        assert blade_inverse(a.index) * (a * x) == x


def test_two_blade_squares_to_minus_one():
    e12 = b("1100")
    assert geometric_product(SignedBlade(1, e12), SignedBlade(1, e12)) == sb(-1, "0000")
    assert blade_inverse(e12).sign == -1


# --- construction and views ----------------------------------------------------


def test_grade_counts_set_bits():
    assert b("0000").grade() == 0
    assert b("1010").grade() == 2
    assert b("111").grade() == 3
    assert b("0110").positions() == (2, 3)


def test_from_positions_bounds():
    with pytest.raises(ValueError):
        BladeIndex.from_positions([0], 4)
    with pytest.raises(ValueError):
        BladeIndex.from_positions([5], 4)


def test_constructor_rejects_bad_values():
    with pytest.raises(ValueError):
        BladeIndex(0, 0)
    with pytest.raises(ValueError):
        BladeIndex(4, 16)
    with pytest.raises(ValueError):
        BladeIndex(4, -1)
    with pytest.raises(ValueError):
        BladeIndex.from_bits("10x0")
    with pytest.raises(ValueError):
        BladeIndex.from_bits("")


def test_blade_index_is_immutable():
    x = b("1010")
    with pytest.raises(AttributeError):
        x.value = 3


@pytest.mark.parametrize("n, value", [(1, 1), (4, 0b1010), (64, 2**64 - 1), (100, 3 << 97)])
def test_trusted_blade_index_is_the_checked_one(n, value):
    fast, checked = BladeIndex._trusted(n, value), BladeIndex(n, value)
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    # product_sign caches the left factor's prefix-parity mask and the
    # right factor's lowest set bit; values stay equal
    assert fast._below_mask is None and checked._below_mask is None
    assert fast._low is None and checked._low is None
    assert product_sign(fast, fast) == product_sign(checked, checked)
    assert fast._below_mask == checked._below_mask == _prefix_parity(value, n)
    assert fast._low == checked._low is not None
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)
    for name in ("n", "value", "_below_mask", "_low"):
        with pytest.raises(AttributeError):
            setattr(fast, name, 0)
    assert (fast.n, fast.value) == (n, value)


def test_trusted_signed_blade_is_the_checked_one():
    for sign in (1, -1):
        fast, checked = SignedBlade._trusted(sign, b("0110")), sb(sign, "0110")
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked)
        with pytest.raises(AttributeError):
            fast.sign = -sign
    # the product builds through the trusted path and still checks dimensions
    assert type(geometric_product(sb(-1, "1100"), sb(-1, "0110")).sign) is int
    with pytest.raises(DimensionMismatch):
        geometric_product(sb(1, "10"), sb(1, "100"))


def test_signed_blade_sign_domain():
    for sign in (0, 2, True, 1.0, -1.0):
        with pytest.raises(ValueError):
            SignedBlade(sign, b("10"))
    assert (-sb(1, "10")).sign == -1


def test_signed_blade_is_an_immutable_hashable_value():
    a = b("1010")
    x = SignedBlade(1, a)
    with pytest.raises(AttributeError):
        x.sign = -1
    assert x.sign == 1
    # equal only to a SignedBlade of the same sign and index, never to a tuple
    assert x != (1, a)
    assert x != sb(-1, "1010") and x != sb(1, "1011")
    twin = SignedBlade(1, b("1010"))
    assert x == twin and hash(x) == hash(twin)
    assert len({x, twin, -x}) == 2


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        product_sign(b("10"), b("100"))
    with pytest.raises(DimensionMismatch):
        b("10") ^ b("100")


# --- literals -----------------------------------------------------------------


def test_literal_round_trips_binary_and_hex():
    assert parse_blade("1010", 4) == b("1010")
    short = BladeIndex(64, (1 << 63) | 5)
    long = BladeIndex(65, (1 << 64) | 5)
    assert len(format_blade(short)) == 64 and set(format_blade(short)) <= {"0", "1"}
    assert format_blade(long) == long.hex and len(long.hex) == 17
    assert parse_blade(format_blade(short), 64) == short
    assert parse_blade(format_blade(long), 65) == long
    assert parse_blade("1" + "0" * 62 + "1", 64) == BladeIndex(64, (1 << 63) | 1)
    assert BINARY_LITERAL_MAX == 64


def test_parse_blade_needs_n_for_hex():
    assert parse_blade("a3", 8) == BladeIndex(8, 0xA3)


def test_parse_blade_length_mismatch():
    with pytest.raises(ValueError):
        parse_blade("101", 4)
    with pytest.raises(ValueError):
        parse_blade("zz", 8)
    # at n = 0 the empty string reads as binary and names no blade
    with pytest.raises(ValueError, match="^not a binary blade literal: ''$"):
        parse_blade("", 0)


@pytest.mark.parametrize(
    "text",
    [
        "+2ce6000000000000000",  # int(text, 16) takes a sign,
        "c_ce6000000000000000",  # an underscore between digits,
        " 2ce6000000000000000",  # surrounding whitespace
        "0x2ce600000000000000",  # and a 0x prefix
        "-2ce6000000000000000",
        "2ce600000000000000\u0663\u0663",  # and non-ASCII digits
    ],
)
def test_hex_literals_take_hex_digits_only(text):
    assert len(text) == 20  # the nibble count for n=80
    with pytest.raises(ValueError, match="0-9a-fA-F"):
        parse_blade(text, 80)
    assert parse_blade("02CE6000000000000000", 80) == BladeIndex(80, 0x2CE6 << 60)


@pytest.mark.parametrize(
    "n, fits, too_wide, value",
    [(5, "1f", "3f", 0b11111), (81, "1" + "0" * 20, "2" + "0" * 20, 1 << 80)],
)
def test_hex_literals_bound_the_top_nibble(n, fits, too_wide, value):
    # when 4 does not divide n the top nibble holds n % 4 positions
    assert parse_blade(fits, n) == BladeIndex(n, value)
    with pytest.raises(ValueError, match=f"does not fit in {n} bits"):
        parse_blade(too_wide, n)


def test_hex_and_bits_views_agree():
    x = b("10110001")
    assert x.hex == "b1"
    assert parse_blade("b1", 8) == x
    assert x.bits == "10110001"


def test_ordering_is_lexicographic_on_literals():
    values = [b("0011"), b("1100"), b("0100")]
    assert sorted(values) == [b("0011"), b("0100"), b("1100")]
