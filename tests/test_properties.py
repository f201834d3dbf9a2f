"""Property-based checks of the algebraic laws, cross-validated oracles."""

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bladebind import codec
from bladebind.blades import (
    BladeIndex,
    SignedBlade,
    blade_inverse,
    format_blade,
    geometric_product,
    parse_blade,
    product_sign,
)
from bladebind.codec import (
    CleanupMemory,
    SymbolTable,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
    hamming,
    majority_chunk,
)
from bladebind.multivector import Multivector, similarity, trace_product
from bladebind.reference import product_by_transposition_sort
from decode_corpus import nearest_by_scan
from dense_cartan import sign_by_crossing_count


@st.composite
def blades(draw, max_n=96, count=1):
    n = draw(st.integers(1, max_n))
    out = tuple(
        BladeIndex(n, draw(st.integers(0, (1 << n) - 1))) for _ in range(count)
    )
    return out[0] if count == 1 else out


@st.composite
def multivectors(draw, n=6, max_terms=4):
    terms = draw(
        st.dictionaries(
            st.integers(0, (1 << n) - 1),
            st.integers(-5, 5).filter(bool),
            max_size=max_terms,
        )
    )
    return Multivector(n, {BladeIndex(n, v): float(c) for v, c in terms.items()})


@given(blades(count=2))
def test_sign_agrees_with_both_oracles(pair):
    a, b = pair
    got = geometric_product(SignedBlade(1, a), SignedBlade(1, b))
    assert got == product_by_transposition_sort(a, b)
    assert product_sign(a, b) == sign_by_crossing_count(a, b)


@given(blades(count=3))
def test_blade_product_is_associative(triple):
    a, b, c = (SignedBlade(1, x) for x in triple)
    assert (a * b) * c == a * (b * c)


@given(blades(count=2))
def test_unbind_recovers_the_right_factor(pair):
    a, b = pair
    bound = geometric_product(SignedBlade(1, a), SignedBlade(1, b))
    assert blade_inverse(a) * bound == SignedBlade(1, b)


@given(blades())
def test_inverse_squares_away(a):
    assert blade_inverse(a) * SignedBlade(1, a) == SignedBlade(
        1, BladeIndex(a.n, 0)
    )


@given(blades(count=2))
def test_xor_grade_triangle(pair):
    a, b = pair
    assert hamming(a, b) == (a ^ b).grade()
    assert (a ^ b).grade() >= abs(a.grade() - b.grade())


@given(blades())
def test_literal_round_trip(a):
    assert parse_blade(format_blade(a), a.n) == a
    assert parse_blade(a.hex, a.n) == a  # n=1 reads it as binary, same value


@given(multivectors(), multivectors(), multivectors())
def test_product_is_bilinear(x, y, z):
    assert (x + y).gp(z) == x.gp(z) + y.gp(z)
    assert z.gp(x + y) == z.gp(x) + z.gp(y)


@given(multivectors(), multivectors())
def test_reversion_is_an_antiautomorphism(x, y):
    assert x.gp(y).reverse() == y.reverse().gp(x.reverse())


@given(multivectors())
def test_similarity_is_positive_definite(x):
    norm = similarity(x, x)
    assert norm == sum(c * c for _, c in x.items())
    if x:
        assert norm > 0
    else:
        assert norm == 0


@given(multivectors(), multivectors())
def test_similarity_is_symmetric(x, y):
    assert similarity(x, y) == similarity(y, x)


# Mixed signs, magnitudes up to 1e100: sums of up to 8 products
# stay finite, so the full product never overflows where the scalar
# part does not.
_coefficients = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
)


@st.composite
def overlapping_multivectors(draw):
    """Two multivectors drawn from one small blade pool, so terms collide."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([65, 96, 200])))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    x, y = (
        draw(st.dictionaries(st.sampled_from(pool), _coefficients, max_size=len(pool)))
        for _ in range(2)
    )
    return tuple(
        Multivector(n, {BladeIndex(n, v): c for v, c in terms.items()}) for terms in (x, y)
    )


@given(overlapping_multivectors())
@settings(max_examples=400, deadline=None)
def test_scalar_products_equal_the_scalar_part_of_the_full_product(pair):
    x, y = pair
    m = (x.n + 1) // 2
    assert similarity(x, y) == x.reverse().gp(y).scalar_part()
    assert trace_product(x, y, m) == float(1 << m) * x.gp(y).scalar_part()


@given(st.integers(1, 96), st.integers(0, 2**32 - 1), st.integers(1, 7))
@settings(max_examples=40)
def test_majority_of_identical_items_is_identity(n, seed, copies):
    item = BladeIndex(n, random.Random(seed).getrandbits(n))
    assert majority_chunk([item] * copies, seed=0) == item


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gen_symbols_is_pure_in_the_seed(seed):
    a = gen_symbols(seed, 24, 6, ["r1", "r2"], ["f1", "f2"])
    b = gen_symbols(seed, 24, 6, ["r1", "r2"], ["f1", "f2"])
    assert a == b


# --- GA clean-up against the full filler scan ------------------------------------


def scan_every_filler(record, table, role_name):
    """Reference clean-up: similarity of every filler with the projected unbind.

    Largest |score| wins; exact ties go to the smallest blade and are
    ambiguous; fillers absent from the unbind all score 0.  The last
    value counts the product's terms besides a scored winner's blade.
    """
    role = table.roles[role_name]
    raw = Multivector.from_blade(blade_inverse(role)).gp(record.payload)
    projected = raw.project_to_support(table.k)
    best_abs = -1.0
    candidates = []
    for name, blade in table.fillers.items():
        s = similarity(Multivector.from_blade(blade), projected)
        if abs(s) > best_abs:
            best_abs = abs(s)
            candidates = [(blade, name, s)]
        elif abs(s) == best_abs:
            candidates.append((blade, name, s))
    blade, name, score = min(candidates, key=lambda c: c[0].value)
    return name, blade, score, len(candidates) > 1, len(raw) - (score != 0)


def assert_decodes_like_the_scan(record, table):
    for role_name in table.roles:
        res = ga_decode(record, table, role_name)
        got = (res.filler, res.blade, res.score, res.ambiguous, res.residual_terms)
        assert got == scan_every_filler(record, table, role_name)


@st.composite
def crowded_tables(draw, min_n=2, max_n=8, max_fillers=6):
    """Small tables with few fillers each, so symbols and products collide."""
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, n))
    filler_values = draw(
        st.lists(
            st.integers(1, (1 << k) - 1), min_size=1, max_size=max_fillers, unique=True
        )
    )
    fillers = {f"f{i}": BladeIndex(n, v << (n - k)) for i, v in enumerate(filler_values)}
    taken = {b.value for b in fillers.values()}
    role_values = draw(
        st.lists(
            st.integers(1, (1 << n) - 1).filter(lambda v: v not in taken),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    roles = {f"r{i}": BladeIndex(n, v) for i, v in enumerate(role_values)}
    return SymbolTable(n=n, k=k, roles=roles, fillers=fillers)


def draw_pairs(data, table, max_pairs, min_pairs=0):
    pair = st.tuples(st.sampled_from(sorted(table.roles)), st.sampled_from(sorted(table.fillers)))
    return data.draw(st.lists(pair, min_size=min_pairs, max_size=max_pairs))


def encode_drawn_pairs(data, table, max_pairs, weight):
    pairs = draw_pairs(data, table, max_pairs)
    weights = data.draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return ga_encode(table, pairs, weights)


@given(crowded_tables(), st.data())
@settings(max_examples=300, deadline=None)
def test_ga_decode_matches_the_filler_scan_on_crowded_tables(table, data):
    # Weights of equal magnitude and both signs make exact ties and
    # destructive cancellation; roles left out of the pairs are absent.
    record = encode_drawn_pairs(data, table, 6, st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
    assert_decodes_like_the_scan(record, table)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(64, 256),
    st.integers(1, 40),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_ga_decode_matches_the_filler_scan_at_width(seed, n, filler_count, data):
    k = data.draw(st.integers(8, n))
    table = gen_symbols(
        seed, n, k, [f"r{i}" for i in range(6)], [f"f{i}" for i in range(filler_count)]
    )
    record = encode_drawn_pairs(
        data, table, 12, st.floats(-1e6, 1e6, allow_nan=False).filter(bool)
    )
    assert_decodes_like_the_scan(record, table)


@pytest.mark.parametrize("gap", [0, 1, 29, 30, 31, 64])
def test_support_filter_keeps_crosstalk_that_lands_on_a_filler(gap):
    # ga_decode skips unbind terms with a set bit among the lowest
    # min(n - k, 30) machine bits.  Two roles that agree beyond position
    # k bind f2 into r1 ^ r2 ^ f2, on the filler support; make that a
    # filler, so the crosstalk scores and must survive the filter.
    n, k = 96, 96 - gap
    rng = random.Random(gap)
    tail = rng.getrandbits(gap) | 1 if gap else 0
    r1, r2 = ((rng.getrandbits(k) << gap) | tail for _ in range(2))
    r3 = rng.getrandbits(n)
    f1, f2 = (rng.getrandbits(k) << gap for _ in range(2))
    if not (r1 ^ r2 ^ f2) >> gap & 1:
        f2 ^= 1 << gap  # put f3 on position k, next to the skipped bits
    values = {"r1": r1, "r2": r2, "r3": r3, "f1": f1, "f2": f2, "f3": r1 ^ r2 ^ f2}
    assert len(set(values.values())) == 6 and all(values.values())
    blades = {name: BladeIndex(n, v) for name, v in values.items()}
    table = SymbolTable(n=n, k=k, roles={r: blades[r] for r in ("r1", "r2", "r3")},
                        fillers={f: blades[f] for f in ("f1", "f2", "f3")})
    pairs = [("r1", "f1"), ("r2", "f2"), ("r3", "f1")]
    for weights in ([1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 3.0, 2.0]):
        record = ga_encode(table, pairs, weights)
        assert_decodes_like_the_scan(record, table)
    # the weight-3 crosstalk outscores r1's own weight-1 filler
    assert ga_decode(record, table, "r1").filler == "f3"


def test_ga_decode_matches_the_filler_scan_at_bind_stream_size():
    # the shape of the benchmark's bind-stream workload: n = 10,000,
    # k = 2,500, 64 fillers and a 32-pair record, where the support filter
    # tests the lowest 30 of the 7,500 bits beyond k
    rng = random.Random(2500)
    table = gen_symbols(11, 10_000, 2_500, [f"r{i}" for i in range(64)],
                        [f"f{i}" for i in range(64)])
    pairs = [(f"r{i}", f"f{rng.randrange(64)}") for i in rng.sample(range(64), 32)]
    weights = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in pairs]
    record = ga_encode(table, pairs, weights)
    # the 32 roles left out of the record take the no-hit path
    assert_decodes_like_the_scan(record, table)
    for (role, filler), w in zip(pairs, weights):
        res = ga_decode(record, table, role)
        assert res.filler == filler and abs(res.score) == abs(w)


def test_ga_decode_matches_the_filler_scan_at_wide_memory_size():
    # the shape of the benchmark's cli-pipeline workload: n = 1024,
    # k = 256 and 1,000 fillers; 8 of the 16 roles are absent from the record
    rng = random.Random(1024)
    table = gen_symbols(5, 1024, 256, [f"r{i}" for i in range(16)],
                        [f"f{i}" for i in range(1000)])
    pairs = [(f"r{i}", f"f{rng.randrange(1000)}") for i in rng.sample(range(16), 8)]
    weights = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in pairs]
    record = ga_encode(table, pairs, weights)
    assert_decodes_like_the_scan(record, table)
    absent = table.roles.keys() - dict(pairs)
    smallest = min(table.fillers, key=lambda name: table.fillers[name].value)
    for role in absent:
        res = ga_decode(record, table, role)
        assert (res.filler, res.score, res.ambiguous, res.residual_terms) == (
            smallest, 0.0, True, 8)


# --- the int-keyed core against the transposition sort -----------------------------

# Integer-valued coefficients are exact in floats, so sums taken in any
# order agree bit for bit and the comparisons below can be exact.
_exact_coefficients = st.integers(-4, 4).map(float)


@st.composite
def pooled_multivectors(draw, count):
    """count multivectors over one small blade pool, so product terms collide and cancel."""
    n = draw(st.one_of(st.integers(1, 8), st.sampled_from([31, 65, 96])))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True))
    return tuple(
        Multivector(n, {BladeIndex(n, v): c for v, c in draw(
            st.dictionaries(st.sampled_from(pool), _exact_coefficients, max_size=len(pool))
        ).items()})
        for _ in range(count)
    )


def transposition_sort_sum(n, terms):
    """Sum of c * (a b) over (c, a, b), each product by the transposition sort."""
    acc = {}
    for c, a, b in terms:
        sb = product_by_transposition_sort(a, b)
        acc[sb.index] = acc.get(sb.index, 0.0) + c * sb.sign
    return Multivector(n, acc)


@given(pooled_multivectors(2))
@settings(max_examples=300, deadline=None)
def test_gp_is_the_transposition_sort_sum_over_term_pairs(pair):
    x, y = pair
    want = transposition_sort_sum(
        x.n, [(ca * cb, a, b) for a, ca in x.items() for b, cb in y.items()]
    )
    assert x.gp(y).items() == want.items()


@given(crowded_tables(), st.data())
@settings(max_examples=300, deadline=None)
def test_ga_encode_is_the_transposition_sort_sum_over_pairs(table, data):
    pairs = draw_pairs(data, table, 8)
    weights = data.draw(st.lists(_exact_coefficients, min_size=len(pairs), max_size=len(pairs)))
    want = transposition_sort_sum(
        table.n, [(w, table.roles[r], table.fillers[f]) for (r, f), w in zip(pairs, weights)]
    )
    assert ga_encode(table, pairs, weights).payload.items() == want.items()


@given(pooled_multivectors(1))
def test_reverse_negates_exactly_the_grades_2_and_3_mod_4(single):
    (x,) = single
    want = [(idx, -c if idx.grade() % 4 in (2, 3) else c) for idx, c in x.items()]
    assert x.reverse().items() == want


@given(pooled_multivectors(1))
def test_items_and_to_pairs_ascend_by_blade(single):
    (x,) = single
    values = [idx.value for idx, _ in x.items()]
    assert values == sorted(set(values))
    assert x.to_pairs() == [(c, format_blade(idx)) for idx, c in x.items()]
    literals = [lit for _, lit in x.to_pairs()]
    assert literals == sorted(literals)


# --- classic clean-up against an independent distance scan -------------------------


@given(crowded_tables(min_n=4, max_n=12, max_fillers=12), st.data())
@settings(max_examples=300, deadline=None)
def test_classic_decode_matches_the_distance_scan_on_crowded_tables(table, data):
    pairs = draw_pairs(data, table, 6, min_pairs=1)
    record = classic_encode(table, pairs, data.draw(st.integers(0, 2**32 - 1)))
    memory = CleanupMemory.from_table(table, "hamming")
    for role_name, role in table.roles.items():
        res = classic_decode(record.bits, role, memory)
        assert (res.filler, res.blade, res.distance, res.ambiguous) == nearest_by_scan(
            record.bits.value ^ role.value, table
        )


@st.composite
def wide_tables(draw):
    """Tables with at least three fillers per filler bit.

    The plane rule scans such small memories, where the scan is faster,
    so the test that draws them lifts the rule's base of 128 fillers:
    then classic_decode counts them on bit planes from their first
    decode.  A crowded table, with at most 12 fillers, is never that wide.
    """
    k = draw(st.integers(4, 6))
    n = draw(st.integers(k, 16))
    count = draw(st.integers(3 * k, min(3 * k + 8, (1 << k) - 1)))
    filler_values = draw(st.permutations(range(1, 1 << k)))[:count]
    fillers = {f"f{i}": BladeIndex(n, v << (n - k)) for i, v in enumerate(filler_values)}
    taken = {b.value for b in fillers.values()}
    role_values = draw(
        st.lists(
            st.integers(1, (1 << n) - 1).filter(lambda v: v not in taken),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    roles = {f"r{i}": BladeIndex(n, v) for i, v in enumerate(role_values)}
    return SymbolTable(n=n, k=k, roles=roles, fillers=fillers)


@given(wide_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_classic_decode_on_planes_matches_the_distance_scan(table, data):
    pairs = draw_pairs(data, table, 6, min_pairs=1)
    records = [
        classic_encode(table, pairs, data.draw(st.integers(0, 2**32 - 1))).bits,
        BladeIndex(table.n, data.draw(st.integers(0, (1 << table.n) - 1))),
    ]
    memory = CleanupMemory.from_table(table, "hamming")
    with mock.patch.object(codec, "_PLANE_FILLERS_BASE", 0):
        for bits in records:
            for role in table.roles.values():
                res = classic_decode(bits, role, memory)
                assert (res.filler, res.blade, res.distance, res.ambiguous) == nearest_by_scan(
                    bits.value ^ role.value, table
                )
    assert vars(memory)["_planes"] is not None


# --- classic majority vote against two independent votes ---------------------------


def numpy_majority(items, seed):
    """The numpy vote `majority_chunk` used to run: unpack, sum columns, flip ties."""
    import numpy as np

    n = items[0].n
    nbytes = (n + 7) // 8
    rows = np.stack([
        np.unpackbits(np.frombuffer(b.value.to_bytes(nbytes, "big"), dtype=np.uint8))[
            8 * nbytes - n :
        ]
        for b in items
    ])
    twice = 2 * rows.sum(axis=0, dtype=np.int64)
    out = (twice > len(items)).astype(np.uint8)
    rng = random.Random(seed)
    for pos in np.nonzero(twice == len(items))[0]:
        out[pos] = rng.getrandbits(1)
    padded = np.concatenate([np.zeros((-n) % 8, dtype=np.uint8), out])
    return BladeIndex(n, int.from_bytes(np.packbits(padded).tobytes(), "big"))


def column_majority(items, seed):
    """Per-position vote over the '0'/'1' literals, ties by the coin from position 1."""
    rng = random.Random(seed)
    n, m = items[0].n, len(items)
    out = []
    for column in zip(*(format(b.value, f"0{n}b") for b in items)):
        twice = 2 * column.count("1")
        out.append("1" if twice > m else "0" if twice < m else str(rng.getrandbits(1)))
    return BladeIndex(n, int("".join(out), 2))


# Widths around and between byte and word boundaries, and two large ones.
VOTE_WIDTHS = [*range(1, 10), 63, 64, 65, 1024, 10_000]


@st.composite
def vote_inputs(draw):
    n = draw(st.sampled_from(VOTE_WIDTHS))
    full = (1 << n) - 1
    word = st.one_of(
        st.sampled_from([0, full]),
        st.integers(0, 2**32 - 1).map(lambda s: random.Random(s).getrandbits(n)),
    )
    values = draw(st.lists(word, min_size=1, max_size=16))
    if draw(st.booleans()):
        # Each value with its complement: every position is an exact tie.
        values += [v ^ full for v in values]
    else:
        repeats = draw(st.lists(st.sampled_from(values), max_size=4))
        values = draw(st.permutations(values + repeats))
    return [BladeIndex(n, v) for v in values]


@given(vote_inputs(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_majority_chunk_matches_the_numpy_and_column_votes(items, seed):
    got = majority_chunk(items, seed)
    assert got == numpy_majority(items, seed)
    assert got == column_majority(items, seed)
