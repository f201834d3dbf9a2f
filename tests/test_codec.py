"""Symbol tables, both codecs, clean-up behavior, JSON round trips."""

import json
import random
import tracemalloc

import pytest

from bladebind import codec
from bladebind.blades import BladeIndex, DimensionMismatch, product_sign
from bladebind.codec import (
    CleanupMemory,
    _coin_flips,
    EncodedRecord,
    SymbolTable,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
    hamming,
    majority_chunk,
)
from bladebind.multivector import Multivector
from bladebind.verify import fixture_table
from decode_corpus import majority_by_columns, nearest_by_scan


def b(text):
    return BladeIndex.from_bits(text)


def empty_memory():
    return CleanupMemory.from_table(SymbolTable(n=3, k=3, roles={}, fillers={}), "hamming")


# --- symbol generation ------------------------------------------------------


def test_gen_symbols_is_deterministic():
    t1 = gen_symbols(42, 64, 16, ["a", "c"], ["x", "y", "z"])
    t2 = gen_symbols(42, 64, 16, ["a", "c"], ["x", "y", "z"])
    assert t1 == t2
    t3 = gen_symbols(43, 64, 16, ["a", "c"], ["x", "y", "z"])
    assert t1 != t3


def test_gen_symbols_respects_invariants():
    for seed in range(20):
        t = gen_symbols(seed, 32, 8, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
        low = (1 << (32 - 8)) - 1
        values = [blade.value for blade in (*t.roles.values(), *t.fillers.values())]
        assert len(set(values)) == len(values)
        for blade in t.roles.values():
            assert blade.value != 0
        for blade in t.fillers.values():
            assert blade.value != 0 and blade.value & low == 0


def test_gen_symbols_unconstrained_when_k_equals_n():
    t = gen_symbols(7, 16, 16, ["r"], ["f1", "f2"])
    assert t.k == t.n == 16


def test_gen_symbols_rejects_bad_requests(monkeypatch):
    with pytest.raises(ValueError):
        gen_symbols(0, 8, 0, ["r"], ["f"])
    with pytest.raises(ValueError):
        gen_symbols(0, 8, 9, ["r"], ["f"])
    with pytest.raises(ValueError):
        gen_symbols(0, 8, 8, ["same"], ["same"])
    with pytest.raises(ValueError):
        gen_symbols(0, 8, 1, ["r"], ["f1", "f2"])  # one nonzero 1-bit prefix only
    with pytest.raises(ValueError):
        gen_symbols(0, 2, 2, ["r1", "r2"], ["f1", "f2"])  # 3 strings available
    monkeypatch.setattr(codec, "MAX_DRAW_TRIES", 0)
    with pytest.raises(ValueError, match="could not draw 2 distinct symbols at n=8, k=8"):
        gen_symbols(0, 8, 8, ["r"], ["f"])


def test_gen_symbols_draws_every_table_that_fits():
    # every shape with n <= 5, up to one filler and one symbol past the
    # capacity checks; roles keep off the filler subspace while room is
    # left outside it, so only those checks fail
    for n in range(1, 6):
        for k in range(1, n + 1):
            for filler_count in range((1 << k) + 1):
                for role_count in range((1 << n) - filler_count + 1):
                    roles = [f"r{i}" for i in range(role_count)]
                    fillers = [f"f{i}" for i in range(filler_count)]
                    if filler_count >= 1 << k:
                        message = f"k={k} cannot host {filler_count} distinct fillers"
                    elif role_count + filler_count >= 1 << n:
                        message = f"n={n} cannot host {role_count + filler_count} distinct symbols"
                    else:
                        message = None
                    for seed in range(10):
                        if message is None:
                            table = gen_symbols(seed, n, k, roles, fillers)
                            assert (list(table.roles), list(table.fillers)) == (roles, fillers)
                        else:
                            with pytest.raises(ValueError) as exc:
                                gen_symbols(seed, n, k, roles, fillers)
                            assert str(exc.value) == message


def no_draws(*args):
    raise AssertionError("a random.Random was seeded")


def test_gen_symbols_rejects_a_negative_seed_before_drawing(monkeypatch):
    # random.Random(-7) seeds with 7, so -7 would silently repeat seed 7's table
    monkeypatch.setattr(codec.random, "Random", no_draws)
    with pytest.raises(ValueError, match="seed must be >= 0, got -7"):
        gen_symbols(-7, 64, 16, ["r"], ["f"])


@pytest.mark.parametrize("items", [
    pytest.param(["1100", "0011"], id="every-position-ties"),
    pytest.param(["1100", "1010", "1001"], id="no-ties"),
    pytest.param(["10", "100"], id="mixed-dimensions"),
])
def test_majority_chunk_rejects_a_negative_seed_before_drawing(monkeypatch, items):
    monkeypatch.setattr(codec.random, "Random", no_draws)
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        majority_chunk([b(bits) for bits in items], seed=-5)


def test_classic_encode_rejects_a_negative_seed(monkeypatch):
    table = fixture_table()
    monkeypatch.setattr(codec.random, "Random", no_draws)
    # two pairs make an even vote whose ties would draw coins, and an
    # empty pair list still reports the seed first
    for pairs in ([("name", "Pat"), ("sex", "male")], []):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            classic_encode(table, pairs, -5)


def test_symbol_table_validation():
    with pytest.raises(ValueError):
        SymbolTable(n=4, k=5, roles={}, fillers={})
    with pytest.raises(ValueError):
        SymbolTable(n=4, k=2, roles={"x": b("1010")}, fillers={"x": b("1100")})
    with pytest.raises(ValueError):  # filler outside its support
        SymbolTable(n=4, k=2, roles={}, fillers={"f": b("1010")})
    with pytest.raises(ValueError):  # all-zero symbol
        SymbolTable(n=4, k=2, roles={"r": b("0000")}, fillers={})
    with pytest.raises(ValueError):  # all-zero filler
        SymbolTable(n=4, k=2, roles={}, fillers={"f": b("0000")})
    with pytest.raises(ValueError):  # duplicate bit string
        SymbolTable(n=4, k=2, roles={"r": b("1100")}, fillers={"f": b("1100")})
    with pytest.raises(ValueError):  # one filler listed under two names
        SymbolTable(n=4, k=2, roles={}, fillers={"f": b("1100"), "g": b("1100")})
    with pytest.raises(ValueError):  # wrong dimension
        SymbolTable(n=4, k=2, roles={"r": b("10100")}, fillers={})


@pytest.mark.parametrize("kind, name, message", [
    ("role", "a=b", "role name 'a=b' contains '='"),
    ("role", "a,b", "role name 'a,b' contains ','"),
    ("filler", "x,y", "filler name 'x,y' contains ','"),
    ("role", " a", "role name ' a' has outer whitespace"),
    ("filler", "x\t", "filler name 'x\\t' has outer whitespace"),
])
def test_symbol_table_rejects_a_name_a_pair_list_cannot_spell(kind, name, message):
    # "role=filler,..." is split at commas, then at each first "=", parts stripped
    roles = {name: b("1010")} if kind == "role" else {}
    fillers = {name: b("1100")} if kind == "filler" else {}
    with pytest.raises(ValueError) as exc:
        SymbolTable(n=4, k=2, roles=roles, fillers=fillers)
    assert str(exc.value) == message


def test_inner_spaces_and_a_filler_equals_sign_are_legal_names():
    SymbolTable(n=4, k=2, roles={"a b": b("1010")}, fillers={"b=x": b("1100")})


def test_filler_support_check_at_every_boundary():
    # n=8, k=3: a filler may only use positions 1..3, machine bits 7..5
    for value in range(1, 256):
        fillers = {"f": BladeIndex(8, value)}
        if value & 0b11111:
            with pytest.raises(ValueError, match="beyond position 3"):
                SymbolTable(n=8, k=3, roles={}, fillers=fillers)
        else:
            SymbolTable(n=8, k=3, roles={}, fillers=fillers)


def test_table_memory_is_bounded_by_the_input():
    # a four-field file must not make the loader build an n-bit mask
    tracemalloc.start()
    try:
        table = SymbolTable.from_json({"n": 10**9, "k": 1, "roles": {}, "fillers": {}})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.n == 10**9
    assert peak < 1 << 20  # one n-bit int alone would be 125 MB


def test_symbol_table_json_round_trip(tmp_path):
    t = fixture_table()
    path = tmp_path / "table.json"
    t.save(path)
    assert SymbolTable.load(path) == t
    obj = json.loads(path.read_text())
    assert obj["roles"]["name"] == "1010"


def test_symbol_table_hex_literals_above_64_bits(tmp_path):
    t = gen_symbols(3, 100, 25, ["r"], ["f"])
    path = tmp_path / "table.json"
    t.save(path)
    obj = json.loads(path.read_text())
    assert len(obj["roles"]["r"]) == 25  # ceil(100/4) hex digits
    assert SymbolTable.load(path) == t


def test_symbol_table_malformed_json():
    with pytest.raises(ValueError):
        SymbolTable.from_json({"n": 4, "k": 2})
    with pytest.raises(ValueError):
        SymbolTable.from_json({"n": 4, "k": 2, "roles": "oops", "fillers": {}})


# --- records ------------------------------------------------------------------


def test_record_type_discipline():
    mv = Multivector.from_pairs([(1.0, "0110")], 4)
    with pytest.raises(ValueError):
        EncodedRecord("ga", bits=b("0110"))
    with pytest.raises(ValueError):
        EncodedRecord("classic", payload=mv)
    with pytest.raises(ValueError):
        EncodedRecord("nope", payload=mv)
    with pytest.raises(ValueError, match="unknown codec 'wat'"):
        EncodedRecord("wat")
    with pytest.raises(ValueError):
        EncodedRecord("ga", payload=mv, bits=b("0110"))


def test_record_json_round_trips(tmp_path):
    ga = ga_encode(fixture_table(), [("name", "Pat"), ("sex", "male")], [2.0, 3.0])
    path = tmp_path / "r.json"
    ga.save(path)
    back = EncodedRecord.load(path)
    assert back.codec == "ga" and back.payload == ga.payload

    classic = classic_encode(fixture_table(), [("name", "Pat")])
    classic.save(path)
    back = EncodedRecord.load(path)
    assert back.codec == "classic" and back.bits == classic.bits


def test_record_malformed_json():
    with pytest.raises(ValueError):
        EncodedRecord.from_json({"codec": "ga", "n": 4})
    with pytest.raises(ValueError, match="unknown codec 'wat'"):
        EncodedRecord.from_json({"codec": "wat", "n": 4, "terms": []})
    with pytest.raises(ValueError):
        EncodedRecord.from_json({"n": 4, "terms": []})


# --- clean-up memory ---------------------------------------------------------------


def test_cleanup_memory_validation():
    with pytest.raises(ValueError, match="unknown clean-up metric"):
        CleanupMemory.from_table(fixture_table(), "similarity")
    with pytest.raises(TypeError):  # only a table builds a memory
        CleanupMemory(fixture_table().fillers.items())
    mem = CleanupMemory.from_table(fixture_table(), "hamming")
    assert len(mem.entries) == 3


def test_table_keeps_one_memory_with_its_filler_column():
    t = fixture_table()
    mem = CleanupMemory.from_table(t, "hamming")
    assert CleanupMemory.from_table(t, "hamming") is mem
    # the column is in blade order, so its first nearest entry is the tie rule's answer
    assert mem.values == (0b0100, 0b1000, 0b1100)  # 66, male, Pat
    assert mem.entries == tuple((name, t.fillers[name]) for name in ("66", "male", "Pat"))
    # the table itself, and what it writes, keep table order
    assert list(t.fillers) == ["Pat", "male", "66"]
    assert list(t.to_json()["fillers"]) == ["Pat", "male", "66"]


# --- classic codec ---------------------------------------------------------------


def test_classic_bind_is_involutive():
    x, y = b("1100"), b("1010")
    assert x ^ y == b("0110")
    assert x ^ (x ^ y) == y
    assert x ^ BladeIndex(4, 0) == x


def test_majority_chunk_worked_example():
    assert majority_chunk([b("1100"), b("1010"), b("1001")], seed=0) == b("1000")


def test_majority_chunk_singleton_and_empty():
    assert majority_chunk([b("0110")], seed=5) == b("0110")
    with pytest.raises(ValueError):
        majority_chunk([], seed=0)
    with pytest.raises(ValueError):
        majority_chunk([b("10"), b("100")], seed=0)


def test_majority_chunk_tie_handling():
    items = [b("1100"), b("0011")]  # every position ties
    one = majority_chunk(items, seed=0)
    assert one == majority_chunk(items, seed=0)
    outputs = {majority_chunk(items, seed=s).bits for s in range(8)}
    assert len(outputs) > 1  # the seed genuinely moves the coin


def tie_masks(n, rng):
    """All-tie, single-tie and random masks, with tie counts around 8 and 32."""
    yield (1 << n) - 1
    yield 1 << (n - 1)
    yield 1
    yield 1 << rng.randrange(n)
    for count in (7, 8, 9, 31, 32, 33):
        if count <= n:
            yield sum(1 << p for p in rng.sample(range(n), count))
    yield rng.getrandbits(n) or 1


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1024, 10_000])
def test_coin_flips_match_one_draw_per_tie(n):
    # the vote of 0 and ties is a coin at each tie and 0 elsewhere
    rng = random.Random(n)
    for ties in tie_masks(n, rng):
        items = [BladeIndex(n, 0), BladeIndex(n, ties)]
        for seed in (0, 1, rng.getrandbits(64)):
            assert _coin_flips(ties, seed) == majority_by_columns(items, seed).value


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1024, 10_000])
def test_majority_chunk_matches_a_per_position_vote(n):
    rng = random.Random(n)
    for ties in tie_masks(n, rng):
        # two items that differ exactly on the tie mask, plus agreeing pairs
        x = rng.getrandbits(n)
        base = [BladeIndex(n, x), BladeIndex(n, x ^ ties)]
        for extra in (0, 2, 4):
            items = base + [BladeIndex(n, rng.getrandbits(n)) for _ in range(extra)]
            for seed in (0, 7):
                vote = majority_chunk(items, seed)
                expected = majority_by_columns(items, seed)
                assert vote == expected and hash(vote) == hash(expected)
                assert repr(vote) == repr(expected)


@pytest.mark.parametrize("n", [1, 64, 1024])
def test_majority_chunk_matches_a_per_position_vote_for_every_adder_shape(n):
    # item counts giving every shape of the carry-save tree: one value,
    # a lone half adder, a lone full adder, leftovers of one and two
    # values per weight, and counts just around powers of two
    rng = random.Random(n + 1)
    for m in (1, 2, 3, 4, 5, 31, 32, 33, 64):
        items = [BladeIndex(n, rng.getrandbits(n)) for _ in range(m)]
        for seed in (0, m):
            assert majority_chunk(items, seed) == majority_by_columns(items, seed)


def test_hamming_basics():
    assert hamming(b("1100"), b("1100")) == 0
    assert hamming(b("1100"), b("0110")) == 2
    assert hamming(BladeIndex(6, 0), BladeIndex(6, 0b111111)) == 6
    with pytest.raises(ValueError):
        hamming(b("10"), b("100"))


def test_classic_single_pair_round_trip():
    t = fixture_table()
    record = classic_encode(t, [("name", "Pat")])
    mem = CleanupMemory.from_table(t, "hamming")
    res = classic_decode(record.bits, t.roles["name"], mem)
    assert res.filler == "Pat" and res.distance == 0 and not res.ambiguous


@pytest.mark.parametrize(
    "n, k, m",
    [(10_000, 2500, 32), (10_000, 2500, 31), (1024, 256, 8), (64, 16, 1), (64, 16, 2)],
)
def test_classic_encode_matches_the_checked_bind_route(n, k, m):
    # classic_encode votes on raw ints, without the checks of ^; the
    # public route is the checked XOR of each pair, then majority_chunk.
    # m = 1 takes no vote, and at m = 2 every differing position ties.
    roles = [f"r{i}" for i in range(m)]
    fillers = [f"f{i}" for i in range(16)]
    table = gen_symbols(n + m, n, k, roles, fillers)
    rng = random.Random(m)
    pairs = [(role, rng.choice(fillers)) for role in roles]
    bound = [table.roles[r] ^ table.fillers[f] for r, f in pairs]
    records = [classic_encode(table, pairs, seed).bits for seed in (0, 7)]
    assert records == [majority_chunk(bound, seed) for seed in (0, 7)]
    # an even vote has ties, so its coins tell the seeds apart
    assert (records[0] != records[1]) == (m % 2 == 0)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("nobody", "Pat")], "unknown role 'nobody'"),
        ([("name", "nobody")], "unknown filler 'nobody'"),
        ([("name", "sex")], "unknown filler 'sex'"),
        ([], "majority vote over an empty list"),
    ],
    ids=["unknown-role", "unknown-filler", "role-as-filler", "no-pairs"],
)
def test_classic_encode_rejects_unknown_names_and_no_pairs(pairs, message):
    with pytest.raises(ValueError) as exc:
        classic_encode(fixture_table(), pairs)
    assert str(exc.value) == message


def test_classic_decode_without_true_filler():
    # nearest wrong entry comes back, with its distance
    t = fixture_table()
    record = classic_encode(t, [("name", "Pat")])
    unbound = record.bits ^ t.roles["name"]  # equals Pat's bits
    other = SymbolTable(n=4, k=3, roles={}, fillers={"near": b("1000"), "far": b("0010")})
    mem = CleanupMemory.from_table(other, "hamming")
    res = classic_decode(record.bits, t.roles["name"], mem)
    assert res.filler == "near" and not res.ambiguous
    assert res.distance == hamming(unbound, b("1000")) == 1


def test_classic_decode_tie_is_flagged_lexicographic():
    table = SymbolTable(n=4, k=3, roles={}, fillers={"hi": b("1100"), "lo": b("1010")})
    mem = CleanupMemory.from_table(table, "hamming")
    # unbound result 1000 is one flip from both entries
    res = classic_decode(b("1000"), BladeIndex(4, 0), mem)
    assert res.ambiguous
    assert res.filler == "lo"  # 1010 precedes 1100


@pytest.mark.parametrize("n", [1024, 10_000])
def test_classic_decode_matches_a_full_distance_scan(n):
    rng = random.Random(n)
    role = BladeIndex(n, rng.getrandbits(n))
    unbound = rng.getrandbits(n)
    record = BladeIndex(n, unbound) ^ role

    def near(flips):
        return BladeIndex(n, unbound ^ sum(1 << p for p in rng.sample(range(n), flips)))

    far = [BladeIndex(n, rng.getrandbits(n)) for _ in range(40)]
    twins = sorted([near(5), near(5)], key=lambda blade: blade.value)
    # the 5-flip twins tie for nearest, unless a 3-flip entry beats both
    for third, winner, ambiguous in ((near(9), twins[0], True), (near(3), None, False)):
        # the larger twin first, among entries in no blade order
        blades = [twins[1], *far[:20], third, twins[0], *far[20:]]
        table = SymbolTable(n, n, {}, {f"f{i}": blade for i, blade in enumerate(blades)})
        res = classic_decode(record, role, CleanupMemory.from_table(table, "hamming"))
        assert tuple(res) == nearest_by_scan(unbound, table)
        assert res.blade == (winner or third) and res.ambiguous == ambiguous


def test_classic_decode_checks_the_record_against_the_memory():
    # the one dimension check left in each decode, after the empty
    # memory and the record against the role
    mem = CleanupMemory.from_table(
        SymbolTable(n=3, k=3, roles={}, fillers={"f": b("110"), "g": b("011")}), "hamming"
    )
    with pytest.raises(DimensionMismatch, match=r"n=4 vs n=3"):
        classic_decode(b("1000"), BladeIndex(4, 0), mem)
    with pytest.raises(DimensionMismatch, match=r"n=4 vs n=5"):
        classic_decode(b("1000"), BladeIndex(5, 0), mem)
    with pytest.raises(ValueError, match="empty"):
        classic_decode(b("1000"), BladeIndex(5, 0), empty_memory())


def test_classic_three_pair_retrieval_smoke():
    hits = 0
    for seed in range(30):
        t = gen_symbols(seed, 256, 256, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
        record = classic_encode(t, [("r1", "f1"), ("r2", "f2"), ("r3", "f3")], seed)
        mem = CleanupMemory.from_table(t, "hamming")
        for role, filler in [("r1", "f1"), ("r2", "f2"), ("r3", "f3")]:
            res = classic_decode(record.bits, t.roles[role], mem)
            hits += res.filler == filler
    assert hits == 90


# --- classic clean-up on bit planes -------------------------------------------------


def assert_decodes_match_the_scan(records, roles, table):
    memory = CleanupMemory.from_table(table, "hamming")
    for bits in records:
        for role in roles:
            res = classic_decode(bits, role, memory)
            assert tuple(res) == nearest_by_scan((bits ^ role).value, table)


@pytest.mark.parametrize("n, k, fillers", [(1024, 256, 2000), (40, 10, 300)])
def test_classic_decode_on_a_wide_table_matches_the_scan(n, k, fillers, monkeypatch):
    table = gen_symbols(n, n, k, [f"r{i}" for i in range(4)], [f"f{i}" for i in range(fillers)])
    memory = CleanupMemory.from_table(table, "hamming")
    rng = random.Random(k)
    names = list(table.fillers)
    records = [
        classic_encode(table, [(role, rng.choice(names)) for role in table.roles], seed).bits
        for seed in range(3)
    ] + [BladeIndex(n, rng.getrandbits(n)) for _ in range(3)]
    # unbound by r0, windows of 0, 1, k/2 - 1, k/2, k/2 + 1, k - 1 and k
    # ones: the sum over the ones up to the boundary, then over the zeros
    r0 = table.roles["r0"]
    weights = (0, 1, k // 2 - 1, k // 2, k // 2 + 1, k - 1, k)
    windows = [sum(1 << n - k + i for i in rng.sample(range(k), c)) for c in weights]
    records += [BladeIndex(n, w | rng.getrandbits(n - k)) ^ r0 for w in windows]
    assert "_planes" not in vars(memory)
    # the first decode builds the planes, and every decode counts on them
    assert_decodes_match_the_scan(records, table.roles.values(), table)
    shift, planes, sizes = vars(memory)["_planes"]
    assert (shift, len(planes)) == (n - k, k)
    # the kept counters hold every entry's popcount, entry j in lane j
    for j, v in enumerate(memory.values):
        assert sum((c >> j & 1) << i for i, c in enumerate(sizes)) == v.bit_count()
    # each decode sums the smaller plane set, the ones up to k/2, else
    # the zeros, and sums the kept planes themselves, none complemented
    summed = []
    kept = {id(p) for p in planes}
    tree = codec._bit_sliced_sum

    def sum_kept_planes(column):
        assert all(id(p) in kept for p in column)
        summed.append(len(column))
        return tree(column)

    monkeypatch.setattr(codec, "_bit_sliced_sum", sum_kept_planes)
    for bits in records[-len(weights) :]:
        classic_decode(bits, r0, memory)
    assert summed == [0, 1, k // 2 - 1, k // 2, k // 2 - 1, 1, 0]


def test_classic_decode_on_planes_from_bit_zero_keeps_the_tie_rules(monkeypatch):
    # ints that use bit 0 and bit n - 1 (shift 0, width n) and, over
    # every possible record, every kind of tie; the plane rule scans a
    # memory this small, so its base of 128 fillers is lifted here
    monkeypatch.setattr(codec, "_PLANE_FILLERS_BASE", 0)
    n = 10
    rng = random.Random(3)
    # the larger of the two blades one flip from 0b111 is listed first
    values = [0b1000000001, 0b0000000101, 0b0000000011]
    values += [
        v for v in rng.sample(range(8, 1 << n), 40) if min((v ^ w).bit_count() for w in values) > 1
    ][:30]
    table = SymbolTable(n, n, {}, {f"f{i}": BladeIndex(n, v) for i, v in enumerate(values)})
    memory = CleanupMemory.from_table(table, "hamming")
    assert len(memory.values) >= 3 * n
    records = [BladeIndex(n, v) for v in range(1 << n)]
    assert_decodes_match_the_scan(records, [BladeIndex(n, 0)], table)
    assert vars(memory)["_planes"][0] == 0
    res = classic_decode(BladeIndex(n, 0b1000000001), BladeIndex(n, 0), memory)
    assert (res.filler, res.distance, res.ambiguous) == ("f0", 0, False)
    res = classic_decode(BladeIndex(n, 0b0000000111), BladeIndex(n, 0), memory)
    assert (res.filler, res.distance, res.ambiguous) == ("f2", 1, True)


def test_classic_decode_on_planes_counts_record_bits_outside_them(monkeypatch):
    # fillers in machine bits 4..9 of 16; the records set bits above
    # the memory's top bit and below its lowest one; as above, the
    # plane rule's base is lifted so that this small memory counts on planes
    monkeypatch.setattr(codec, "_PLANE_FILLERS_BASE", 0)
    n = 16
    table = SymbolTable(n, 12, {}, {f"f{v}": BladeIndex(n, v << 4) for v in range(1, 64, 2)})
    memory = CleanupMemory.from_table(table, "hamming")
    role = BladeIndex(n, 0)
    records = [BladeIndex(n, v) for v in (0b1111_000000_1111, 0b1000_010101_0001, 0x03F0, 0xFFFF)]
    assert_decodes_match_the_scan(records, [role, BladeIndex(n, 0b1100_000000_0011)], table)
    assert vars(memory)["_planes"][0] == 4
    res = classic_decode(BladeIndex(n, 0b1111_000001_1111), role, memory)
    assert (res.filler, res.distance) == ("f1", 8)


def test_only_a_wide_memory_keeps_planes(monkeypatch):
    # bind-stream's shape keeps the scan; wide-memory's and cli-pipeline's
    # build their planes once, on the first decode, and count on them
    # from it.  The rule's edge, F = 128 + 2 * width, at widths 256 and 64.
    shapes = (
        (10_000, 2500, 64, False),
        (1024, 256, 2000, True),
        (1024, 256, 1000, True),
        (1024, 256, 639, False),
        (1024, 256, 640, True),
        (256, 64, 255, False),
        (256, 64, 256, True),
    )
    build = CleanupMemory._planes.func
    builds = []

    def counted_build(memory):
        builds.append(memory)
        return build(memory)

    monkeypatch.setattr(CleanupMemory._planes, "func", counted_build)
    for n, k, fillers, wide in shapes:
        table = gen_symbols(1, n, k, ["r"], [f"f{i}" for i in range(fillers)])
        memory = CleanupMemory.from_table(table, "hamming")
        assert "_planes" not in vars(memory)
        record = classic_encode(table, [("r", "f7")]).bits
        role = table.roles["r"]
        builds.clear()
        res = classic_decode(record, role, memory)
        assert builds == [memory]
        assert tuple(res) == nearest_by_scan((record ^ role).value, table)
        assert res.filler == "f7"
        for _ in range(9):
            assert classic_decode(record, role, memory).filler == "f7"
        assert builds == [memory]
        assert (vars(memory)["_planes"] is not None) == wide


# --- GA codec ----------------------------------------------------------------


def test_ga_encode_empty_and_single():
    t = fixture_table()
    assert len(ga_encode(t, []).payload) == 0
    rec = ga_encode(t, [("name", "Pat")])
    r, f = t.roles["name"], t.fillers["Pat"]
    expected = Multivector.from_pairs(
        [(product_sign(r, f), (r ^ f).bits)], 4
    )
    assert rec.payload == expected


def test_ga_encode_weight_validation():
    t = fixture_table()
    with pytest.raises(ValueError):
        ga_encode(t, [("name", "Pat")], [1.0, 2.0])
    with pytest.raises(ValueError):
        ga_encode(t, [("name", "nope")])
    with pytest.raises(ValueError):
        ga_encode(t, [("nope", "Pat")])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not finite"):
            ga_encode(t, [("name", "Pat"), ("sex", "male")], [1.0, bad])


@pytest.mark.parametrize("weights", ["235", b"235"], ids=["str", "bytes"])
def test_ga_encode_refuses_weights_spelled_as_a_string(weights):
    # iterated, "235" would weigh 2, 3, 5 and b"235" 50, 51, 53; the
    # unknown names show that no pair is resolved before the refusal
    pairs = [("nobody", "Pat"), ("sex", "nobody"), ("age", "66")]
    with pytest.raises(TypeError, match=f"not a {type(weights).__name__}"):
        ga_encode(fixture_table(), pairs, weights)


def test_ga_encode_drops_zero_sums_and_rejects_overflowing_ones():
    # the record is built without range checks, but these two rules hold
    t = fixture_table()
    assert len(ga_encode(t, [("name", "Pat")] * 2, [2.0, -2.0]).payload) == 0
    with pytest.raises(ValueError, match="not finite"):
        ga_encode(t, [("name", "Pat")] * 2, [1e308, 1e308])


def test_repeated_terms_add_up_even_when_they_share_one_float():
    # default weights are one shared 1.0, and x + x meets each of x's own
    # coefficient objects again: the sum must tell a repeat by the key
    t = fixture_table()
    rec = ga_encode(t, [("name", "Pat")] * 2)
    ((blade, c),) = rec.payload.items()
    assert blade == t.roles["name"] ^ t.fillers["Pat"]
    assert c == 2.0 * product_sign(t.roles["name"], t.fillers["Pat"])
    assert (rec.payload + rec.payload).items() == [(blade, 2 * c)]


def test_ga_single_pair_decodes_exactly():
    t = gen_symbols(5, 64, 16, ["r1", "r2"], ["f1", "f2", "f3"])
    for w in (1.0, -2.5, 7.0):
        rec = ga_encode(t, [("r1", "f2")], [w])
        res = ga_decode(rec, t, "r1")
        assert res.filler == "f2"
        assert res.score == w
        assert res.residual_terms == 0
        assert not res.ambiguous


def test_ga_three_pair_record_recovers_all_roles():
    t = gen_symbols(11, 64, 16, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
    rec = ga_encode(t, [("r1", "f1"), ("r2", "f2"), ("r3", "f3")])
    for role, filler in [("r1", "f1"), ("r2", "f2"), ("r3", "f3")]:
        res = ga_decode(rec, t, role)
        assert res.filler == filler
        assert abs(res.score) == 1.0
        assert res.residual_terms == 2


def test_ga_decode_reports_destructive_cancellation():
    # equal weights on the two colliding pairs wipe both terms out
    t = fixture_table()
    rec = ga_encode(t, [("name", "Pat"), ("sex", "male"), ("age", "66")], [2.0, 3.0, 3.0])
    assert len(rec.payload) == 1  # only the name term survives
    res = ga_decode(rec, t, "sex")
    assert res.score == 0.0  # nothing left to retrieve, reported as-is
    assert res.ambiguous  # every filler scores zero


def test_ga_decode_tie_lexicographic():
    t = SymbolTable(
        n=4, k=2,
        roles={"r": b("0010")},
        fillers={"hi": b("1000"), "lo": b("0100")},
    )
    payload = Multivector.from_blade(b("0010")).gp(
        Multivector.from_pairs([(1.0, "1000"), (1.0, "0100")], 4)
    )
    rec = EncodedRecord("ga", payload=payload)
    res = ga_decode(rec, t, "r")
    assert res.ambiguous
    assert res.filler == "lo"


def test_ga_decode_rejects_mismatches():
    t = fixture_table()
    rec = ga_encode(t, [("name", "Pat")])
    with pytest.raises(ValueError, match="^unknown role 'nope'$"):
        ga_decode(rec, t, "nope")
    with pytest.raises(ValueError, match="^ga_decode on a 'classic' record$"):
        ga_decode(classic_encode(t, [("name", "Pat")]), t, "name")
    other = gen_symbols(0, 8, 2, ["r"], ["f"])
    with pytest.raises(DimensionMismatch, match=r"^operands .* algebras \(n=8 vs n=4\)$"):
        ga_decode(rec, other, "r")
    empty = SymbolTable(n=4, k=2, roles={"r": b("0010")}, fillers={})
    with pytest.raises(ValueError, match="clean-up memory is empty"):
        ga_decode(EncodedRecord("ga", payload=rec.payload), empty, "r")
