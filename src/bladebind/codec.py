"""Role/filler record codecs.

Two interchangeable codings of the same record abstraction:

* GA codec: binding is the signed blade product, chunking is sparse
  coefficient addition, both on raw blade ints (a pair lands on
  role.value ^ filler.value with sign product_sign(role, filler)).
  Unbinding a role r relabels each record key v as v ^ r with a +-1
  sign, and clean-up reads each filler's reversion similarity (the
  scalar part of reverse(x) * y) off that relabelling as its
  coefficient.  For a key landing on filler f that sign is again
  product_sign(r, f), the bind's own, so both directions share one
  sign rule.  The decode walks the record's keys, drops those that
  differ from r among the lowest min(n - k, 30) machine bits (where no
  filler has a set bit), looks the rest up in the table's value -> name
  index and signs only the filler hits: O(P) per decode for a P-pair
  record, whatever the filler count.
* Classic codec: binding is XOR, chunking is a per-position majority
  vote with seeded tie flips, clean-up is nearest Hamming distance.
  The table keeps its fillers' raw ints as one column in blade order,
  so the clean-up scan is one XOR, one popcount and one compare per
  filler, with no blade unpacked until the winner is known, and the
  first nearest filler is the tie rule's answer.  A wide memory, one
  with F >= 128 + 2 * width fillers for a support of width bits, is
  counted bit-sliced instead from its first decode: plane i holds bit
  i of the support of every filler as one F-bit int, and one adder
  tree over the plain planes where the record's window has its
  minority digit, added with every filler's kept popcount (one addend
  complemented), gives every distance at once.
  The vote is bit-sliced over the int bit strings: per-position counts
  are kept as a few big-int counters (counters[j] holds bit j of every
  count), summed by a carry-save tree of XOR/AND/OR full adders and
  compared against floor(m/2) with bitwise ops, so it needs no numpy
  and no per-position loop; the coins for exact ties come from one
  batched draw and are set into the tie positions by one bytes % pass.
  The vote and the wide clean-up share that tree (`_bit_sliced_sum`).
  One private vote over raw ints serves both callers: `majority_chunk`
  unwraps its blades into it, and `classic_encode` feeds it each
  pair's role.value ^ filler.value with no blade in between.

Symbol tables draw roles over all nonzero n-bit strings and fillers
over nonzero k-bit prefixes (remaining positions zero), so unbinding
noise lands outside the filler subspace with high probability.

All randomized operations take an explicit seed >= 0 and are pure
functions of it.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from functools import cached_property
from itertools import compress, zip_longest

from .blades import BladeIndex, _check_dims, _shorten, format_blade, parse_blade, product_sign
from .multivector import Multivector, _add_terms
from .multivector import similarity  # unused here; perfbench/spans.py patches this name

__all__ = [
    "SymbolTable",
    "EncodedRecord",
    "CleanupMemory",
    "GaDecodeResult",
    "ClassicDecodeResult",
    "gen_symbols",
    "ga_encode",
    "ga_decode",
    "majority_chunk",
    "classic_encode",
    "classic_decode",
    "hamming",
]

# Bounded retry budget per symbol draw; exhausting it means the space of
# admissible strings is too crowded for the requested table.
MAX_DRAW_TRIES = 1000

GA = "ga"
CLASSIC = "classic"


class _JsonFile:
    """save/load as indented JSON, built on the subclass's to_json/from_json.

    load rejects a key repeated within one object (a last-one-wins read
    would decode a symbol the file does not uniquely name) and nesting
    deeper than the interpreter's recursion limit.
    """

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            try:
                return cls.from_json(json.load(fh, object_pairs_hook=_unique_keys))
            except RecursionError:
                raise ValueError("JSON nested too deeply") from None


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated JSON key {_shorten(repr(key))}")
        obj[key] = value
    return obj


# --- symbol tables ------------------------------------------------------------


class SymbolTable(_JsonFile):
    """Named role and filler blades sharing one dimension.

    k is the filler support width: every filler is zero beyond position
    k.  Roles use all n positions.  Names are unique across the whole
    table and no two symbols share a bit string.  This is the one check
    of names, for `gen_symbols` and every file load: a name is nonempty,
    unpadded and holds no ",", and a role name no "=", so that a
    "role=filler,..." list spells every pair.  Treat the mappings as
    read-only: they are validated once, here.  Validation also keeps a
    value -> name index of every symbol for the GA clean-up, the
    classic clean-up memory (the (name, blade) pairs of `fillers` and
    their raw ints as one column, sorted once by blade value: that
    order is both codecs' tie rule), and the support filter the GA
    decode would otherwise recompute per call: the lowest
    min(n - k, 30) machine bits, where no filler has a set bit.  A
    later change to either mapping would go unchecked and leave them
    stale.
    """

    def __init__(self, n: int, k: int, roles: dict, fillers: dict):
        if not 1 <= k <= n:
            raise ValueError(f"filler bits k={_shorten(str(k))} outside 1..{_shorten(str(n))}")
        overlap = roles.keys() & fillers.keys()
        if overlap:
            raise ValueError(
                f"names used as both role and filler: {_shorten(repr(sorted(overlap)))}"
            )
        names: dict[int, str] = {}
        entries = []
        for kind, mapping in (("role", roles), ("filler", fillers)):
            for name, blade in mapping.items():
                if not isinstance(name, str) or not name:
                    raise ValueError(
                        f"{kind} name must be a nonempty string: {_shorten(repr(name))}"
                    )
                for mark in ",=" if kind == "role" else ",":
                    if mark in name:
                        raise ValueError(f"{kind} name {_shorten(repr(name))} contains {mark!r}")
                if name != name.strip():
                    raise ValueError(f"{kind} name {_shorten(repr(name))} has outer whitespace")
                if blade.n != n:
                    raise ValueError(
                        f"{kind} {_shorten(repr(name))} has dimension {blade.n}, table has {n}"
                    )
                if not blade.value:
                    raise ValueError(f"{kind} {_shorten(repr(name))} is the all-zero string")
                if kind == "filler":
                    # bits beyond position k sit below machine bit n - k: the
                    # lowest set bit tells, with no n-bit mask to build
                    if (blade.value & -blade.value).bit_length() <= n - k:
                        raise ValueError(
                            f"filler {_shorten(repr(name))} has bits beyond position {k}"
                        )
                    entries.append((name, blade))
                if blade.value in names:
                    raise ValueError(
                        f"{kind} {_shorten(repr(name))} collides with "
                        f"{_shorten(repr(names[blade.value]))}"
                    )
                names[blade.value] = name
        self.n, self.k, self.roles, self.fillers, self._names = n, k, roles, fillers, names
        self._off_support = (1 << min(n - k, 30)) - 1
        entries.sort(key=lambda entry: entry[1].value)
        self._memory = CleanupMemory(tuple(entries), tuple([blade.value for _, blade in entries]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SymbolTable) and (
            (self.n, self.k, self.roles, self.fillers)
            == (other.n, other.k, other.roles, other.fillers)
        )

    # - serialization -

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "roles": {name: format_blade(b) for name, b in self.roles.items()},
            "fillers": {name: format_blade(b) for name, b in self.fillers.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SymbolTable":
        try:
            n = _dimension(obj["n"])
            k = _json_value(obj["k"], (int,), "k")
            roles = {name: parse_blade(lit, n) for name, lit in obj["roles"].items()}
            fillers = {
                name: parse_blade(lit, n) for name, lit in obj["fillers"].items()
            }
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed symbol table: {exc}") from exc
        return cls(n=n, k=k, roles=roles, fillers=fillers)


def _json_value(value, types: tuple, what: str):
    """value, if its exact type is one of types (so true is not an int)."""
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} must be a JSON {names}, got {_shorten(repr(value))}")
    return value


def _dimension(value) -> int:
    """n as a file or gen_symbols takes it: an int of at least 1 (not a bool
    or a float), checked before any literal is read or symbol drawn."""
    n = _json_value(value, (int,), "n")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {_shorten(str(n))}")
    return n


def _check_seed(seed: int) -> None:
    # random.Random seeds with abs(seed), so -7 would repeat 7's draws
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {_shorten(str(seed))}")


def gen_symbols(seed: int, n: int, k: int, role_names, filler_names) -> SymbolTable:
    """Seeded random symbol table; deterministic for a given seed.

    Roles are uniform over nonzero n-bit strings; fillers are uniform
    over nonzero k-bit prefixes, zero-padded to n.  Collisions are
    redrawn; running out of retries signals the dimension is too small
    for the requested number of symbols.
    """
    _check_seed(seed)
    _dimension(n)
    if not 1 <= k <= n:
        raise ValueError(f"filler bits k={_shorten(str(k))} outside 1..{_shorten(str(n))}")
    role_names = list(role_names)
    filler_names = list(filler_names)
    names = role_names + filler_names
    if len(set(names)) != len(names):
        raise ValueError("duplicate symbol name")
    # c <= 2^b - 1 exactly when c.bit_length() <= b, and 2^n is never built
    if len(filler_names).bit_length() > k:
        raise ValueError(f"k={_shorten(str(k))} cannot host {len(filler_names)} distinct fillers")
    if len(names).bit_length() > n:
        raise ValueError(f"n={_shorten(str(n))} cannot host {len(names)} distinct symbols")

    rng = random.Random(seed)
    used: set[int] = set()

    def draw(bits: int, shift: int) -> int:
        for _ in range(MAX_DRAW_TRIES):
            v = rng.getrandbits(bits) << shift
            if v and v not in used:
                used.add(v)
                return v
        raise ValueError(
            f"could not draw {len(names)} distinct symbols "
            f"at n={_shorten(str(n))}, k={_shorten(str(k))}; "
            "dimension too small"
        )

    roles = {name: BladeIndex(n, draw(n, 0)) for name in role_names}
    fillers = {name: BladeIndex(n, draw(k, n - k)) for name in filler_names}
    return SymbolTable(n=n, k=k, roles=roles, fillers=fillers)


# --- records -----------------------------------------------------------------


class EncodedRecord(_JsonFile):
    """A chunked record: a sparse multivector (GA) or one bit string (classic)."""

    def __init__(
        self, codec: str, payload: Multivector | None = None, bits: BladeIndex | None = None
    ):
        if codec == GA:
            if not isinstance(payload, Multivector) or bits is not None:
                raise ValueError("ga record needs a payload multivector and no bits")
        elif codec == CLASSIC:
            if not isinstance(bits, BladeIndex) or payload is not None:
                raise ValueError("classic record needs bits and no payload")
        else:
            raise ValueError(f"unknown codec {_shorten(repr(codec))}")
        self.codec, self.payload, self.bits = codec, payload, bits

    @property
    def n(self) -> int:
        return self.payload.n if self.codec == GA else self.bits.n

    def to_json(self) -> dict:
        if self.codec == GA:
            return {"codec": GA, "n": self.n, "terms": self.payload.to_pairs()}
        return {"codec": CLASSIC, "n": self.n, "bits": format_blade(self.bits)}

    @classmethod
    def from_json(cls, obj: dict) -> "EncodedRecord":
        try:
            codec = obj["codec"]
            n = _dimension(obj["n"])
            if codec == GA:
                try:
                    terms = [
                        (_json_value(c, (int, float), "coefficient"), lit)
                        for c, lit in obj["terms"]
                    ]
                except ValueError:  # only unpacking raises it here
                    raise TypeError("each term must be a [coefficient, literal] pair") from None
                return cls(GA, payload=Multivector.from_pairs(terms, n))
            if codec == CLASSIC:
                return cls(CLASSIC, bits=parse_blade(obj["bits"], n))
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed record: {exc}") from exc
        return cls(codec)


class CleanupMemory(namedtuple("CleanupMemory", "entries values")):
    """The classic Hamming item memory: named fillers, nearest bit distance wins.

    entries is the table's (name, blade) filler pairs in blade order,
    not table order, and values their raw ints: the column that
    classic_decode scans, whose first nearest entry is the tie rule's
    answer.  `SymbolTable` builds the one memory of its fillers in its
    validation pass, and `from_table` returns it.

    A memory of F entries whose support (the span of the OR of its
    ints) is width bits wide is wide when F >= _PLANE_FILLERS_BASE +
    _PLANE_FILLERS_PER_BIT * width.  On its first decode a wide memory
    builds its bit planes and every entry's popcount (`_planes`, about
    1 to 2 ms at 1000 to 2000 entries of 256 bits) and keeps them; a
    narrow one keeps None and scans.  Nothing is built before that
    decode, so a table load builds nothing.  A decode sums kept planes
    as they are, never a complemented copy: only about a dozen count
    counters are complemented per decode.  They sit in the instance
    dict, outside the two fields, so `==` and the fields read as before.
    """

    # no __slots__: the instance dict keeps what `_planes` builds

    @cached_property
    def _planes(self):
        """(shift, planes, sizes) of a wide memory's ints, or None for a narrow one.

        shift and width are the lowest set bit and the span of the OR of
        the ints.  Plane i holds bit shift + i of every entry as one int,
        entry j at bit j.  Each entry's shifted int is written as
        ceil(width/8) little-endian bytes and the whole row is reversed
        once, so every byte column, read with that stride, lists the last
        entry first; each bit of it is one translate to "0"/"1" digits and
        one base-2 int.  sizes is every entry's popcount, bit-sliced like
        the planes: one `_bit_sliced_sum` over them, so sizes[j] holds bit
        j of each entry's count.
        """
        values = self.values
        support = 0
        for v in values:
            support |= v
        shift = (support & -support).bit_length() - 1
        width = support.bit_length() - shift
        if len(values) < _PLANE_FILLERS_BASE + _PLANE_FILLERS_PER_BIT * width:
            return None
        size = (width + 7) // 8
        rows = b"".join([(v >> shift).to_bytes(size, "little") for v in values])[::-1]
        planes = []
        for c in range(size):
            column = rows[size - 1 - c :: size]
            for digits in _BIT_DIGITS[: width - 8 * c]:
                planes.append(int(column.translate(digits), 2))
        return shift, planes, _bit_sliced_sum(planes[:])

    @classmethod
    def from_table(cls, table: SymbolTable, metric: str) -> "CleanupMemory":
        """The memory the table keeps; "hamming" is the only metric."""
        if metric != "hamming":
            raise ValueError(f"unknown clean-up metric {metric!r}")
        return table._memory


# --- GA codec ------------------------------------------------------------------


def ga_encode(table: SymbolTable, pairs, weights=None) -> EncodedRecord:
    """Record = sum of weighted signed role*filler blade products.

    Terms landing on the same blade add; with clashing weights they can
    cancel destructively, which is reported faithfully rather than
    repaired (small dimensions make such collisions likely).  weights
    is None (all 1.0) or one number per pair; a string would iterate as
    its characters, so it is refused before any pair is read.
    """
    if isinstance(weights, (str, bytes, bytearray)):
        raise TypeError(f"weights must be numbers, not a {type(weights).__name__}")
    pairs = list(pairs)
    if weights is None:
        weights = [1.0] * len(pairs)
    weights = [float(w) for w in weights]
    if len(weights) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(weights)} weights")
    roles, fillers = table.roles, table.fillers
    terms = []
    for (role_name, filler_name), w in zip(pairs, weights):
        role = roles.get(role_name) or _resolve(roles, role_name, "role")
        filler = fillers.get(filler_name) or _resolve(fillers, filler_name, "filler")
        terms.append((role.value ^ filler.value, w * product_sign(role, filler)))
    return EncodedRecord(GA, payload=Multivector._trusted(table.n, _add_terms({}, terms)))


# residual_terms: unbind terms besides the winning filler's blade
GaDecodeResult = namedtuple("GaDecodeResult", "filler blade score ambiguous residual_terms")


def ga_decode(record: EncodedRecord, table: SymbolTable, role_name: str) -> GaDecodeResult:
    """Unbind a role and clean the result against the table's fillers.

    The unbind inverse(role) * payload moves each record term v to
    v ^ role with that blade product's sign: a bijection on keys, read
    off the record without forming the product, so a weight-w pair
    gives exactly w times its filler blade.  For a key landing on filler
    f that sign is product_sign(role, f), the sign the pair was bound
    with: r * r = reversion_sign(|r|) in a Euclidean algebra, so
    inverse(r) * (r * f) = f gives sign(r, f) * sign(r, r ^ f) =
    reversion_sign(|r|), and the unbind sign reversion_sign(|r|) *
    sign(r, r ^ f) is sign(r, f).  A filler's reversion similarity with
    the unbind is its coefficient there, so only the filler blades
    among the unbind's keys score nonzero: O(P) for a P-pair record
    whatever the number of fillers.  Crosstalk off the filler support
    never names a filler and so never scores.  The winner is the filler
    of largest absolute score, with the signed score reported (binding
    is projective, a global sign carries no information).  Exact score
    ties go to the lexicographically smallest blade and are flagged
    ambiguous.  When no filler is present, all score 0: the smallest
    filler (the memory's first entry) wins, ambiguous unless alone.
    """
    if record.codec != GA:
        raise ValueError(f"ga_decode on a {record.codec!r} record")
    roles = table.roles
    role = roles.get(role_name) or _resolve(roles, role_name, "role")
    fillers = table.fillers
    if not fillers:
        raise ValueError("clean-up memory is empty")
    payload = record.payload
    if role.n != payload.n:
        _check_dims(role, payload)
    r = role.value
    terms = payload._terms

    # every filler is zero beyond position k, i.e. in its lowest n - k
    # machine bits, so v ^ r names none unless v agrees with r there;
    # testing at most 30 of them reads one int digit, where the name
    # lookup hashes all n bits (an int never caches its hash)
    off_support = table._off_support
    r_off = r & off_support
    names = table._names
    best_abs = 0.0
    winner = None
    ambiguous = False
    for v, c in terms.items():
        if v & off_support != r_off:
            continue
        name = names.get(v ^ r)
        filler = fillers.get(name)
        if filler is None:
            continue
        s = c * product_sign(role, filler)
        if abs(s) > best_abs:
            best_abs = abs(s)
            winner = (name, filler, s)
            ambiguous = False
        elif abs(s) == best_abs:
            ambiguous = True
            if filler.value < winner[1].value:
                winner = (name, filler, s)
    if winner is None:
        name, blade = table._memory.entries[0]
        return GaDecodeResult(name, blade, 0.0, len(fillers) > 1, len(terms))
    # a winner scores above 0, so its own term is not residual
    name, blade, score = winner
    return GaDecodeResult(name, blade, score, ambiguous, len(terms) - 1)


def _resolve(mapping: dict, name: str, kind: str) -> BladeIndex:
    try:
        return mapping[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {_shorten(repr(name))}") from None


# --- classic codec ---------------------------------------------------------------


def majority_chunk(items, seed: int) -> BladeIndex:
    """Per-position majority vote; exact ties resolved by a seeded coin.

    Every item must have the first item's dimension.  `_majority` votes
    on their bits and checks the seed and the empty list first, so a
    mixed list with a negative seed still reports the seed; the
    dimensions are checked after the vote.
    """
    items = list(items)
    bits = _majority([b.value for b in items], seed)
    n = items[0].n
    for b in items:
        if b.n != n:
            raise ValueError(f"mixed dimensions in majority vote: {b.n} vs {n}")
    return BladeIndex(n, bits)


def _majority(values, seed: int) -> int:
    """The per-position majority vote over raw bit-string ints.

    The seed and the list are checked before any coin is drawn.  The
    per-position counts are kept bit-sliced: counters[j] holds bit j of
    every position's count, from the carry-save adder tree of
    `_bit_sliced_sum`, the one the wide classic clean-up also runs over
    its bit planes.  Comparing the counts against floor(m/2) from the
    top counter down gives the "above" and "equal" masks.  An exact tie
    (only possible for even m) takes one coin from random.Random(seed)
    per tied position, in position order from 1; `_coin_flips` draws
    them all at once and fills them into the tie mask's digits in one
    pass.  The vote needs no width n: no count has a bit above the
    items' top bit.
    """
    _check_seed(seed)
    column = list(values)
    if not column:
        raise ValueError("majority vote over an empty list")
    m = len(column)
    counters = _bit_sliced_sum(column)
    half = m // 2
    above = 0
    # all ones; for m >= 2 half has a set bit, and ANDing that weight's
    # counter in cuts this to the items' width (for m = 1 it is unused)
    equal = -1
    counters += [0] * (half.bit_length() - len(counters))
    for j in reversed(range(len(counters))):
        count_bit = counters[j]
        if half >> j & 1:
            equal &= count_bit
        else:
            above |= equal & count_bit
            equal &= ~count_bit
    if m % 2 == 0 and equal:
        above |= _coin_flips(equal, seed)
    return above


def _bit_sliced_sum(column: list) -> list:
    """Bit-sliced per-position counts of the set bits of a nonempty list of ints.

    counters[j] holds bit j of every position's count.  They come out of
    a carry-save adder tree over whole bit strings: each full adder
    takes three values of one weight and gives their sum bit at that
    weight and their carry one weight up; two leftover values take a
    half adder, and the one value left at a weight is that counter.
    The list is used up.
    """
    counters = []
    while column:
        carries = []
        while len(column) > 2:
            a, b, c = column.pop(), column.pop(), column.pop()
            a_xor_b = a ^ b
            column.append(a_xor_b ^ c)
            carries.append((a & b) | (a_xor_b & c))
        if len(column) == 2:
            a, b = column
            column = [a ^ b]
            carries.append(a & b)
        counters.append(column[0])
        column = carries
    return counters


# _BIT_DIGITS[i]: byte -> "1" if its bit i is set, else "0"; bit i
# runs 2^i zeros then 2^i ones, over and over, as the byte counts up
_BIT_DIGITS = tuple((b"0" * (1 << i) + b"1" * (1 << i)) * (128 >> i) for i in range(8))


def _coin_flips(ties: int, seed: int) -> int:
    """One seeded coin per set bit of ties, drawn from position 1 onwards.

    The coin stream is that of getrandbits(1) called once per tie: such
    a call returns the top bit of one 32-bit Mersenne Twister output,
    and one getrandbits(32 * t) call returns the next t outputs with the
    first in its lowest 32 bits.  So coin j is the top bit of byte
    4j + 3 of its little-endian bytes, read in one pass.  The ties'
    binary digits, with each 1 turned into %c, are the template that
    one bytes % pass fills with those coins in position order; the
    template holds only 0s besides, so nothing else is a conversion.
    Leading zeros would only pad it with literal 0s, so it has none.
    """
    template = format(ties, "b").encode().replace(b"1", b"%c")
    t = ties.bit_count()
    words = random.Random(seed).getrandbits(32 * t).to_bytes(4 * t, "little")
    return int(template % tuple(words[3::4].translate(_BIT_DIGITS[7])), 2)


def classic_encode(table: SymbolTable, pairs, seed: int = 0) -> EncodedRecord:
    """Bind each pair by XOR and chunk by majority vote.

    The table holds every symbol at its dimension, so each pair binds
    as the raw int role.value ^ filler.value and goes straight to the
    vote `majority_chunk` runs, with no blade per pair and no second
    dimension check.
    """
    roles, fillers = table.roles, table.fillers
    bound = []
    for role_name, filler_name in pairs:
        role = roles.get(role_name) or _resolve(roles, role_name, "role")
        filler = fillers.get(filler_name) or _resolve(fillers, filler_name, "filler")
        bound.append(role.value ^ filler.value)
    return EncodedRecord(CLASSIC, bits=BladeIndex(table.n, _majority(bound, seed)))


ClassicDecodeResult = namedtuple("ClassicDecodeResult", "filler blade distance ambiguous")


# A memory of F entries over a support of width bits is wide when
# F >= _PLANE_FILLERS_BASE + _PLANE_FILLERS_PER_BIT * width: from its
# first decode, classic_decode counts on its bit planes.  Below that
# the planes' fixed cost per decode loses to the scan (README sweep).
_PLANE_FILLERS_BASE = 128
_PLANE_FILLERS_PER_BIT = 2

# A window's binary digits, lowest bit first, as itertools.compress
# selectors of the planes where it has a 1
_ONE_PLANES = bytes.maketrans(b"01", b"\0\1")


def classic_decode(
    record_bits: BladeIndex, role: BladeIndex, memory: CleanupMemory
) -> ClassicDecodeResult:
    """XOR the role back out and return the nearest memory entry.

    Ties go to the lexicographically smallest blade and are flagged:
    the memory is in blade order, so both paths take the first nearest
    entry.  The role is checked against the record, then the memory,
    and the raw ints XORed.  A narrow memory is scanned: the column of raw
    ints alone, with the distance `hamming` written out, one XOR, one
    popcount and one compare per entry; a later equal distance only
    flags the tie.  From its first decode a wide memory is counted on
    its bit planes instead (`_plane_decode`): the `_bit_sliced_sum`
    tree adds the kept planes where the record's window has its
    minority digit, at most width/2 of them, and one ripple-carry add
    puts the doubled counts and each entry's kept popcount together,
    one of them complemented; the nearest lanes are read from the top
    counter down, and the offset and the record's bits outside the
    planes add the same to every entry.
    """
    entries, values = memory
    if not entries:
        raise ValueError("clean-up memory is empty")
    _check_dims(record_bits, role)
    _check_dims(role, entries[0][1])
    u = record_bits.value ^ role.value
    sliced = memory._planes
    if sliced is not None:
        position, distance, ambiguous = _plane_decode(u, sliced, len(entries))
    else:
        distance = role.n + 1  # farther than any entry
        ambiguous = False
        for v in values:
            d = (u ^ v).bit_count()
            if d <= distance:
                if d < distance:
                    distance, best, ambiguous = d, v, False
                else:
                    ambiguous = True
        position = values.index(best)
    name, blade = entries[position]
    return ClassicDecodeResult(filler=name, blade=blade, distance=distance, ambiguous=ambiguous)


def _plane_decode(u: int, sliced: tuple, count: int) -> tuple:
    """(position, distance, ambiguous) of the unbound int u on count entries' kept planes.

    Over the planes, with w the window of u they cover, s = popcount(w),
    |v| an entry's popcount and C the sum of the plain planes where w
    has its minority digit (at most width/2 of them), an entry's
    distance is s + |v| - 2C over the 1-planes and s - |v| + 2C over the
    0-planes.  Both are x + (2^b - 1 - y) + s - 2^b + 1, with (x, y) =
    (|v|, 2C) or (2C, |v|) and y complemented within the F lanes across
    its b counters: one ripple-carry add of x and that complement, and
    the lanes of the smallest total are the nearest entries; the lowest
    wins.
    """
    shift, planes, sizes = sliced
    width = len(planes)
    window = u >> shift & (1 << width) - 1
    ones_minority = 2 * window.bit_count() <= width
    if not ones_minority:
        window ^= (1 << width) - 1  # its 1s are the planes where w has a 0
    digits = format(window, f"0{width}b").encode()[::-1]  # digit i is bit shift + i
    counts = [0, *_bit_sliced_sum(list(compress(planes, digits.translate(_ONE_PLANES))))]
    x, y = (sizes, counts) if ones_minority else (counts, sizes)
    # the offset s - 2^b + 1, plus the record's bits outside the planes,
    # which differ from every entry
    distance = u.bit_count() - (1 << len(y)) + 1
    lanes = (1 << count) - 1
    totals = []
    carry = 0
    for a, b in zip_longest(x, [c ^ lanes for c in y], fillvalue=0):
        a_xor_b = a ^ b
        totals.append(a_xor_b ^ carry)
        carry = (a & b) | (a_xor_b & carry)
    totals.append(carry)
    for j in reversed(range(len(totals))):
        lower = lanes & ~totals[j]
        if lower:
            lanes = lower
        else:
            distance += 1 << j
    return (lanes & -lanes).bit_length() - 1, distance, lanes & (lanes - 1) != 0


def hamming(a: BladeIndex, b: BladeIndex) -> int:
    """Number of differing positions."""
    _check_dims(a, b)
    return (a.value ^ b.value).bit_count()
