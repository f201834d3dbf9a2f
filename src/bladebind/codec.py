"""Role/filler record codecs.

Two interchangeable codings of the same record abstraction:

* GA codec: binding is the signed blade product, chunking is sparse
  coefficient addition.  Clean-up ranks the fillers by the reversion
  similarity, which for a unit filler blade is exactly its coefficient
  in the unbound result; so it reads the filler blades present among
  the unbound terms, O(P) per decode for a P-pair record and
  independent of the filler count.
* Classic codec: binding is XOR, chunking is a per-position majority
  vote with seeded tie flips, clean-up is nearest Hamming distance.
  The vote is bit-sliced over the int bit strings: per-position counts
  are kept as a few big-int counters (counters[j] holds bit j of every
  count), added to by XOR/AND ripples and compared against floor(m/2)
  with bitwise ops, so it needs no numpy and no per-position loop
  except one coin per exact tie.

Symbol tables draw roles over all nonzero n-bit strings and fillers
over nonzero k-bit prefixes (remaining positions zero), so unbinding
noise lands outside the filler subspace with high probability.

All randomized operations take an explicit seed and are pure functions
of it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .blades import (
    BladeIndex,
    _check_dims,
    blade_inverse,
    format_blade,
    parse_blade,
    product_sign,
)
from .multivector import Multivector, similarity

__all__ = [
    "SymbolTable",
    "EncodedRecord",
    "CleanupMemory",
    "GaDecodeResult",
    "ClassicDecodeResult",
    "gen_symbols",
    "ga_encode",
    "ga_decode",
    "classic_bind",
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


# --- symbol tables ------------------------------------------------------------


@dataclass(frozen=True)
class SymbolTable:
    """Named role and filler blades sharing one dimension.

    k is the filler support width: every filler is zero beyond position
    k.  Roles use all n positions.  Names are unique across the whole
    table and no two symbols share a bit string.  Treat the mappings as
    read-only: validation also caches a filler value -> name map for
    the GA clean-up, which a later change to `fillers` would not update.
    """

    n: int
    k: int
    roles: dict
    fillers: dict

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"filler bits k={self.k} outside 1..{self.n}")
        overlap = self.roles.keys() & self.fillers.keys()
        if overlap:
            raise ValueError(f"names used as both role and filler: {sorted(overlap)}")
        low = (1 << (self.n - self.k)) - 1
        seen: dict[int, str] = {}
        filler_names: dict[int, str] = {}
        for kind, mapping in (("role", self.roles), ("filler", self.fillers)):
            for name, blade in mapping.items():
                if not isinstance(name, str) or not name:
                    raise ValueError(f"{kind} name must be a nonempty string: {name!r}")
                if blade.n != self.n:
                    raise ValueError(
                        f"{kind} {name!r} has dimension {blade.n}, table has {self.n}"
                    )
                if blade.is_scalar:
                    raise ValueError(f"{kind} {name!r} is the all-zero string")
                if kind == "filler" and blade.value & low:
                    raise ValueError(
                        f"filler {name!r} has bits beyond position {self.k}"
                    )
                if blade.value in seen:
                    raise ValueError(
                        f"{kind} {name!r} collides with {seen[blade.value]!r}"
                    )
                seen[blade.value] = name
                if kind == "filler":
                    filler_names[blade.value] = name
        object.__setattr__(self, "_filler_names", filler_names)

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
            n = int(obj["n"])
            k = int(obj["k"])
            roles = {name: parse_blade(lit, n) for name, lit in obj["roles"].items()}
            fillers = {
                name: parse_blade(lit, n) for name, lit in obj["fillers"].items()
            }
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed symbol table: {exc}") from exc
        return cls(n=n, k=k, roles=roles, fillers=fillers)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SymbolTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def gen_symbols(seed: int, n: int, k: int, role_names, filler_names) -> SymbolTable:
    """Seeded random symbol table; deterministic for a given seed.

    Roles are uniform over nonzero n-bit strings; fillers are uniform
    over nonzero k-bit prefixes, zero-padded to n.  Collisions are
    redrawn; running out of retries signals the dimension is too small
    for the requested number of symbols.
    """
    if not 1 <= k <= n:
        raise ValueError(f"filler bits k={k} outside 1..{n}")
    role_names = list(role_names)
    filler_names = list(filler_names)
    names = role_names + filler_names
    if len(set(names)) != len(names):
        raise ValueError("duplicate symbol name")
    if len(filler_names) > (1 << k) - 1 or len(names) > (1 << n) - 1:
        raise ValueError(f"n={n}, k={k} cannot host {len(names)} distinct symbols")

    rng = random.Random(seed)
    used: set[int] = set()

    def draw(bits: int, shift: int) -> int:
        for _ in range(MAX_DRAW_TRIES):
            v = rng.getrandbits(bits) << shift
            if v and v not in used:
                used.add(v)
                return v
        raise ValueError(
            f"could not draw {len(names)} distinct symbols at n={n}, k={k}; "
            "dimension too small"
        )

    roles = {name: BladeIndex(n, draw(n, 0)) for name in role_names}
    fillers = {name: BladeIndex(n, draw(k, n - k)) for name in filler_names}
    return SymbolTable(n=n, k=k, roles=roles, fillers=fillers)


# --- records -----------------------------------------------------------------


@dataclass(frozen=True)
class EncodedRecord:
    """A chunked record: a sparse multivector (GA) or one bit string (classic)."""

    codec: str
    payload: Multivector | None = None
    bits: BladeIndex | None = None

    def __post_init__(self):
        if self.codec == GA:
            if not isinstance(self.payload, Multivector) or self.bits is not None:
                raise ValueError("ga record needs a payload multivector and no bits")
        elif self.codec == CLASSIC:
            if not isinstance(self.bits, BladeIndex) or self.payload is not None:
                raise ValueError("classic record needs bits and no payload")
        else:
            raise ValueError(f"unknown codec {self.codec!r}")

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
            n = int(obj["n"])
            if codec == GA:
                return cls(GA, payload=Multivector.from_pairs(obj["terms"], n))
            if codec == CLASSIC:
                return cls(CLASSIC, bits=parse_blade(obj["bits"], n))
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ValueError(f"malformed record: {exc}") from exc
        raise ValueError(f"unknown codec {codec!r}")

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "EncodedRecord":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class CleanupMemory:
    """The classic Hamming item memory: named fillers, nearest bit distance wins."""

    entries: tuple

    def __post_init__(self):
        if self.entries:
            n = self.entries[0][1].n
            for _, blade in self.entries:
                if blade.n != n:
                    raise ValueError("clean-up entries span different dimensions")

    @classmethod
    def from_table(cls, table: SymbolTable, metric: str) -> "CleanupMemory":
        """The table's fillers as a memory; "hamming" is the only metric."""
        if metric != "hamming":
            raise ValueError(f"unknown clean-up metric {metric!r}")
        return cls(entries=tuple(table.fillers.items()))


# --- GA codec ------------------------------------------------------------------


def ga_encode(table: SymbolTable, pairs, weights=None) -> EncodedRecord:
    """Record = sum of weighted signed role*filler blade products.

    Terms landing on the same blade add; with clashing weights they can
    cancel destructively, which is reported faithfully rather than
    repaired (small dimensions make such collisions likely).
    """
    pairs = list(pairs)
    if weights is None:
        weights = [1.0] * len(pairs)
    weights = [float(w) for w in weights]
    if len(weights) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(weights)} weights")
    acc: dict[BladeIndex, float] = {}
    for (role_name, filler_name), w in zip(pairs, weights):
        role = _resolve(table.roles, role_name, "role")
        filler = _resolve(table.fillers, filler_name, "filler")
        idx = role ^ filler
        acc[idx] = acc.get(idx, 0.0) + w * product_sign(role, filler)
    return EncodedRecord(GA, payload=Multivector(table.n, acc))


@dataclass(frozen=True)
class GaDecodeResult:
    filler: str
    blade: BladeIndex
    score: float
    raw: Multivector
    ambiguous: bool

    @property
    def residual_terms(self) -> int:
        """Terms of the raw unbind besides the winning filler's blade."""
        return len(self.raw) - (1 if self.raw.coeff(self.blade) != 0.0 else 0)


def ga_decode(record: EncodedRecord, table: SymbolTable, role_name: str) -> GaDecodeResult:
    """Unbind a role and clean the result against the table's fillers.

    raw = inverse(role) * payload, so a weight-w pair contributes
    exactly w times its filler blade.  A filler's reversion similarity
    with raw is exactly its coefficient there, so only the filler blades
    among raw's terms can score nonzero; clean-up scores just those,
    O(P) for a P-pair record whatever the number of fillers.  Crosstalk
    off the filler support never names a filler and so never scores.
    The winner is the filler of largest absolute score, with the signed
    score reported (binding is projective, a global sign carries no
    information).  Exact score ties go to the lexicographically smallest
    blade and are flagged ambiguous.  When no filler is present, every
    filler scores 0: the smallest blade wins, ambiguous unless it is
    the only filler.
    """
    if record.codec != GA:
        raise ValueError(f"ga_decode on a {record.codec!r} record")
    if record.n != table.n:
        raise ValueError(f"record dimension {record.n} != table dimension {table.n}")
    role = _resolve(table.roles, role_name, "role")
    if not table.fillers:
        raise ValueError("clean-up memory is empty")
    raw = Multivector.from_blade(blade_inverse(role)).gp(record.payload)

    best_abs = 0.0
    winner = None
    ambiguous = False
    # items() ascends by blade, so a later exact tie never displaces the winner.
    for idx, _ in raw.items():
        name = table._filler_names.get(idx.value)
        if name is None:
            continue
        blade = table.fillers[name]
        s = similarity(Multivector.from_blade(blade), raw)
        if abs(s) > best_abs:
            best_abs = abs(s)
            winner = (name, blade, s)
            ambiguous = False
        elif abs(s) == best_abs:
            ambiguous = True
    if winner is None:
        name, blade = min(table.fillers.items(), key=lambda kv: kv[1].value)
        winner = (name, blade, 0.0)
        ambiguous = len(table.fillers) > 1
    name, blade, score = winner
    return GaDecodeResult(
        filler=name,
        blade=blade,
        score=score,
        raw=raw,
        ambiguous=ambiguous,
    )


def _resolve(mapping: dict, name: str, kind: str) -> BladeIndex:
    try:
        return mapping[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}") from None


# --- classic codec ---------------------------------------------------------------


def classic_bind(x: BladeIndex, y: BladeIndex) -> BladeIndex:
    """XOR binding; its own inverse, so binding twice with x recovers y."""
    _check_dims(x, y)
    return x ^ y


def majority_chunk(items, seed: int) -> BladeIndex:
    """Per-position majority vote; exact ties resolved by a seeded coin.

    The per-position counts are kept bit-sliced: counters[j] holds bit j
    of every position's count, so adding an item is a ripple of XOR/AND
    over whole bit strings.  Comparing the counts against floor(m/2)
    from the top counter down gives the "above" and "equal" masks.  An
    exact tie (only possible for even m) takes one coin from
    random.Random(seed) per tied position, in position order from 1.
    """
    items = list(items)
    if not items:
        raise ValueError("majority vote over an empty list")
    n = items[0].n
    counters: list[int] = []
    for b in items:
        if b.n != n:
            raise ValueError(f"mixed dimensions in majority vote: {b.n} vs {n}")
        carry = b.value
        for j, count_bit in enumerate(counters):
            counters[j] = count_bit ^ carry
            carry &= count_bit
            if not carry:
                break
        else:
            if carry:
                counters.append(carry)
    m = len(items)
    half = m // 2
    above = 0
    equal = (1 << n) - 1
    counters += [0] * (half.bit_length() - len(counters))
    for j in reversed(range(len(counters))):
        count_bit = counters[j]
        if half >> j & 1:
            equal &= count_bit
        else:
            above |= equal & count_bit
            equal &= ~count_bit
    if m % 2 == 0 and equal:
        above |= _coin_flips(equal, n, seed)
    return BladeIndex(n, above)


def _coin_flips(ties: int, n: int, seed: int) -> int:
    """One seeded coin per set bit of ties, drawn from position 1 onwards."""
    draw = random.Random(seed).getrandbits
    gaps = format(ties, f"0{n}b").split("1")
    digits = [""] * (2 * len(gaps) - 1)
    digits[::2] = gaps
    digits[1::2] = ["01"[draw(1)] for _ in range(len(gaps) - 1)]
    return int("".join(digits), 2)


def classic_encode(table: SymbolTable, pairs, seed: int = 0) -> EncodedRecord:
    """Bind each pair by XOR and chunk by majority vote."""
    bound = []
    for role_name, filler_name in pairs:
        role = _resolve(table.roles, role_name, "role")
        filler = _resolve(table.fillers, filler_name, "filler")
        bound.append(classic_bind(role, filler))
    return EncodedRecord(CLASSIC, bits=majority_chunk(bound, seed))


@dataclass(frozen=True)
class ClassicDecodeResult:
    filler: str
    blade: BladeIndex
    distance: int
    ambiguous: bool


def classic_decode(
    record_bits: BladeIndex, role: BladeIndex, memory: CleanupMemory
) -> ClassicDecodeResult:
    """XOR the role back out and return the nearest memory entry.

    Ties go to the lexicographically smallest blade and are flagged.
    """
    if not memory.entries:
        raise ValueError("clean-up memory is empty")
    unbound = record_bits ^ role
    best = None
    ambiguous = False
    for name, blade in memory.entries:
        d = hamming(unbound, blade)
        if best is None or d < best[0] or (d == best[0] and blade.value < best[2].value):
            ambiguous = best is not None and d == best[0]
            best = (d, name, blade)
        elif d == best[0]:
            ambiguous = True
    return ClassicDecodeResult(
        filler=best[1], blade=best[2], distance=best[0], ambiguous=ambiguous
    )


def hamming(a: BladeIndex, b: BladeIndex) -> int:
    """Number of differing positions."""
    _check_dims(a, b)
    return (a.value ^ b.value).bit_count()
