"""Seeded throughput measurements for the sign kernel and the codecs.

Products are timed over a fixed pool of random blades, the way a
record workload reuses its role and filler symbols; the first pass over
the pool pays the one-off prefix-scan cost, everything after it is one
AND plus one popcount per product.  The same index pairs then time the
bare sign kernel `product_sign`, so the product's wrapper objects show
as the difference.  The quadratic reference from `reference` is timed
on the same inputs to report the speedup.

Operation counts are pure functions of the flags, and the drawn inputs
are pure functions of the seed, so two runs with identical arguments
perform identical work (wall-clock noise aside).
"""

from __future__ import annotations

import json
import random
import time
import zlib

from .blades import BladeIndex, SignedBlade, geometric_product, product_sign
from .codec import CleanupMemory, classic_decode, classic_encode, ga_decode, ga_encode, gen_symbols
from .reference import product_sign_slow

__all__ = [
    "DEFAULT_SIZES",
    "SPEEDUP_FLOOR",
    "RATE_FLOOR",
    "ASSERT_AT_N",
    "run_bench",
    "format_text",
]

DEFAULT_SIZES = (1024, 10_000)
POOL_BITS = 6
POOL_SIZE = 1 << POOL_BITS

# Assertions checked at the largest standard size only.
ASSERT_AT_N = 10_000
SPEEDUP_FLOOR = 50.0
RATE_FLOOR = 1e5  # products per second


def _product_count(n: int) -> int:
    return 200_000 if n <= 2048 else 100_000


def _reference_count(n: int) -> int:
    # one reference product at n=10^4 already takes ~0.3 s
    return 5 if n <= 2048 else 1


def _bench_products(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    pool = []
    while len(pool) < POOL_SIZE:
        v = rng.getrandbits(n)
        if v:
            pool.append(SignedBlade(1, BladeIndex(n, v)))
    count = _product_count(n)
    # one draw per pair: 2 * POOL_BITS uniform bits split into two pool indices
    index_pairs = [
        divmod(rng.getrandbits(2 * POOL_BITS), POOL_SIZE) for _ in range(count)
    ]

    t0 = time.perf_counter()
    for i, j in index_pairs:
        geometric_product(pool[i], pool[j])
    kernel_elapsed = max(time.perf_counter() - t0, 1e-9)

    indexes = [blade.index for blade in pool]
    t0 = time.perf_counter()
    for i, j in index_pairs:
        product_sign(indexes[i], indexes[j])
    sign_elapsed = max(time.perf_counter() - t0, 1e-9)

    ref_count = _reference_count(n)
    t0 = time.perf_counter()
    for i, j in index_pairs[:ref_count]:
        product_sign_slow(pool[i].index, pool[j].index)
    ref_elapsed = max(time.perf_counter() - t0, 1e-9)

    kernel_per_product = kernel_elapsed / count
    ref_per_product = ref_elapsed / ref_count
    return {
        "pool_size": POOL_SIZE,
        "product_count": count,
        "reference_count": ref_count,
        "index_checksum": sum((i + 1) * (j + 13) for i, j in index_pairs),
        "kernel_us_per_product": kernel_per_product * 1e6,
        "products_per_second": 1.0 / kernel_per_product,
        "sign_us_per_call": sign_elapsed / count * 1e6,
        "reference_us_per_product": ref_per_product * 1e6,
        "speedup": ref_per_product / kernel_per_product,
    }


def _codec_table(n: int, seed: int):
    return gen_symbols(seed, n, max(1, n // 4), ["r1", "r2", "r3"], ["f1", "f2", "f3"])


def _wide_table(n: int, seed: int):
    """The same roles over 8 fillers per filler bit, k = min(n // 4, 256).

    Below k = 6 a k-bit prefix cannot host 8k fillers, so the table
    takes all 2^k - 1.
    """
    k = min(n // 4, 256)
    count = min(8 * k, (1 << k) - 1)
    return gen_symbols(seed, n, k, ["r1", "r2", "r3"], [f"f{i}" for i in range(1, count + 1)])


def _ms_per_call(reps: int, call, *args) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        call(*args)
    return max(time.perf_counter() - t0, 1e-9) / reps * 1e3


def _bench_codec(table, wide) -> dict:
    """GA encode and decode of a 3-pair record, plus the paths it misses.

    A classic encode of the first two pairs is an even vote, so its
    tie-coin fill runs, and a classic decode of r1 from that record scans
    the table's filler column; a GA decode of r3 from those two pairs
    finds no filler and takes the no-hit path.  The same classic decode
    on the wide table's memory, decoded once first, counts on its bit
    planes where the memory is wide.  The records decoded are built
    once, before anything is timed.
    """
    pairs = [("r1", "f1"), ("r2", "f2"), ("r3", "f3")]
    reps = 100 if table.n <= 2048 else 10
    record = ga_encode(table, pairs)
    two_pairs = ga_encode(table, pairs[:2])
    classic_record = classic_encode(table, pairs[:2])
    memory = CleanupMemory.from_table(table, "hamming")
    wide_bits = classic_encode(wide, pairs[:2]).bits
    wide_memory = CleanupMemory.from_table(wide, "hamming")
    classic_decode(wide_bits, wide.roles["r1"], wide_memory)  # builds the planes
    return {
        "codec_k": table.k,
        "codec_fillers": len(table.fillers),
        # the table's JSON content, so two runs can tell they timed one table
        "codec_symbols_crc32": zlib.crc32(json.dumps(table.to_json()).encode()),
        "codec_pairs": len(pairs),
        "codec_reps": reps,
        "encode_ms": _ms_per_call(reps, ga_encode, table, pairs),
        "decode_ms": _ms_per_call(reps, ga_decode, record, table, "r1"),
        "classic_encode_ms": _ms_per_call(reps, classic_encode, table, pairs[:2]),
        "classic_decode_ms": _ms_per_call(
            reps, classic_decode, classic_record.bits, table.roles["r1"], memory
        ),
        "decode_absent_ms": _ms_per_call(reps, ga_decode, two_pairs, table, "r3"),
        "codec_wide_fillers": len(wide.fillers),
        "classic_decode_wide_ms": _ms_per_call(
            reps, classic_decode, wide_bits, wide.roles["r1"], wide_memory
        ),
    }


def run_bench(sizes=DEFAULT_SIZES, seed: int = 0) -> dict:
    """Measure every requested size; assert the kernel bounds at n=10^4.

    Every size's codec table is built before anything is timed, so a
    size too small to host it fails at once.
    """
    tables = [(_codec_table(n, seed), _wide_table(n, seed)) for n in sizes]
    entries = []
    for table, wide in tables:
        entry = {"n": table.n}
        entry.update(_bench_products(table.n, seed))
        entry.update(_bench_codec(table, wide))
        entries.append(entry)
    result = {"seed": seed, "sizes": entries}
    gate = next((e for e in entries if e["n"] == ASSERT_AT_N), None)
    if gate is not None:
        result["speedup_ok"] = gate["speedup"] >= SPEEDUP_FLOOR
        result["rate_ok"] = gate["products_per_second"] >= RATE_FLOOR
        result["passed"] = result["speedup_ok"] and result["rate_ok"]
    return result


def format_text(result: dict) -> str:
    lines = []
    for e in result["sizes"]:
        lines.append(
            f"n={e['n']}: kernel {e['kernel_us_per_product']:.3g} us/product "
            f"({e['products_per_second']:.3g} products/s), "
            f"sign {e['sign_us_per_call']:.3g} us/call, "
            f"reference {e['reference_us_per_product']:.3g} us/product, "
            f"speedup {e['speedup']:.3g}x"
        )
        lines.append(
            f"    record codec (k={e['codec_k']}, {e['codec_fillers']} fillers, "
            f"symbols crc32 {e['codec_symbols_crc32']:08x}, {e['codec_pairs']} pairs): "
            f"encode {e['encode_ms']:.3g} ms, decode {e['decode_ms']:.3g} ms, "
            f"classic encode (2 pairs) {e['classic_encode_ms']:.3g} ms, "
            f"classic decode {e['classic_decode_ms']:.3g} ms, "
            f"absent-role decode {e['decode_absent_ms']:.3g} ms, "
            f"wide classic decode ({e['codec_wide_fillers']} fillers) "
            f"{e['classic_decode_wide_ms']:.3g} ms"
        )
    if "passed" in result:
        lines.append(
            f"kernel bounds at n={ASSERT_AT_N}: "
            f"speedup >= {SPEEDUP_FLOOR:g} {'ok' if result['speedup_ok'] else 'FAIL'}, "
            f"rate >= {RATE_FLOOR:g}/s {'ok' if result['rate_ok'] else 'FAIL'}"
        )
    return "\n".join(lines)
