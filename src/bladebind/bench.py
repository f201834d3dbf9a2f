"""Seeded throughput measurements for the sign kernel and the codecs.

Products are timed over a fixed pool of random blades, the way a
record workload reuses its role and filler symbols; the first pass over
the pool pays the one-off prefix-scan cost, everything after it is one
AND plus one popcount per product.  The quadratic reference from
`reference` is timed on the same inputs to report the speedup.

Operation counts are pure functions of the flags, and the drawn inputs
are pure functions of the seed, so two runs with identical arguments
perform identical work (wall-clock noise aside).
"""

from __future__ import annotations

import random
import time

from .blades import BladeIndex, SignedBlade, geometric_product
from .codec import ga_decode, ga_encode, gen_symbols
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
        "reference_us_per_product": ref_per_product * 1e6,
        "speedup": ref_per_product / kernel_per_product,
    }


def _bench_codec(n: int, seed: int) -> dict:
    k = max(1, n // 4)
    table = gen_symbols(seed, n, k, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
    pairs = [("r1", "f1"), ("r2", "f2"), ("r3", "f3")]
    reps = 100 if n <= 2048 else 10

    t0 = time.perf_counter()
    for _ in range(reps):
        record = ga_encode(table, pairs)
    encode_elapsed = max(time.perf_counter() - t0, 1e-9)

    t0 = time.perf_counter()
    for _ in range(reps):
        ga_decode(record, table, "r1")
    decode_elapsed = max(time.perf_counter() - t0, 1e-9)

    return {
        "codec_k": k,
        "codec_pairs": len(pairs),
        "codec_reps": reps,
        "encode_ms": encode_elapsed / reps * 1e3,
        "decode_ms": decode_elapsed / reps * 1e3,
    }


def run_bench(sizes=DEFAULT_SIZES, seed: int = 0) -> dict:
    """Measure every requested size; assert the kernel bounds at n=10^4."""
    entries = []
    for n in sizes:
        entry = {"n": n}
        entry.update(_bench_products(n, seed))
        entry.update(_bench_codec(n, seed))
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
            f"reference {e['reference_us_per_product']:.3g} us/product, "
            f"speedup {e['speedup']:.3g}x"
        )
        lines.append(
            f"    record codec (k={e['codec_k']}, {e['codec_pairs']} pairs): "
            f"encode {e['encode_ms']:.3g} ms, decode {e['decode_ms']:.3g} ms"
        )
    if "passed" in result:
        lines.append(
            f"kernel bounds at n={ASSERT_AT_N}: "
            f"speedup >= {SPEEDUP_FLOOR:g} {'ok' if result['speedup_ok'] else 'FAIL'}, "
            f"rate >= {RATE_FLOOR:g}/s {'ok' if result['rate_ok'] else 'FAIL'}"
        )
    return "\n".join(lines)
