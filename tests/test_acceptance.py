"""Acceptance gate: every release criterion, one pass/fail line each.

Run with -s (or read the captured output) to see the ledger lines.
Budgets and tolerances are pinned here, not in helper config.
"""

import json
import random
import time

import numpy as np
import pytest

from bladebind.blades import (
    BladeIndex,
    SignedBlade,
    blade_inverse,
    geometric_product,
    product_sign,
)
from bladebind.cartan import blade_matrix, generator_matrix
from bladebind.cli import main as cli_main
from bladebind.codec import (
    CleanupMemory,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
    hamming,
)
from bladebind.multivector import Multivector, similarity, trace_product
from bladebind.reference import crossing_count, product_by_transposition_sort
from bladebind.verify import (
    ALPHA,
    BETA,
    GAMMA,
    GENERATOR_PRODUCT_DIAGONAL,
    fixture_table,
    run_verification,
)

MATRIX_TOL = 1e-9
EXACT_TOL = 1e-12


@pytest.fixture
def report(capsys):
    """Emit one pass/fail ledger line per criterion, past pytest's capture."""

    def emit(name: str, ok: bool, detail: str = ""):
        tail = f" ({detail})" if detail else ""
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def test_c1_sign_rule_regression(report):
    """Worked blade products, exact, under a millisecond."""
    e1 = BladeIndex.from_positions([1], 8)
    e12 = BladeIndex.from_positions([1, 2], 8)
    e2 = BladeIndex.from_positions([2], 8)
    e1257 = BladeIndex.from_positions([1, 2, 5, 7], 8)
    e26 = BladeIndex.from_positions([2, 6], 8)
    e1567 = BladeIndex.from_positions([1, 5, 6, 7], 8)
    cases = [
        (e1, e1, 1, BladeIndex.scalar(8)),
        (e1, e12, 1, e2),
        (e12, e1, -1, e2),
        (e1257, e26, -1, e1567),  # three jumps, (-1)^3
    ]
    t0 = time.perf_counter()
    results = [
        geometric_product(SignedBlade(1, a), SignedBlade(1, b)) for a, b, _, _ in cases
    ]
    elapsed = time.perf_counter() - t0
    exact = all(
        got == SignedBlade(sign, idx)
        for got, (_, _, sign, idx) in zip(results, cases)
    )
    report(
        "c1 sign-rule-regression",
        exact and elapsed < 1e-3,
        f"exact={exact}, {elapsed * 1e6:.0f} us",
    )


def test_c2_oracle_equivalence(report):
    """Kernel vs independent sign oracles: exhaustive small-n, bulk n=1024."""
    t0 = time.perf_counter()
    exhaustive_pairs = 0
    for n in range(1, 7):
        for av in range(1 << n):
            for bv in range(1 << n):
                a, b = BladeIndex(n, av), BladeIndex(n, bv)
                got = geometric_product(SignedBlade(1, a), SignedBlade(1, b))
                want = product_by_transposition_sort(a, b)
                assert got == want, (n, av, bv)
                exhaustive_pairs += 1

    n = 1024
    rng = random.Random(20260817)
    bulk = 100_000
    for _ in range(bulk):
        av, bv = rng.getrandbits(n), rng.getrandbits(n)
        a, b = BladeIndex(n, av), BladeIndex(n, bv)
        apos = np.nonzero(_bits_of(av, n))[0]
        bpos = np.nonzero(_bits_of(bv, n))[0]
        want = -1 if crossing_count(apos, bpos) & 1 else 1
        assert product_sign(a, b) == want
    elapsed = time.perf_counter() - t0
    report(
        "c2 oracle-equivalence",
        elapsed < 10.0,
        f"{exhaustive_pairs} exhaustive + {bulk} random pairs in {elapsed:.2f} s",
    )


def _bits_of(value: int, n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    raw = np.frombuffer(value.to_bytes(nbytes, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[8 * nbytes - n :]


def test_c3_matrix_homomorphism(report):
    """Blade products map to matrix products, exhaustively for n <= 6 at m=3."""
    m = 3
    worst_product = 0.0
    for n in range(1, 7):
        mats = {v: blade_matrix(BladeIndex(n, v), m) for v in range(1 << n)}
        for av in range(1 << n):
            for bv in range(1 << n):
                a, b = BladeIndex(n, av), BladeIndex(n, bv)
                gap = np.abs(
                    mats[av] @ mats[bv] - product_sign(a, b) * mats[av ^ bv]
                ).max()
                worst_product = max(worst_product, gap)
    assert worst_product <= MATRIX_TOL

    eye = np.eye(1 << m)
    worst_gen = 0.0
    gens = [generator_matrix(j, m) for j in range(1, 2 * m + 1)]
    for i, gi in enumerate(gens):
        worst_gen = max(worst_gen, np.abs(gi @ gi - eye).max())
        for gj in gens[i + 1 :]:
            worst_gen = max(worst_gen, np.abs(gi @ gj + gj @ gi).max())
    report(
        "c3 matrix-homomorphism",
        worst_product <= MATRIX_TOL and worst_gen <= EXACT_TOL,
        f"product gap {worst_product:.1e} (tol 1e-9), "
        f"anticommutation gap {worst_gen:.1e} (tol 1e-12)",
    )


def test_c4_worked_record_end_to_end(report):
    """The four-bit record: every pinned identity, the 16a trace, the diagonal."""
    table = fixture_table()
    record = ga_encode(
        table,
        [("name", "Pat"), ("sex", "male"), ("age", "66")],
        [ALPHA, BETA, GAMMA],
    )
    ok_record = record.payload == Multivector.from_pairs(
        [(ALPHA, "0110"), (GAMMA - BETA, "1111")], 4
    )

    pat_prime = Multivector.from_blade(table.roles["name"]).gp(record.payload)
    ok_decode = pat_prime == Multivector.from_pairs(
        [(-ALPHA, "1100"), (GAMMA - BETA, "0101")], 4
    )

    tp = trace_product(Multivector.from_blade(table.fillers["Pat"]), pat_prime, 4)
    ok_trace = tp == 16 * ALPHA == 32.0

    e14 = blade_matrix(BladeIndex.from_bits("1001"), 4)
    ok_diag = (
        np.abs(e14 - np.diag(np.array(GENERATOR_PRODUCT_DIAGONAL))).max() <= EXACT_TOL
        and abs(np.trace(e14)) <= EXACT_TOL
    )

    winner = ga_decode(record, table, "name")
    ok_winner = winner.filler == "Pat" and not winner.ambiguous

    ok_full = run_verification().passed
    report(
        "c4 worked-record-end-to-end",
        ok_record and ok_decode and ok_trace and ok_diag and ok_winner and ok_full,
        f"record={ok_record}, decode={ok_decode}, trace={tp}, "
        f"diagonal={ok_diag}, winner={winner.filler}, full-run={ok_full}",
    )


def test_c5_zero_trace_property(report):
    """Every nonscalar blade is traceless whenever n < 2m, exhaustive n <= 6."""
    worst = 0.0
    blades_checked = 0
    for n in range(1, 7):
        m = n // 2 + 1  # smallest m with n < 2m
        for v in range(1, 1 << n):
            worst = max(worst, abs(np.trace(blade_matrix(BladeIndex(n, v), m))))
            blades_checked += 1
    report(
        "c5 zero-trace",
        worst <= EXACT_TOL,
        f"{blades_checked} blades, worst |trace| {worst:.1e}",
    )


def test_c6_retrieval_at_desk_scale(report):
    """Monte-Carlo retrieval: 3-pair records, both codecs."""
    t0 = time.perf_counter()
    pairs = [("r1", "f1"), ("r2", "f2"), ("r3", "f3")]

    ga_trials, ga_hits = 10_000, 0
    for seed in range(ga_trials):
        t = gen_symbols(seed, 64, 16, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
        record = ga_encode(t, pairs)
        role, filler = pairs[seed % 3]
        res = ga_decode(record, t, role)
        ga_hits += res.filler == filler and not res.ambiguous
    ga_acc = ga_hits / ga_trials

    classic_trials, classic_hits = 1000, 0
    for seed in range(classic_trials):
        t = gen_symbols(seed, 1024, 1024, ["r1", "r2", "r3"], ["f1", "f2", "f3"])
        record = classic_encode(t, pairs, seed)
        mem = CleanupMemory.from_table(t, "hamming")
        role, filler = pairs[seed % 3]
        res = classic_decode(record.bits, t.roles[role], mem)
        classic_hits += res.filler == filler
    classic_acc = classic_hits / classic_trials

    elapsed = time.perf_counter() - t0
    report(
        "c6 retrieval-at-desk-scale",
        ga_acc >= 0.999 and classic_acc >= 0.99 and elapsed < 60.0,
        f"ga {ga_acc:.2%} (floor 99.9%), classic {classic_acc:.2%} (floor 99%), "
        f"{elapsed:.1f} s",
    )


def test_c7_algebraic_property_suite(report):
    """Unbind identity, associativity vs oracle, bilinearity, similarity, hamming."""
    rng = random.Random(99)

    ok_unbind = True
    for _ in range(300):
        n = rng.randrange(1, 129)
        a = BladeIndex(n, rng.getrandbits(n))
        b = BladeIndex(n, rng.getrandbits(n))
        bound = geometric_product(SignedBlade(1, a), SignedBlade(1, b))
        ok_unbind &= blade_inverse(a) * bound == SignedBlade(1, b)

    ok_assoc = True
    m, n = 3, 6
    for _ in range(150):
        a, b, c = (SignedBlade(1, BladeIndex(n, rng.getrandbits(n))) for _ in range(3))
        left = (a * b) * c
        right = a * (b * c)
        ok_assoc &= left == right
        matrix = (
            blade_matrix(a.index, m) @ blade_matrix(b.index, m) @ blade_matrix(c.index, m)
        )
        ok_assoc &= (
            np.abs(matrix - left.sign * blade_matrix(left.index, m)).max() <= MATRIX_TOL
        )

    def random_mv():
        return Multivector(
            6,
            {
                BladeIndex(6, rng.getrandbits(6)): float(rng.randrange(-5, 6))
                for _ in range(3)
            },
        )

    ok_bilinear = True
    ok_posdef = True
    for _ in range(100):
        x, y, z = random_mv(), random_mv(), random_mv()
        ok_bilinear &= (x + y).gp(z) == x.gp(z) + y.gp(z)
        ok_bilinear &= z.gp(x + y) == z.gp(x) + z.gp(y)
        norm = similarity(x, x)
        ok_posdef &= norm == sum(c * c for _, c in x.items())
        ok_posdef &= norm > 0 if x else norm == 0

    ok_hamming = True
    for _ in range(200):
        n = rng.randrange(1, 200)
        a, b = BladeIndex(n, rng.getrandbits(n)), BladeIndex(n, rng.getrandbits(n))
        ok_hamming &= hamming(a, b) == (a ^ b).grade()

    report(
        "c7 algebraic-property-suite",
        ok_unbind and ok_assoc and ok_bilinear and ok_posdef and ok_hamming,
        f"unbind={ok_unbind}, assoc={ok_assoc}, bilinear={ok_bilinear}, "
        f"posdef={ok_posdef}, hamming={ok_hamming}",
    )


def test_c8_kernel_performance(report, capsys):
    """cmd_bench asserts the >= 50x speedup and >= 1e5 products/s at n=10^4."""
    rc = cli_main(["bench", "--n", "10000", "--json"])
    result = json.loads(capsys.readouterr().out)
    entry = result["sizes"][0]
    report(
        "c8 kernel-performance",
        rc == 0 and result["passed"],
        f"speedup {entry['speedup']:.0f}x (floor 50), "
        f"rate {entry['products_per_second']:.2e}/s (floor 1e5)",
    )
