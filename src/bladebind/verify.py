"""End-to-end check of the classic four-bit worked record.

A fixed symbol table (n=4, k=2) encodes a three-pair record
("name"/"Pat", "sex"/"male", "age"/"66") with distinct weights alpha=2,
beta=3, gamma=5, then replays every identity the record is known to
satisfy: the signs of the bound pairs, the chunked record with its
destructive beta/gamma collision on e_1111, the noisy decode of "name",
the 16*alpha trace value, agreement with the Pauli strings of `cartan`,
and the final clean-up winners.  The weights are deliberately unequal
so the collision term gamma-beta stays visible instead of cancelling.

Checks run in dependency order; the first failure names the identity
that broke.  The checks consume the public codec entry points, so a
tampered sign rule upstream shows up here.
"""

from __future__ import annotations

from collections import namedtuple

from . import codec
from .blades import BladeIndex
from .cartan import I, SIGMA3, blade_string, diagonal, product, rep, trace
from .codec import SymbolTable
from .multivector import Multivector, trace_product

__all__ = [
    "ALPHA",
    "BETA",
    "GAMMA",
    "FIXTURE_M",
    "CheckResult",
    "VerificationReport",
    "fixture_table",
    "run_verification",
]

ALPHA, BETA, GAMMA = 2.0, 3.0, 5.0
FIXTURE_M = 4  # Pauli factors for the oracle; the 16-entry diagonal below pins it

_FILLERS = (("Pat", "1100"), ("male", "1000"), ("66", "0100"))
_ROLES = (("name", "1010"), ("sex", "0111"), ("age", "1011"))

# e_1 e_4 at m=4 is diagonal; the full 16 entries, pinned.
GENERATOR_PRODUCT_DIAGONAL = (1j, -1j, -1j, 1j) * 4

ORACLE_TOL = 1e-9


def fixture_table() -> SymbolTable:
    return SymbolTable(
        n=4,
        k=2,
        roles={name: BladeIndex.from_bits(bits) for name, bits in _ROLES},
        fillers={name: BladeIndex.from_bits(bits) for name, bits in _FILLERS},
    )


CheckResult = namedtuple("CheckResult", "name passed expected actual")


class VerificationReport:
    def __init__(self):
        self.checks = []

    def record(self, name: str, passed: bool, expected, actual) -> None:
        self.checks.append(CheckResult(name, bool(passed), str(expected), str(actual)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [c._asdict() for c in self.checks]}

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            if c.passed:
                lines.append(f"ok    {c.name}: {c.actual}")
            else:
                lines.append(
                    f"FAIL  {c.name}: expected {c.expected}, got {c.actual}"
                )
        verdict = "PASS" if self.passed else f"FAIL ({self.first_failure.name})"
        lines.append(f"verification: {verdict}")
        return "\n".join(lines)


def run_verification() -> VerificationReport:
    """Replay the worked record and report every identity checked."""
    table = fixture_table()
    report = VerificationReport()

    def mv(pairs):
        return Multivector.from_pairs(pairs, 4)

    # 1. signs of the individual bound pairs, straight from the codec
    expected_signs = {
        ("name", "Pat"): mv([(1.0, "0110")]),
        ("sex", "male"): mv([(-1.0, "1111")]),
        ("age", "66"): mv([(1.0, "1111")]),
    }
    got = {
        pair: codec.ga_encode(table, [pair], [1.0]).payload
        for pair in expected_signs
    }
    report.record(
        "bound-pair-signs",
        got == expected_signs,
        {p: repr(v) for p, v in expected_signs.items()},
        {p: repr(v) for p, v in got.items()},
    )

    # 2. the chunked record: beta and gamma collide on e_1111
    pairs = [("name", "Pat"), ("sex", "male"), ("age", "66")]
    record = codec.ga_encode(table, pairs, [ALPHA, BETA, GAMMA])
    expected_record = mv([(ALPHA, "0110"), (GAMMA - BETA, "1111")])
    report.record(
        "encoded-record",
        record.payload == expected_record,
        repr(expected_record),
        repr(record.payload),
    )

    # 3. decode of "name" in display form (plain left product, no inverse sign)
    name_blade = table.roles["name"]
    pat_prime = Multivector.from_blade(name_blade).gp(record.payload)
    expected_prime = mv([(-ALPHA, "1100"), (GAMMA - BETA, "0101")])
    report.record(
        "name-decode-terms",
        pat_prime == expected_prime,
        repr(expected_prime),
        repr(pat_prime),
    )

    # 4. the scalar product against e_Pat, algebraic route: 2^m <e_Pat * Pat'>_0
    e_pat = Multivector.from_blade(table.fillers["Pat"])
    tp = trace_product(e_pat, pat_prime, FIXTURE_M)
    report.record(
        "trace-scalar-product",
        tp == 16 * ALPHA,
        f"{16 * ALPHA}",
        f"{tp}",
    )

    # 5. the same numbers from the literal matrix trace, plus the product
    #    homomorphism on the decode itself, in the Pauli-string model
    trace_mat = trace(product(rep(e_pat, FIXTURE_M), rep(pat_prime, FIXTURE_M)))
    lhs = product(
        rep(Multivector.from_blade(name_blade), FIXTURE_M), rep(record.payload, FIXTURE_M)
    )
    rhs = rep(pat_prime, FIXTURE_M)
    homo_gap = max(
        (abs(lhs.get(s, 0j) - rhs.get(s, 0j)) for s in lhs.keys() | rhs.keys()), default=0.0
    )
    report.record(
        "matrix-oracle-agreement",
        abs(trace_mat - 16 * ALPHA) <= ORACLE_TOL and homo_gap <= ORACLE_TOL,
        f"trace {16 * ALPHA}, product gap <= {ORACLE_TOL}",
        f"trace {trace_mat}, product gap {homo_gap:.3g}",
    )

    # 6. the pinned diagonal of the e_1 e_4 representative: a string of I
    #    and sigma3 letters is diagonal, and one that is not all I is traceless
    e14 = BladeIndex.from_bits("1001")
    phase, letters = blade_string(e14, FIXTURE_M)
    diag = diagonal((phase, letters))
    e14_trace = trace(rep(Multivector.from_blade(e14), FIXTURE_M))
    diag_ok = (
        set(letters) <= {I, SIGMA3}
        and diag == list(GENERATOR_PRODUCT_DIAGONAL)
        and e14_trace == 0
    )
    report.record(
        "generator-product-diagonal",
        diag_ok,
        "diag(i,-i,-i,i | *4), traceless",
        f"diagonal {diag}, trace {e14_trace}",
    )

    # 7. clean-up winners for all three roles, with the collision-scarred
    #    scores (sex and age retrieve correctly but score +-(gamma-beta),
    #    not their own weights; the sign carries no information)
    expected_winners = {
        "name": ("Pat", ALPHA),
        "sex": ("male", BETA - GAMMA),
        "age": ("66", GAMMA - BETA),
    }
    wins = {}
    winners_ok = True
    for role_name, (want_filler, want_score) in expected_winners.items():
        res = codec.ga_decode(record, table, role_name)
        wins[role_name] = (res.filler, res.score, res.ambiguous)
        winners_ok &= (
            res.filler == want_filler
            and res.score == want_score
            and not res.ambiguous
        )
    report.record(
        "cleanup-winners",
        winners_ok,
        {r: (f, s, False) for r, (f, s) in expected_winners.items()},
        wins,
    )
    return report
