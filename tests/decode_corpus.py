"""Every pinned output: the decode corpus's block digests and the golden CLI files.

A block is one codec at one dimension n and one seed.  It builds a
symbol table with `gen_symbols`, encodes records into it, decodes every
role of the table from every record, and tries every encode and decode
error the codec raises.  Every result, and every error by exception
type and message, is rendered as one text line; the block's digest is
the SHA-256 of those lines.  tests/golden/decode_corpus.txt holds one
"block digest" line per block, so a changed answer names its block.

Every classic decode is also checked against `nearest_by_scan`, the
reference clean-up, twice: on a fresh copy of the table, whose memory
is decoded for the first time, and on the block's own table, whose
memory is kept across decodes.  A wide memory counts on bit planes
from its first decode, so both run on planes there.

After the blocks it runs verify, and gen, encode and decode at n = 16
(binary literals) and n = 80 (hex), in-process in a temporary
directory; each other file in tests/golden that differs byte for byte
from what they print or write is named.  The n = 16 classic decode of
sex is the one golden tie.

Check both, and rewrite the digests after a change that is meant to
change an answer (say which and why in CHANGES.md):

    PYTHONPATH=src python tests/decode_corpus.py
    PYTHONPATH=src python tests/decode_corpus.py --write

It imports only the standard library and bladebind, so it also runs
under `python -S`, where numpy cannot be imported.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from bladebind import cli
from bladebind.blades import BladeIndex, format_blade
from bladebind.codec import (
    GA,
    CleanupMemory,
    EncodedRecord,
    SymbolTable,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
    majority_chunk,
)
from bladebind.multivector import Multivector

GOLDEN = Path(__file__).resolve().parent / "golden" / "decode_corpus.txt"

# n -> (k, fillers, roles).  Only n = 1024, at wide-memory's shape, is a
# wide memory (F >= 128 + 2 * width) that counts on bit planes from its
# first decode.  The others scan: n = 6 from bit 0 (k = n), n = 16 at
# every 4-bit prefix, n = 80 crowded into 8 bits, and n = 10,000 at
# bind-stream's shape.
SIZES = {
    6: (6, 24, 4),
    16: (4, 15, 5),
    80: (8, 20, 6),
    1024: (256, 2000, 8),
    10_000: (2500, 64, 8),
}
SEEDS = (1, 2)
# repeated and opposite values make exact score ties and cancellations
WEIGHTS = (1.0, -1.0, 2.0, -2.0, 3.0, 0.5, -0.5)


def nearest_by_scan(unbound: int, table: SymbolTable) -> tuple:
    """Reference classic clean-up: the popcount distance of every filler.

    (filler, blade, distance, ambiguous): the smallest distance wins,
    ties go to the smallest blade, and the result is ambiguous when two
    or more fillers share that distance.
    """
    ranked = sorted(
        ((unbound ^ blade.value).bit_count(), blade.value, name)
        for name, blade in table.fillers.items()
    )
    distance, value, name = ranked[0]
    tied = len(ranked) > 1 and ranked[1][0] == distance
    return name, BladeIndex(table.n, value), distance, tied


def show(value) -> str:
    if isinstance(value, BladeIndex):
        return format_blade(value)
    if isinstance(value, EncodedRecord):
        return json.dumps(value.to_json())
    if isinstance(value, tuple):
        return " ".join(map(show, value))
    return repr(value)


def attempt(call, *args) -> str:
    """The rendered result of call(*args), or the error it raises."""
    try:
        return show(call(*args))
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def block_table(n: int, seed: int) -> SymbolTable:
    k, fillers, roles = SIZES[n]
    role_names = [f"r{i}" for i in range(roles)]
    return gen_symbols(seed, n, k, role_names, [f"f{i}" for i in range(fillers)])


def ga_lines(n: int, seed: int, problems: list) -> list:
    """The rendering of one GA block; it has no reference to add to problems."""
    table = block_table(n, seed)
    rng = random.Random(f"ga {n} {seed}")
    roles, fillers = list(table.roles), list(table.fillers)
    lines = [json.dumps(table.to_json())]

    def pick(count):
        return [(role, rng.choice(fillers)) for role in roles[:count]]

    r0, r1, r2, r3 = roles[:4]
    fa, fb = rng.sample(fillers, 2)
    encodes = [
        (pick(len(roles)), None),
        (pick(len(roles)), [rng.choice(WEIGHTS) for _ in roles]),
        # one role twice: a tie, a cancellation, an opposite-sign tie, a win
        ([(r0, fa), (r0, fb), (r1, fa), (r1, fa), (r2, fa), (r2, fb), (r3, fa), (r3, fb)],
         [2.0, 2.0, 3.0, -3.0, 2.0, -2.0, 1.0, 3.0]),
        # half the roles are absent and score nothing
        (pick(len(roles) // 2), [rng.choice(WEIGHTS) for _ in range(len(roles) // 2)]),
        ([], None),
    ]
    records = []
    for pairs, weights in encodes:
        record = ga_encode(table, pairs, weights)
        lines.append(f"encode {pairs} {weights} -> {show(record)}")
        records.append(record)
    # a payload put together term by term: role-bound fillers with
    # clashing coefficients, plus crosstalk on random blades
    terms = {}
    for role in rng.sample(roles, 3):
        for filler in rng.sample(fillers, 3):
            terms[table.roles[role] ^ table.fillers[filler]] = rng.choice(WEIGHTS[:4])
    for _ in range(4):
        terms[BladeIndex(n, rng.getrandbits(n))] = rng.choice(WEIGHTS)
    records.append(EncodedRecord(GA, payload=Multivector(n, terms)))
    lines.append(f"record {show(records[-1])}")
    for i, record in enumerate(records):
        for role in roles:
            lines.append(f"decode {i} {role} -> {attempt(ga_decode, record, table, role)}")

    empty = SymbolTable(n, table.k, table.roles, {})
    other = gen_symbols(seed, n + 1, 1, [r0], ["f0"])
    classic = classic_encode(table, [(r0, fa)])
    pairs = [(r0, fa), (r1, fb)]
    for what, call, args in [
        ("weights as a string", ga_encode, (table, pairs, "12")),
        ("weights as bytes", ga_encode, (table, pairs, b"12")),
        ("too few weights", ga_encode, (table, pairs, [1.0])),
        ("too many weights", ga_encode, (table, pairs, [1.0, 2.0, 3.0])),
        ("unknown role", ga_encode, (table, [("nobody", fa)])),
        ("unknown filler", ga_encode, (table, [(r0, "nobody")])),
        ("role as a filler", ga_encode, (table, [(r0, r1)])),
        ("filler as a role", ga_encode, (table, [(fa, fb)])),
        ("a weight count before an unknown role", ga_encode, (table, [("nobody", fa)], [])),
        ("non-finite weight", ga_encode, (table, pairs, [1.0, float("nan")])),
        ("overflowing sum", ga_encode, (table, [(r0, fa)] * 2, [1e308, 1e308])),
        ("classic record", ga_decode, (classic, table, r0)),
        ("unknown role", ga_decode, (records[0], table, "nobody")),
        ("filler as a role", ga_decode, (records[0], table, fa)),
        ("empty memory", ga_decode, (records[0], empty, r0)),
        ("unknown role on an empty memory", ga_decode, (records[0], empty, "nobody")),
        ("record of another dimension", ga_decode, (records[0], other, r0)),
        ("empty record of another dimension", ga_decode, (records[-2], other, r0)),
    ]:
        lines.append(f"error {what}: {attempt(call, *args)}")
    return lines


def classic_lines(n: int, seed: int, problems: list) -> list:
    """The rendering of one classic block; problems gets each decode off the reference."""
    table = block_table(n, seed)
    rng = random.Random(f"classic {n} {seed}")
    roles, fillers = list(table.roles), list(table.fillers)
    lines = [json.dumps(table.to_json())]

    def pick(count):
        return [(role, rng.choice(fillers)) for role in roles[:count]]

    r0, r1 = roles[:2]
    fa, fb = rng.sample(fillers, 2)
    encodes = [
        # even votes tie, and their coins follow the seed
        (pick(2), 0), (pick(2), 7), (pick(4), 1), (pick(len(roles)), 3),
        (pick(3), 0), (pick(1), 5),
        ([(r0, fa), (r0, fb), (r1, fa), (r1, fa)], 2),
    ]
    records = []
    for pairs, vote_seed in encodes:
        record = classic_encode(table, pairs, vote_seed)
        lines.append(f"encode {pairs} {vote_seed} -> {show(record)}")
        bound = [table.roles[role] ^ table.fillers[filler] for role, filler in pairs]
        lines.append(f"majority {attempt(majority_chunk, bound, vote_seed)}")
        records.append(record.bits)
    # random bit strings: many ties where the fillers are crowded
    records += [BladeIndex(n, rng.getrandbits(n)) for _ in range(4)]
    memory = CleanupMemory.from_table(table, "hamming")
    for i, bits in enumerate(records):
        for role in roles:
            role_blade = table.roles[role]
            want = nearest_by_scan(bits.value ^ role_blade.value, table)
            # a fresh table's memory on its first decode, which builds
            # its planes if wide; the block's memory keeps them
            fresh = SymbolTable(n, table.k, table.roles, table.fillers)
            first = CleanupMemory.from_table(fresh, "hamming")
            for how, mem in (("first", first), ("kept", memory)):
                res = classic_decode(bits, role_blade, mem)
                lines.append(f"decode {i} {role} {how} -> {show(res)}")
                if res != want:
                    problems.append(
                        f"classic-n{n}-seed{seed}: {how} decode {i} {role} gave {show(res)}, "
                        f"the reference scan {show(want)}"
                    )

    empty = CleanupMemory.from_table(SymbolTable(n, table.k, table.roles, {}), "hamming")
    wider = BladeIndex(n + 1, 1)
    role = table.roles[r0]
    for what, call, args in [
        ("negative seed", classic_encode, (table, pick(2), -1)),
        ("negative seed before an empty vote", classic_encode, (table, [], -1)),
        ("no pairs", classic_encode, (table, [])),
        ("unknown role", classic_encode, (table, [("nobody", fa)])),
        ("unknown filler", classic_encode, (table, [(r0, "nobody")])),
        ("role as a filler", classic_encode, (table, [(r0, r1)])),
        ("mixed dimensions", majority_chunk, ([role, wider, role], 0)),
        ("mixed dimensions after a negative seed", majority_chunk, ([role, wider], -3)),
        ("empty vote", majority_chunk, ([], 0)),
        ("unknown metric", CleanupMemory.from_table, (table, "similarity")),
        ("empty memory", classic_decode, (records[0], role, empty)),
        ("empty memory and a wider role", classic_decode, (records[0], wider, empty)),
        ("record wider than its role", classic_decode, (wider, role, memory)),
        ("role wider than its record", classic_decode, (records[0], wider, memory)),
        ("record and role wider than the memory", classic_decode, (wider, wider, memory)),
    ]:
        lines.append(f"error {what}: {attempt(call, *args)}")
    return lines


def blocks() -> dict:
    """block name -> (rendering function, n, seed), for every codec x n x seed."""
    return {
        f"{codec}-n{n}-seed{seed}": (lines, n, seed)
        for codec, lines in (("ga", ga_lines), ("classic", classic_lines))
        for n in SIZES
        for seed in SEEDS
    }


def digests() -> tuple:
    """({block: SHA-256 of its rendering}, [reference disagreements])."""
    found, problems = {}, []
    for name, (lines, n, seed) in blocks().items():
        text = "\n".join(lines(n, seed, problems)) + "\n"
        found[name] = hashlib.sha256(text.encode()).hexdigest()
    return found, problems


def read_golden() -> dict:
    pinned = {}
    for line in GOLDEN.read_text().splitlines():
        name, digest = line.split()
        pinned[name] = digest
    return pinned


def run_cli(*argv) -> bytes:
    """The stdout of one in-process `bladebind` command, which must exit 0."""
    out = io.StringIO()
    with redirect_stdout(out):
        if cli.main(list(argv)):
            raise RuntimeError(f"bladebind {' '.join(argv)} failed")
    return out.getvalue().encode()


def cli_outputs(folder: Path) -> dict:
    """{golden file name: the bytes the CLI prints or writes for it}, written in folder."""
    outputs = {"verify.txt": run_cli("verify"), "verify.json": run_cli("verify", "--json")}
    outputs["decode.txt"] = b""
    for n in (16, 80):
        paths = [folder / f"{kind}{n}.json" for kind in ("table", "ga", "classic")]
        table, ga, classic = map(str, paths)
        run_cli("gen", "--n", str(n), "--k", str(n // 4), "--seed", "7",
                "--roles", "name,sex,age", "--fillers", "Pat,male,66", "--out", table)
        run_cli("encode", "--in", table, "--pairs", "name=Pat,sex=male,age=66",
                "--weights", "2,3,5", "--out", ga)
        run_cli("encode", "--in", table, "--codec", "classic",
                "--pairs", "name=Pat,sex=male", "--seed", "1", "--out", classic)
        outputs.update((path.name, path.read_bytes()) for path in paths)
        for record in (ga, classic):
            for role in ("name", "sex"):
                outputs["decode.txt"] += run_cli(
                    "decode", "--in", record, "--memory", table, "--role", role
                )
    return outputs


def golden_cli_files() -> set:
    """The names of the golden files that the CLI sequence prints or writes."""
    return {path.name for path in GOLDEN.parent.iterdir()} - {GOLDEN.name}


def check() -> list:
    """Every way the corpus and the CLI differ from their golden files, one line each."""
    found, problems = digests()
    pinned = read_golden()
    for name in found.keys() | pinned.keys():
        if name not in pinned:
            problems.append(f"{name}: not in {GOLDEN.name}")
        elif name not in found:
            problems.append(f"{name}: in {GOLDEN.name} but no longer in the corpus")
        elif found[name] != pinned[name]:
            problems.append(f"{name}: digest {found[name]} differs from {pinned[name]}")
    with tempfile.TemporaryDirectory() as folder:
        outputs = cli_outputs(Path(folder))
    for name in outputs.keys() | golden_cli_files():
        golden = GOLDEN.with_name(name)
        if not golden.exists() or outputs.get(name) != golden.read_bytes():
            problems.append(f"{name}: the CLI's output differs from the golden file")
    return sorted(problems)


def main(argv) -> int:
    if argv == ["--write"]:
        found, problems = digests()
        if problems:
            print("\n".join(problems))
            return 1
        GOLDEN.write_text("".join(f"{name} {digest}\n" for name, digest in found.items()))
        print(f"wrote {len(found)} blocks to {GOLDEN}")
        return 0
    if argv:
        print("usage: decode_corpus.py [--write]", file=sys.stderr)
        return 2
    problems = check()
    print("\n".join(problems) or f"{len(read_golden())} blocks match {GOLDEN.name}, "
          f"and {len(golden_cli_files())} golden CLI files match")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
