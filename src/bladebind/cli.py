"""Command-line front end: gen, encode, decode, verify, bench.

Exit codes: 0 success, 1 verification or benchmark assertion failure,
2 usage or environment error (bad flags, a negative --seed, malformed
files, unknown names, a size too large to draw from), 141 stdout closed
by its reader (128 + SIGPIPE, as a shell reports for `yes | head`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .blades import _shorten
from .codec import (
    CLASSIC,
    GA,
    CleanupMemory,
    EncodedRecord,
    SymbolTable,
    _resolve,
    classic_decode,
    classic_encode,
    ga_decode,
    ga_encode,
    gen_symbols,
)

DEFAULT_GA_THRESHOLD = 0.5


def _parse_pairs(text: str) -> list:
    pairs = []
    for chunk in text.split(","):
        role, eq, filler = chunk.partition("=")
        if not eq or not role.strip() or not filler.strip():
            raise ValueError(f"bad pair {_shorten(repr(chunk))}, expected role=filler")
        pairs.append((role.strip(), filler.strip()))
    return pairs


def _parse_weights(text: str) -> list:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"bad weight list {_shorten(repr(text))}") from None


def _emit(args, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2) if args.json else text)


def cmd_gen(args) -> int:
    roles = [part.strip() for part in args.roles.split(",")]
    fillers = [part.strip() for part in args.fillers.split(",")]
    table = gen_symbols(args.seed, args.n, args.k, roles, fillers)
    table.save(args.out)
    _emit(
        args,
        {"path": args.out, "n": table.n, "k": table.k,
         "roles": len(table.roles), "fillers": len(table.fillers)},
        f"wrote symbol table n={table.n} k={table.k} "
        f"({len(table.roles)} roles, {len(table.fillers)} fillers) -> {args.out}",
    )
    return 0


def cmd_encode(args) -> int:
    table = SymbolTable.load(args.infile)
    pairs = _parse_pairs(args.pairs)
    if args.codec == GA:
        if args.seed is not None:
            raise ValueError("--seed applies to the classic codec only")
        weights = None if args.weights is None else _parse_weights(args.weights)
        record = ga_encode(table, pairs, weights)
        summary = f"{len(record.payload)} terms"
    else:
        if args.weights is not None:
            raise ValueError("--weights applies to the ga codec only")
        record = classic_encode(table, pairs, args.seed or 0)
        summary = "1 bit string"
    record.save(args.out)
    _emit(
        args,
        {"path": args.out, "codec": record.codec, "n": record.n,
         "terms": len(record.payload) if record.codec == GA else 1},
        f"wrote {record.codec} record ({summary}, n={record.n}) -> {args.out}",
    )
    return 0


def cmd_decode(args) -> int:
    # a negative threshold would never flag a GA score and always flag a
    # classic distance; NaN fails both comparisons
    if args.threshold is not None and not 0 <= args.threshold < math.inf:
        raise ValueError(f"--threshold must be finite and >= 0, got {args.threshold}")
    record = EncodedRecord.load(args.infile)
    table = SymbolTable.load(args.memory)
    # stripped like a --pairs name; a table holds no padded name to miss
    role_name = args.role.strip()
    if record.codec == GA:
        res = ga_decode(record, table, role_name)
        threshold = DEFAULT_GA_THRESHOLD if args.threshold is None else args.threshold
        below = abs(res.score) < threshold
        _emit(
            args,
            {"role": role_name, "filler": res.filler, "score": res.score,
             "ambiguous": res.ambiguous, "residual_terms": res.residual_terms,
             "below_threshold": below},
            f"role={role_name} filler={res.filler} score={res.score:g} "
            f"ambiguous={'yes' if res.ambiguous else 'no'} "
            f"residual-terms={res.residual_terms} "
            f"below-threshold={'yes' if below else 'no'}",
        )
    else:
        role = _resolve(table.roles, role_name, "role")
        memory = CleanupMemory.from_table(table, "hamming")
        res = classic_decode(record.bits, role, memory)
        below = args.threshold is not None and res.distance > args.threshold
        _emit(
            args,
            {"role": role_name, "filler": res.filler, "distance": res.distance,
             "ambiguous": res.ambiguous, "below_threshold": below},
            f"role={role_name} filler={res.filler} distance={res.distance} "
            f"ambiguous={'yes' if res.ambiguous else 'no'}"
            + (" below-threshold=yes" if below else ""),
        )
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    report = verify_mod.run_verification()
    _emit(args, report.to_json(), report.format_text())
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    sizes = tuple(args.n) if args.n else bench_mod.DEFAULT_SIZES
    result = bench_mod.run_bench(sizes, args.seed)
    _emit(args, result, bench_mod.format_text(result))
    return 0 if result.get("passed", True) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bladebind",
        description="Role/filler records over blade algebra and classic XOR codecs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random symbol table")
    p.add_argument("--n", type=int, required=True, help="string dimension")
    p.add_argument("--k", type=int, required=True, help="filler support width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--roles", default="r1,r2,r3", help="comma-separated role names")
    p.add_argument("--fillers", default="f1,f2,f3", help="comma-separated filler names")
    p.add_argument("--out", default="symbols.json")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("encode", help="encode role=filler pairs into a record")
    p.add_argument("--in", dest="infile", required=True, help="symbol table file")
    p.add_argument("--pairs", required=True, help="role=filler[,role=filler...]")
    p.add_argument("--codec", choices=[GA, CLASSIC], default=GA)
    p.add_argument("--weights", help="comma-separated reals (ga codec only)")
    p.add_argument("--seed", type=int, help="tie seed (classic codec only, default 0)")
    p.add_argument("--out", default="record.json")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("decode", help="unbind a role and clean up the filler")
    p.add_argument("--in", dest="infile", required=True, help="record file")
    p.add_argument("--memory", required=True, help="symbol table file for clean-up")
    p.add_argument("--role", required=True)
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="ga: min |score| before flagging (default 0.5); classic: max distance",
    )
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("verify", help="replay the pinned four-bit worked record")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("bench", help="time the sign kernel and the codecs")
    p.add_argument("--n", type=int, action="append",
                   help="size to measure (repeatable; default 1024 and 10000)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_bench)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a buffered write to a closed pipe fails here
        return code
    except BrokenPipeError:
        # the reader has gone; send what is left to devnull so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
