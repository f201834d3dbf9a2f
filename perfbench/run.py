"""Benchmark of bladebind, run from the root of a source checkout.

    python3 perfbench/run.py --workload wide-memory --seed 1 --seconds 30 --trace 0

Imports the package from ``src/`` of the checkout (nothing is
installed), runs one workload for the given number of seconds, checks
every output, and prints a report whose last line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced replay.  Exits 1 if any operation failed and
2 if the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import bladebind from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bladebind" / "__init__.py").is_file():
        raise ImportError(f"no bladebind sources under {src}")
    sys.path.insert(0, str(src))
    import bladebind

    if Path(bladebind.__file__).resolve().parent != src / "bladebind":
        raise ImportError(f"bladebind was imported from {bladebind.__file__}, not {src}")


def build_parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None, workloads=None) -> int:
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness

    workloads = harness.WORKLOADS if workloads is None else workloads
    args = build_parser(workloads).parse_args(argv)
    spec = workloads[args.workload]
    print(f"workload={spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    # One CPU for the run and its children: a caller that wanders between
    # CPUs of different momentary speed gets a bimodal latency spread.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        result = harness.run_workload(spec, args.seed, args.seconds, bool(args.trace), ROOT)
    finally:
        os.sched_setaffinity(0, cpus)
    for label, reason in sorted(result.failures.items()):
        print(f"FAILED {label}: {reason}")
    print(f"attempted={result.attempted} failed={result.failed} "
          f"failed_ops_frac={result.failed / result.attempted:.6g}")
    moves = {name: target for name, _, _, target in harness.PER_LAYER}
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}"
              + (f"  [should move: {moves[name]}]" if name in moves else ""))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
