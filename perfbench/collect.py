"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/results/BENCH_baseline.json

Reads the command, the workloads, the run length and the bounds from
BENCHMARK.json, runs one seed at a time, and reports for each workload
and metric the median, the quartiles and the spread (interquartile
distance as a share of the median).  Each run's record keeps its
"latency" lines, which give the ungated medians and rates.  An
end-to-end metric is steady when its spread is under a third of its
bound.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    context = {
        key: line.split(" ", 1)[1]
        for line in lines for key in ("env", "inputs") if line.startswith(key + " ")
    }
    context["latency"] = [line for line in lines if line.startswith("latency ")]
    result = json.loads(lines[-1])
    return result, context


def summarise(values: list) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        per_metric: dict[str, list] = {}
        runs = []
        for seed in args.seeds:
            result, context = run_once(bench["command"], workload, seed, args.seconds,
                                       args.trace)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], **context})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary = {}
        for name, values in per_metric.items():
            summary[name] = summarise(values)
            bound = bounds.get(name)
            if bound is not None:
                summary[name]["bound"] = bound
            spread = summary[name]["spread"]
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:13s} {name:36s} median {summary[name]['median']:12.6g} "
                  f"spread {spread if spread is not None else float('nan'):.3f} "
                  f"{'' if bound is None else f'bound {bound}'} {flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
