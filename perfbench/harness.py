"""Workloads, set-up, timed phases and the correctness gate.

A run sets up one workload, then spends its time budget on phases,
interleaved cycle by cycle, in a single closed-loop caller that
alternates the GA and the classic codec:

* ``decode``: role queries against records pre-encoded during set-up;
* ``encode``: fresh seeded records, encoded in-process;
* ``cli``: one ``bladebind encode`` child, then one ``bladebind decode
  --json`` child, one child at a time.

Every workload runs every phase, so every end-to-end metric exists on
every workload; the sizes and the share of the budget each phase gets
are what make a workload stress one layer.  The set-up runs SETUPS times
in a row before the phases, and `setup_s` is their median.  Inputs are
pure functions of the seed.  Every output is checked outside the timed
region, and a seeded sample of the run's records is re-derived from
first principles after the phases end.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from bladebind import blades, codec, multivector, reference

import spans

WEIGHTS = (-3, -2, -1, 1, 2, 3)
MIN_CYCLES = 2  # GA+classic op pairs per phase, so every latency has samples
SETUPS = 11  # set-ups in a row; setup_s is their median
REPLAY_CAP = 64  # in-process ops per phase replayed under tracing
CHECKSUM_OPS = 256  # ops per phase folded into the input checksum
CLASSIC_SAMPLE = 2  # classic records whose majority vote is re-derived
MICRO_CALLS = 20_000  # calls per repetition of a sub-microsecond timed loop
MICRO_REPEATS = 5
MASK_SAMPLES = 256
GP_RECORDS = 4  # pooled records whose clean-up products are timed
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 60
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"
PHASES = ("decode", "encode", "cli")
KINDS = ("ga_decode", "classic_decode", "ga_encode", "classic_encode", "cli_ga", "cli_classic")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    roles: int
    fillers: int
    pairs: int  # per GA record, and per classic record that is only encoded
    # Per classic record that is decoded.  Majority-vote crosstalk grows
    # with the pair count: at k=256 and F=2000 a classic decode of an
    # 8-pair record picks the wrong filler about one time in five, while
    # 3 pairs miss about once in 3e5 queries.  Decoded classic records
    # stay inside that capacity so that a wrong filler means a defect.
    classic_decode_pairs: int
    records: int  # pre-encoded decode pool, per codec
    phases: tuple  # (phase, share of the time budget)
    gen_via_cli: bool
    ref_terms: int  # GA terms re-derived by the transposition sort (~n^2 each)


WORKLOADS = {
    w.name: w
    for w in (
        # GA clean-up scores every filler, so the O(F) similarity loop is
        # nearly all of a decode.  The cli phase gets the largest share on
        # every workload: a round trip takes about 0.4 s, and its p90 needs
        # as many samples as the run can give.
        Workload("wide-memory", n=1024, k=256, roles=16, fillers=2000, pairs=8,
                 classic_decode_pairs=3, records=32,
                 phases=(("decode", 0.3), ("encode", 0.2), ("cli", 0.5)),
                 gen_via_cli=False, ref_terms=24),
        # Sign products, object wrapping and numpy majority chunking at
        # large n; clean-up over 64 fillers is a small share.
        Workload("bind-stream", n=10_000, k=2_500, roles=64, fillers=64, pairs=32,
                 classic_decode_pairs=16, records=8,
                 phases=(("encode", 0.3), ("decode", 0.2), ("cli", 0.5)),
                 gen_via_cli=False, ref_terms=2),
        # Every child pays imports, JSON parsing and cold parity masks.
        Workload("cli-pipeline", n=1024, k=256, roles=16, fillers=1000, pairs=8,
                 classic_decode_pairs=3, records=16,
                 phases=(("encode", 0.2), ("decode", 0.2), ("cli", 0.6)),
                 gen_via_cli=True, ref_terms=24),
    )
}

# name, unit, direction: what a user of the library or the CLI sees.
# Latency is gated at the 90th percentile.  On a shared host a thread's
# speed can flip between two levels, about 1.45x apart, every millisecond
# or so, in a mix that drifts over minutes.  The slow level is always
# present and the 90th percentile tracks it; the median and the mean
# follow the mix and spread past the bounds over ten seeds (README).
# The medians and rates are printed on each "latency" line.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ga_decode_p90_ms", "ms", "lower"),
    ("classic_decode_p90_ms", "ms", "lower"),
    ("ga_encode_p90_us", "us", "lower"),
    ("classic_encode_p90_us", "us", "lower"),
    ("cli_roundtrip_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Latency kinds in the order of END_TO_END, each with the unit it is printed in.
LATENCY_UNITS = (
    ("ga_decode", "ms"), ("classic_decode", "ms"), ("ga_encode", "us"),
    ("classic_encode", "us"), ("cli_roundtrip", "ms"),
)
SCALE = {"ms": 1e3, "us": 1e6}

# name, unit, direction, and the end-to-end metric and workload it should move.
# ga_encode calls product_sign directly and never Multivector.gp, so the gp
# figures move ga_decode_* (on wide-memory through the clean-up loop) only.
PER_LAYER = (
    ("codec.ga_decode_us", "us", "lower", "ga_decode_* on wide-memory"),
    ("codec.cleanup_us", "us", "lower", "ga_decode_* on wide-memory; not bind-stream encodes"),
    ("codec.cleanup_memory_us", "us", "lower", "ga_decode_*, classic_decode_* on wide-memory"),
    ("multivector.similarity_us", "us", "lower", "ga_decode_* on wide-memory"),
    ("multivector.similarity_calls_per_op", "count", "lower", "ga_decode_* on wide-memory"),
    ("codec.cleanup_useful_ratio", "ratio", "higher", "ga_decode_* on wide-memory"),
    ("blades.product_sign_ns", "ns", "lower",
     "ga_encode_* on bind-stream; ga_decode_* on wide-memory via clean-up"),
    ("blades.index_new_ns", "ns", "lower", "ga_encode_* on bind-stream"),
    ("blades.index_new_calls_per_op", "count", "lower", "ga_encode_* on bind-stream"),
    ("blades.geometric_product_ns", "ns", "lower", "ga_encode_* on bind-stream"),
    ("multivector.gp_us", "us", "lower", "ga_decode_* on wide-memory, through similarity"),
    ("multivector.gp_term_pairs_per_op", "count", "lower",
     "ga_decode_* on wide-memory, through similarity"),
    ("blades.product_sign_calls_per_op", "count", "lower",
     "ga_encode_* on bind-stream; ga_decode_* on wide-memory via clean-up"),
    ("codec.unbind_us", "us", "lower", "ga_decode_* on bind-stream (large n, few fillers)"),
    ("codec.ga_encode_self_us", "us", "lower", "ga_encode_* on bind-stream"),
    ("blades.mask_build_us", "us", "lower", "cli_roundtrip_* on cli-pipeline, setup_s"),
    ("codec.majority_chunk_us", "us", "lower", "classic_encode_* on bind-stream"),
    ("codec.classic_decode_us", "us", "lower", "classic_decode_* on wide-memory"),
    ("codec.hamming_calls_per_op", "count", "lower", "classic_decode_* on wide-memory"),
    ("codec.table_load_ms", "ms", "lower", "cli_roundtrip_* on cli-pipeline, setup_s"),
    ("codec.table_save_ms", "ms", "lower", "cli_roundtrip_* on cli-pipeline, setup_s"),
    ("codec.record_load_us", "us", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("codec.record_save_us", "us", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("cli.import_ms", "ms", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("cli.encode_process_ms", "ms", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("cli.decode_process_ms", "ms", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("cli.startup_share", "ratio", "lower", "cli_roundtrip_* on cli-pipeline"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of the traced run itself"),
)


# --- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class RecordInputs:
    roles: tuple  # distinct role indexes
    fillers: tuple  # filler index per role
    weights: tuple  # GA weights; empty for a classic record
    tie_seed: int  # classic chunking seed; 0 for a GA record

    def pairs(self) -> list:
        return [(role_name(r), filler_name(f)) for r, f in zip(self.roles, self.fillers)]

    def ints(self) -> tuple:
        return (*self.roles, *self.fillers, *(w + 3 for w in self.weights), self.tie_seed)


@dataclass(frozen=True)
class Op:
    kind: str  # one of KINDS
    record: object  # pool index for decodes, RecordInputs otherwise
    pair: int  # position of the queried pair; 0 for encodes

    def ints(self) -> tuple:
        rec = self.record.ints() if isinstance(self.record, RecordInputs) else (self.record,)
        return (KINDS.index(self.kind), *rec, self.pair)


def role_name(i: int) -> str:
    return f"r{i}"


def filler_name(i: int) -> str:
    return f"f{i}"


def draw_record(rng: random.Random, spec: Workload, npairs: int, ga: bool) -> RecordInputs:
    roles = tuple(rng.sample(range(spec.roles), npairs))
    fillers = tuple(rng.randrange(spec.fillers) for _ in roles)
    if ga:
        return RecordInputs(roles, fillers, tuple(rng.choice(WEIGHTS) for _ in roles), 0)
    return RecordInputs(roles, fillers, (), rng.getrandbits(32))


def pool_inputs(spec: Workload, seed: int) -> tuple[list, list]:
    rng = random.Random(seed * 1_000_003 + len(PHASES))
    ga = [draw_record(rng, spec, spec.pairs, True) for _ in range(spec.records)]
    classic = [
        draw_record(rng, spec, spec.classic_decode_pairs, False) for _ in range(spec.records)
    ]
    return ga, classic


def phase_cycles(spec: Workload, seed: int, phase: str):
    """Endless seeded (GA op, classic op) pairs for one phase."""
    rng = random.Random(seed * 1_000_003 + PHASES.index(phase))
    while True:
        if phase == "decode":
            yield (
                Op("ga_decode", rng.randrange(spec.records), rng.randrange(spec.pairs)),
                Op("classic_decode", rng.randrange(spec.records),
                   rng.randrange(spec.classic_decode_pairs)),
            )
        elif phase == "encode":
            yield (
                Op("ga_encode", draw_record(rng, spec, spec.pairs, True), 0),
                Op("classic_encode", draw_record(rng, spec, spec.pairs, False), 0),
            )
        else:
            yield (
                Op("cli_ga", draw_record(rng, spec, spec.pairs, True),
                   rng.randrange(spec.pairs)),
                Op("cli_classic", draw_record(rng, spec, spec.classic_decode_pairs, False),
                   rng.randrange(spec.classic_decode_pairs)),
            )


def input_checksum(spec: Workload, seed: int) -> int:
    """Weighted sum over the table, the decode pools and each phase's first ops.

    Two runs with the same checksum drew identical inputs, whatever the
    speed of the code under test (that only changes how many ops run).
    """
    table = codec.gen_symbols(seed, spec.n, spec.k, _names(spec.roles, role_name),
                              _names(spec.fillers, filler_name))
    values = [b.value for b in (*table.roles.values(), *table.fillers.values())]
    ga, classic = pool_inputs(spec, seed)
    for inp in ga + classic:
        values.extend(inp.ints())
    for phase, _ in spec.phases:
        cycles = phase_cycles(spec, seed, phase)
        for _ in range(CHECKSUM_OPS // 2):
            for op in next(cycles):
                values.extend(op.ints())
    return sum((i + 1) * (v % 1_000_003 + 13) for i, v in enumerate(values))


def _names(count: int, name) -> list:
    return [name(i) for i in range(count)]


# --- set-up ---------------------------------------------------------------------


@dataclass
class State:
    table: codec.SymbolTable
    table_path: Path
    ga_pool: list  # (RecordInputs, EncodedRecord)
    classic_pool: list


def setup(spec: Workload, seed: int, workdir: Path, cli) -> State:
    """Table, JSON round trip, pre-encoded pools and warm parity masks."""
    path = workdir / "table.json"
    roles = _names(spec.roles, role_name)
    fillers = _names(spec.fillers, filler_name)
    if spec.gen_via_cli:
        _, proc = cli(["gen", "--n", str(spec.n), "--k", str(spec.k), "--seed", str(seed),
                       "--roles", ",".join(roles), "--fillers", ",".join(fillers),
                       "--out", str(path)])
        if proc.returncode != 0:
            raise RuntimeError(f"bladebind gen exited {proc.returncode}: {proc.stderr.strip()}")
    else:
        codec.gen_symbols(seed, spec.n, spec.k, roles, fillers).save(path)
    table = codec.SymbolTable.load(path)
    ga_inputs, classic_inputs = pool_inputs(spec, seed)
    ga_pool = [(inp, codec.ga_encode(table, inp.pairs(), inp.weights)) for inp in ga_inputs]
    classic_pool = [
        (inp, codec.classic_encode(table, inp.pairs(), inp.tie_seed)) for inp in classic_inputs
    ]
    anchor = next(iter(table.roles.values()))
    for blade in (*table.roles.values(), *table.fillers.values()):
        blades.product_sign(blade, anchor)
    return State(table, path, ga_pool, classic_pool)


# --- the gate ---------------------------------------------------------------------


class Reservoir:
    """Uniform seeded sample of a stream of unknown length."""

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.rng = rng
        self.items: list = []
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = item


def check_decode(inp: RecordInputs, pair: int, filler, ambiguous, score=None) -> str | None:
    """The encoded filler, unflagged, and for GA (score given) |score| == |weight|."""
    want = filler_name(inp.fillers[pair])
    if filler != want:
        return f"decoded {filler}, encoded {want}"
    if score is not None and abs(score) != abs(inp.weights[pair]):
        return f"|score| {abs(score)!r} != |weight| {abs(inp.weights[pair])}"
    if ambiguous:
        return "ambiguous although the truth is unique"
    return None


def check_ga_record(table, inp: RecordInputs, record) -> str | None:
    """Cheap structural check: one term per pair, each of magnitude |w|.

    Signs are left to the reference re-derivation in `verify_samples`.
    """
    if len(record.payload) != len(inp.roles):
        return f"{len(record.payload)} terms for {len(inp.roles)} pairs"
    for (r, f), w in zip(inp.pairs(), inp.weights):
        c = record.payload.coeff(table.roles[r] ^ table.fillers[f])
        if abs(c) != abs(w):
            return f"term {r}*{f} has coefficient {c!r}, weight {w}"
    return None


def majority_by_columns(values: list, n: int, tie_seed: int) -> int:
    """Independent per-position majority vote, ties by the seeded coin in position order."""
    rng = random.Random(tie_seed)
    half = len(values)
    out = []
    for column in zip(*(format(v, f"0{n}b") for v in values)):
        twice = 2 * column.count("1")
        out.append("1" if twice > half else "0" if twice < half else str(rng.getrandbits(1)))
    return int("".join(out), 2)


# --- running ops ---------------------------------------------------------------------


class Runner:
    """Executes ops against one set-up state; times each call and checks it.

    The gate: `attempted` counts operations (the set-up's pre-encodes
    included) and `failures` keeps, per failed one, the first reason.
    """

    def __init__(self, spec: Workload, seed: int, state: State, cli, workdir):
        self.spec = spec
        self.state = state
        self.cli = cli
        self.workdir = workdir
        self.attempted = len(state.ga_pool) + len(state.classic_pool)
        self.failures: dict[str, str] = {}
        self.sample_rng = random.Random(seed * 1_000_003 + 17)
        self.ga_sample = Reservoir(spec.ref_terms, self.sample_rng)
        self.classic_sample = Reservoir(CLASSIC_SAMPLE, self.sample_rng)
        self.process_s: dict[str, list] = defaultdict(list)
        for i, (inp, rec) in enumerate(state.ga_pool):
            self.ga_sample.offer((f"setup:ga:{i}", inp, rec))
        for i, (inp, rec) in enumerate(state.classic_pool):
            self.classic_sample.offer((f"setup:classic:{i}", inp, rec))

    def fail(self, label: str, reason: str) -> None:
        self.failures.setdefault(label, reason)

    def run(self, op: Op, label: str) -> float | None:
        """Seconds the op took, or None if it raised."""
        self.attempted += 1
        try:
            seconds, problem = getattr(self, "_" + op.kind)(op, label)
        except Exception as exc:  # any error is one failed op; the run goes on
            self.fail(label, f"{op.kind}: {exc!r}")
            return None
        if problem:
            self.fail(label, f"{op.kind}: {problem}")
        return seconds

    def _ga_decode(self, op, label):
        inp, record = self.state.ga_pool[op.record]
        role = role_name(inp.roles[op.pair])
        t0 = perf_counter()
        res = codec.ga_decode(record, self.state.table, role)
        seconds = perf_counter() - t0
        return seconds, check_decode(inp, op.pair, res.filler, res.ambiguous, res.score)

    def _classic_decode(self, op, label):
        inp, record = self.state.classic_pool[op.record]
        table = self.state.table
        role = table.roles[role_name(inp.roles[op.pair])]
        t0 = perf_counter()
        memory = codec.CleanupMemory.from_table(table, "hamming")
        res = codec.classic_decode(record.bits, role, memory)
        seconds = perf_counter() - t0
        return seconds, check_decode(inp, op.pair, res.filler, res.ambiguous)

    def _ga_encode(self, op, label):
        inp = op.record
        pairs = inp.pairs()
        t0 = perf_counter()
        record = codec.ga_encode(self.state.table, pairs, inp.weights)
        seconds = perf_counter() - t0
        self.ga_sample.offer((label, inp, record))
        return seconds, check_ga_record(self.state.table, inp, record)

    def _classic_encode(self, op, label):
        inp = op.record
        pairs = inp.pairs()
        t0 = perf_counter()
        record = codec.classic_encode(self.state.table, pairs, inp.tie_seed)
        seconds = perf_counter() - t0
        self.classic_sample.offer((label, inp, record))
        problem = None if record.bits.n == self.spec.n else f"record has n={record.bits.n}"
        return seconds, problem

    def _cli_ga(self, op, label):
        return self._cli(op, ga=True)

    def _cli_classic(self, op, label):
        return self._cli(op, ga=False)

    def _cli(self, op, ga: bool):
        inp = op.record
        table_path = str(self.state.table_path)
        rec_path = str(self.workdir / "cli_record.json")
        pairs = ",".join(f"{r}={f}" for r, f in inp.pairs())
        args = ["encode", "--in", table_path, "--pairs", pairs, "--out", rec_path]
        if ga:
            # "=" form: a leading minus sign would read as a flag
            args += ["--codec", "ga", "--weights=" + ",".join(str(w) for w in inp.weights)]
        else:
            args += ["--codec", "classic", "--seed", str(inp.tie_seed)]
        enc_s, enc = self.cli(args)
        self.process_s["encode"].append(enc_s)
        if enc.returncode != 0:
            return enc_s, f"encode exited {enc.returncode}: {enc.stderr.strip()}"
        role = role_name(inp.roles[op.pair])
        dec_s, dec = self.cli(["decode", "--in", rec_path, "--memory", table_path,
                               "--role", role, "--json"])
        self.process_s["decode"].append(dec_s)
        if dec.returncode != 0:
            return enc_s + dec_s, f"decode exited {dec.returncode}: {dec.stderr.strip()}"
        out = json.loads(dec.stdout)
        problem = check_decode(inp, op.pair, out["filler"], out["ambiguous"],
                               out["score"] if ga else None)
        if problem is None and out["below_threshold"]:
            problem = "flagged below threshold"
        return enc_s + dec_s, problem

    def verify_samples(self) -> None:
        """Re-derive the sampled records from first principles."""
        table = self.state.table
        for label, inp, record in self.ga_sample.items:
            j = self.sample_rng.randrange(len(inp.roles))
            problem = _reference_term(table, inp, record, j)
            if problem:
                self.fail(label, f"reference: {problem}")
        for label, inp, record in self.classic_sample.items:
            bound = [
                (table.roles[r].value ^ table.fillers[f].value) for r, f in inp.pairs()
            ]
            want = majority_by_columns(bound, self.spec.n, inp.tie_seed)
            if record.bits.value != want:
                self.fail(label, "reference: majority vote differs")


def _reference_term(table, inp: RecordInputs, record, j: int) -> str | None:
    """Coefficient of pair j's blade, rebuilt by transposition sort of every pair landing there."""
    pairs = [(table.roles[r], table.fillers[f]) for r, f in inp.pairs()]
    target = pairs[j][0] ^ pairs[j][1]
    expected = 0
    for (r, f), w in zip(pairs, inp.weights):
        if r ^ f == target:
            sb = reference.product_by_transposition_sort(r, f)
            if sb.index != target:
                return f"reference product lands on another blade than {r!r}^{f!r}"
            expected += w * sb.sign
    got = record.payload.coeff(target)
    if got != expected:
        return f"pair {j}: coefficient {got!r}, transposition sort gives {expected}"
    return None


# --- phases and metrics ------------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failures: dict  # label of each failed op -> first reason
    metrics: dict  # name -> (value, unit)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_phases(runner: Runner, spec: Workload, seed: int, seconds: float, latencies,
               log) -> dict:
    """Closed loop over whole (GA op, classic op) cycles, the phases interleaved.

    Each cycle goes to the phase furthest below its share of the time
    used so far.  The host's speed drifts over seconds, and a phase run
    as one block would see only its own stretch of that drift.  A CLI
    round trip (one encode child and one decode child) is one sample of
    "cli_roundtrip", whichever codec it used.  Returns the first
    REPLAY_CAP ops of each phase.
    """
    shares = dict(spec.phases)
    cycles = {phase: phase_cycles(spec, seed, phase) for phase in shares}
    used = dict.fromkeys(shares, 0.0)
    done = dict.fromkeys(shares, 0)
    logged: dict[str, list] = {phase: [] for phase in shares}
    while sum(used.values()) < seconds or min(done.values()) < MIN_CYCLES:
        phase = min(shares, key=lambda p: (done[p] >= MIN_CYCLES, used[p] / shares[p]))
        t0 = perf_counter()
        for op in next(cycles[phase]):
            seconds_taken = runner.run(op, f"{op.kind}:{done[phase]}")
            if seconds_taken is not None:
                latencies["cli_roundtrip" if phase == "cli" else op.kind].append(seconds_taken)
            if len(logged[phase]) < REPLAY_CAP:
                logged[phase].append(op)
        used[phase] += perf_counter() - t0
        done[phase] += 1
    for phase, share in spec.phases:
        log(f"phase {phase}: {done[phase]} cycles in {used[phase]:.2f} s "
            f"(budget {share * seconds:.2f} s)")
    return logged


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs: list) -> float:
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def _rate(xs: list) -> float:
    """Calls per second of one closed-loop caller."""
    return len(xs) / sum(xs) if xs else 0.0


def latency_lines(lat: dict) -> list:
    """One line per latency kind: sample count, p50, p90 and rate."""
    lines = []
    for kind, unit in LATENCY_UNITS:
        xs, scale = lat[kind], SCALE[unit]
        lines.append(f"latency {kind}: samples={len(xs)} p50={_median(xs) * scale:.6g} {unit} "
                     f"p90={_p90(xs) * scale:.6g} {unit} rate={_rate(xs):.6g} 1/s")
    return lines


def end_to_end_metrics(setup_s: list, lat: dict) -> dict:
    """name -> (value, unit) for every END_TO_END metric."""
    values = {
        "setup_s": _median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind, unit in LATENCY_UNITS:
        values[f"{kind}_p90_{unit}"] = _p90(lat[kind]) * SCALE[unit]
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def _timed_loop_ns(fn, args_list) -> float:
    """Median over repetitions of the per-call time of fn over args_list, in ns."""
    loops = max(1, MICRO_CALLS // len(args_list))
    calls = loops * len(args_list)
    per_call = []
    for _ in range(MICRO_REPEATS):
        t0 = perf_counter()
        for _ in range(loops):
            for a, b in args_list:
                fn(a, b)
        per_call.append((perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e9


def _median_call_s(fn, arg, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn(arg)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def micro_metrics(spec: Workload, state: State, workdir: Path, cli) -> dict:
    """Timed loops over the workload's own inputs, for calls too short to span."""
    table = state.table
    sym_pairs = [
        (table.roles[r], table.fillers[f]) for inp, _ in state.ga_pool for r, f in inp.pairs()
    ]
    signed = [
        (blades.SignedBlade(1, r), blades.SignedBlade(1 if w > 0 else -1, f))
        for (r, f), w in zip(sym_pairs, (w for inp, _ in state.ga_pool for w in inp.weights))
    ]
    values = [(spec.n, b.value) for b in (*table.roles.values(), *table.fillers.values())]
    # The operands of the products inside similarity: each (reversed)
    # filler against the projected unbind of a pooled record.
    fillers = [
        multivector.Multivector.from_blade(b).reverse()
        for b in list(table.fillers.values())[:MASK_SAMPLES]
    ]
    gp_pairs = []
    for inp, rec in state.ga_pool[:GP_RECORDS]:
        role = table.roles[role_name(inp.roles[0])]
        raw = multivector.Multivector.from_blade(blades.blade_inverse(role)).gp(rec.payload)
        projected = raw.project_to_support(spec.k)
        gp_pairs.extend((f, projected) for f in fillers)
    anchor = next(iter(table.roles.values()))
    mask_s = []
    for n, v in values[:MASK_SAMPLES]:
        fresh = blades.BladeIndex(n, v)
        t0 = perf_counter()
        blades.product_sign(fresh, anchor)
        mask_s.append(perf_counter() - t0)

    io_table = workdir / "io_table.json"
    io_record = workdir / "io_record.json"
    save_s, load_s = [], []
    for _, rec in state.ga_pool + state.classic_pool:
        t0 = perf_counter()
        rec.save(io_record)
        t1 = perf_counter()
        codec.EncodedRecord.load(io_record)
        load_s.append(perf_counter() - t1)
        save_s.append(t1 - t0)
    table.save(io_table)
    import_s = [cli(None)[0] for _ in range(IMPORT_SAMPLES)]
    return {
        "blades.product_sign_ns": _timed_loop_ns(blades.product_sign, sym_pairs),
        "blades.index_new_ns": _timed_loop_ns(blades.BladeIndex, values),
        "blades.geometric_product_ns": _timed_loop_ns(blades.geometric_product, signed),
        "multivector.gp_us": _timed_loop_ns(multivector.Multivector.gp, gp_pairs) / 1e3,
        "blades.mask_build_us": _median(mask_s) * 1e6,
        "codec.table_save_ms": _median_call_s(table.save, io_table, 5) * 1e3,
        "codec.table_load_ms": _median_call_s(codec.SymbolTable.load, io_table, 5) * 1e3,
        "codec.record_save_us": _median(save_s) * 1e6,
        "codec.record_load_us": _median(load_s) * 1e6,
        "cli.import_ms": _median(import_s) * 1e3,
    }


def traced_metrics(timing: spans.Tracer, counting: spans.Tracer, ops: dict) -> dict:
    """Per-layer figures from the spans of one traced replay and the counts of another."""
    dur, self_s = timing.durations()
    by_name: dict[str, list] = defaultdict(list)
    for sid, nid in enumerate(timing.name_id):
        by_name[timing.names[nid]].append(sid)

    def mean_us(name, values=dur):
        sids = by_name.get(name, [])
        return sum(values[s] for s in sids) / len(sids) * 1e6 if sids else 0.0

    # Every gp span is the unbind: spans.timing() skips the gp calls of similarity.
    unbind = {timing.parent[sid]: dur[sid] for sid in by_name.get("multivector.gp", [])}
    decodes = by_name.get("codec.ga_decode", [])
    cleanup_us = (
        sum(dur[s] - unbind.get(s, 0.0) for s in decodes) / len(decodes) * 1e6
        if decodes else 0.0
    )
    counts = counting.counts
    ga_decodes = max(ops["ga_decode"], 1)
    sims = counts["multivector.similarity"]
    return {
        "codec.ga_decode_us": mean_us("codec.ga_decode"),
        "codec.cleanup_us": cleanup_us,
        "codec.cleanup_memory_us": mean_us("codec.CleanupMemory.from_table"),
        "multivector.similarity_us": mean_us("multivector.similarity"),
        "multivector.similarity_calls_per_op": sims / ga_decodes,
        "codec.cleanup_useful_ratio": counts["multivector.similarity_nonzero"] / max(sims, 1),
        "blades.index_new_calls_per_op":
            counts["blades.BladeIndex"] / max(sum(ops.values()), 1),
        "multivector.gp_term_pairs_per_op": counts["multivector.gp_term_pairs"] / ga_decodes,
        "blades.product_sign_calls_per_op":
            counts["blades.product_sign"] / max(ops["ga_encode"] + ops["ga_decode"], 1),
        "codec.unbind_us": mean_us("multivector.gp"),
        "codec.ga_encode_self_us": mean_us("codec.ga_encode", self_s),
        "codec.majority_chunk_us": mean_us("codec.majority_chunk"),
        "codec.classic_decode_us": mean_us("codec.classic_decode"),
        "codec.hamming_calls_per_op": counts["codec.hamming"] / max(ops["classic_decode"], 1),
    }


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 log=print) -> Result:
    """Set up, run every phase, check every output; trace=True adds the per-layer run."""
    workdir = root / WORK_DIR / f"{spec.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )

    def cli(args):
        """One child at a time: `bladebind <args>`, or a bare import when args is None."""
        cmd = [sys.executable, "-c", "import bladebind"] if args is None else [
            sys.executable, "-m", "bladebind", *args]
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return perf_counter() - t0, proc

    try:
        checksum = input_checksum(spec, seed)
        log(f"inputs n={spec.n} k={spec.k} roles={spec.roles} fillers={spec.fillers} "
            f"pairs={spec.pairs} classic_decode_pairs={spec.classic_decode_pairs} "
            f"records={spec.records} checksum={checksum}")
        setup_s = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            state = setup(spec, seed, workdir, cli)
            setup_s.append(perf_counter() - t0)
        runner = Runner(spec, seed, state, cli, workdir)
        lat: dict[str, list] = defaultdict(list)
        logged = run_phases(runner, spec, seed, seconds, lat, log)
        for line in latency_lines(lat):
            log(line)
        if trace:
            metrics = _trace_run(spec, seed, state, runner, logged, workdir, cli, root, log)
        else:
            metrics = end_to_end_metrics(setup_s, lat)
        runner.verify_samples()
        log(f"reference re-derived {len(runner.ga_sample.items)} GA terms and "
            f"{len(runner.classic_sample.items)} classic records")
        return Result(runner.attempted, runner.failures, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still works there
            pass


def _trace_run(spec, seed, state, runner, logged, workdir, cli, root, log) -> dict:
    """Replay each in-process phase's first ops: plain, with spans, then with counters.

    Spans and counters are kept to separate replays so that the wrappers
    counting sub-microsecond calls do not inflate the timed spans.
    """
    timing, counting = spans.Tracer(), spans.Tracer()
    ops: dict[str, int] = defaultdict(int)
    base = traced = 0.0
    for phase in ("decode", "encode"):
        for i, op in enumerate(logged[phase]):
            untraced_s = runner.run(op, f"replay:{op.kind}:{i}")
            timing.op_id += 1
            with spans.timing(timing, multivector, codec):
                traced_s = runner.run(op, f"traced:{op.kind}:{i}")
            with spans.counting(counting, blades, multivector, codec):
                runner.run(op, f"counted:{op.kind}:{i}")
            ops[op.kind] += 1
            if untraced_s is not None and traced_s is not None:
                base += untraced_s
                traced += traced_s
    trace_dir = root / TRACE_DIR
    trace_dir.mkdir(exist_ok=True)
    span_file = trace_dir / f"spans-{spec.name}-seed{seed}.json.gz"
    timing.write(span_file, counting.counts)
    log(f"wrote {len(timing.start)} spans to {span_file.relative_to(root)}")
    values = traced_metrics(timing, counting, ops)
    values.update(micro_metrics(spec, state, workdir, cli))
    enc = _median(runner.process_s["encode"])
    dec = _median(runner.process_s["decode"])
    values["cli.encode_process_ms"] = enc * 1e3
    values["cli.decode_process_ms"] = dec * 1e3
    values["cli.startup_share"] = values["cli.import_ms"] / (dec * 1e3) if dec else 0.0
    values["trace.overhead_frac"] = traced / base - 1.0 if base else 0.0
    return {name: (values[name], unit) for name, unit, _, _ in PER_LAYER}
