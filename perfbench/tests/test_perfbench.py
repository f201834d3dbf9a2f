"""Tests of the benchmark itself: inputs, gate and output contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bladebind.codec
import harness
import run
import spans

ROOT = Path(__file__).resolve().parents[2]


def tiny(spec):
    # One-pair classic records decode exactly, so no seed can fail by crosstalk.
    return replace(spec, n=128, k=32, roles=4, fillers=8, pairs=3, classic_decode_pairs=1,
                   records=4, ref_terms=4)


def quiet(*args, **kwargs):
    pass


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_checksum_repeats_for_a_seed(name):
    spec = harness.WORKLOADS[name]
    first = harness.input_checksum(spec, 5)
    assert harness.input_checksum(spec, 5) == first
    assert harness.input_checksum(spec, 6) != first


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run_of_each_workload_passes(name):
    result = harness.run_workload(tiny(harness.WORKLOADS[name]), 3, 0.2, False, ROOT, quiet)
    assert result.failed == 0, result.failures
    assert [m[0] for m in harness.END_TO_END] == list(result.metrics)
    assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_run_emits_every_layer_metric():
    spec = tiny(harness.WORKLOADS["wide-memory"])
    result = harness.run_workload(spec, 3, 0.2, True, ROOT, quiet)
    assert result.failed == 0, result.failures
    assert [m[0] for m in harness.PER_LAYER] == list(result.metrics)
    values = {name: value for name, (value, _) in result.metrics.items()}
    assert values["multivector.similarity_calls_per_op"] == spec.fillers
    assert values["codec.hamming_calls_per_op"] == spec.fillers
    assert values["codec.cleanup_us"] < values["codec.ga_decode_us"]
    assert 0 < values["codec.unbind_us"] < values["codec.ga_decode_us"]
    assert values["multivector.gp_term_pairs_per_op"] >= spec.fillers


def test_timing_spans_only_the_unbind_product():
    spec = tiny(harness.WORKLOADS["wide-memory"])
    codec = bladebind.codec
    table = codec.gen_symbols(1, spec.n, spec.k, ["r0", "r1"], [f"f{i}" for i in range(5)])
    record = codec.ga_encode(table, [("r0", "f1"), ("r1", "f3")], [2, -1])
    tracer = spans.Tracer()
    with spans.timing(tracer, bladebind.multivector, codec):
        assert codec.ga_decode(record, table, "r0").filler == "f1"
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("codec.ga_decode") == 1
    assert names.count("multivector.similarity") == 5
    assert names.count("multivector.gp") == 1
    (gp,) = [sid for sid, name in enumerate(names) if name == "multivector.gp"]
    assert names[tracer.parent[gp]] == "codec.ga_decode"
    assert codec.ga_decode.__name__ == "ga_decode"  # originals are back


def test_flipped_product_sign_fails_the_gate(monkeypatch, capsys):
    true_sign = bladebind.codec.product_sign
    monkeypatch.setattr(bladebind.codec, "product_sign", lambda a, b: -true_sign(a, b))
    spec = tiny(harness.WORKLOADS["bind-stream"])
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.2"],
                    workloads={"tiny": spec})
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert out["correct"] is False and out["failed"] > 0


def test_benchmark_json_matches_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in harness.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(harness.WORKLOADS)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-memory", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
