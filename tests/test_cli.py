"""Command-line round trips, exit codes, JSON reports.

Every malformed input that the CLI rejects is one row of USAGE_ERRORS,
which lists the rows under the name of the test that runs them; one
check runs each row in a fresh directory where a shared setup has
written table.json (gen --n 64 --k 16 --seed 7, roles
name,sex,age, fillers Pat,male,66) and record.json (a GA record of
name=Pat,sex=male); a row may change n, k, the fillers, the codec or the
pairs, and may edit either file.  Every command of every row must exit 2
with empty stdout and exactly one stderr line that starts with "error: "
and holds the row's message (the whole line, where the message starts
with "error: "), fits the row's byte bound (140 unless the row says
otherwise), and leaves the directory holding only the setup's two files.
"""

import json
import os
import subprocess
import sys

import pytest

from bladebind import bench
from bladebind.blades import DimensionMismatch
from bladebind.cli import main
from bladebind.codec import (
    CleanupMemory,
    EncodedRecord,
    SymbolTable,
    classic_decode,
    ga_decode,
    ga_encode,
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def gen_table(capsys, tmp_path, n=64, k=16, seed=7, fillers="Pat,male,66"):
    path = tmp_path / "table.json"
    rc, _, _ = run(
        capsys, "gen", "--n", str(n), "--k", str(k), "--seed", str(seed),
        "--roles", "name,sex,age", "--fillers", fillers,
        "--out", str(path),
    )
    assert rc == 0
    return path


def test_gen_writes_table(capsys, tmp_path):
    path = gen_table(capsys, tmp_path)
    obj = json.loads(path.read_text())
    assert obj["n"] == 64 and obj["k"] == 16
    assert set(obj["roles"]) == {"name", "sex", "age"}
    assert set(obj["fillers"]) == {"Pat", "male", "66"}


def test_gen_rejects_a_role_name_that_pairs_cannot_name(capsys, tmp_path):
    # encode --pairs reads "a=b=x" as role "a", filler "b=x", so gen
    # refuses the role name "a=b" (row gen-role-with-equals); a filler
    # name may hold "=": the role is split off at the first one
    path = tmp_path / "ok.json"
    rc, _, _ = run(capsys, "gen", "--n", "16", "--k", "4", "--roles", "a,c",
                   "--fillers", "b=x,y", "--out", str(path))
    assert rc == 0
    rc, _, _ = run(capsys, "encode", "--in", str(path), "--pairs", "a=b=x",
                   "--out", str(tmp_path / "r.json"))
    assert rc == 0
    rc, out, _ = run(capsys, "decode", "--in", str(tmp_path / "r.json"), "--memory", str(path),
                     "--role", "a")
    assert rc == 0 and "b=x" in out


def test_gen_at_ten_thousand_bits(capsys, tmp_path):
    path = tmp_path / "big.json"
    rc, _, _ = run(capsys, "gen", "--n", "10000", "--k", "2500",
                   "--seed", "1", "--out", str(path))
    assert rc == 0
    obj = json.loads(path.read_text())
    assert len(obj["roles"]["r1"]) == 2500  # hex digits for 10^4 bits


def test_ga_round_trip_recovers_every_role(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table),
                   "--pairs", "name=Pat,sex=male,age=66",
                   "--weights", "1,1,1", "--out", str(record))
    assert rc == 0
    for role, filler in [("name", "Pat"), ("sex", "male"), ("age", "66")]:
        rc, out, _ = run(capsys, "decode", "--in", str(record),
                         "--memory", str(table), "--role", role, "--json")
        assert rc == 0
        report = json.loads(out)
        assert report["filler"] == filler
        assert not report["ambiguous"]
        assert not report["below_threshold"]
        assert report["residual_terms"] == 2


def test_decode_role_not_in_record_is_flagged(capsys, tmp_path):
    table = tmp_path / "table.json"
    rc, _, _ = run(capsys, "gen", "--n", "64", "--k", "16", "--seed", "7",
                   "--roles", "name,sex,age,shoe", "--fillers", "Pat,male,66",
                   "--out", str(table))
    assert rc == 0
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table),
                   "--pairs", "name=Pat,sex=male,age=66", "--out", str(record))
    assert rc == 0
    rc, out, _ = run(capsys, "decode", "--in", str(record),
                     "--memory", str(table), "--role", "shoe", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["below_threshold"]
    assert abs(report["score"]) < 0.5


def test_classic_round_trip_single_pair(capsys, tmp_path):
    table = gen_table(capsys, tmp_path, n=256, k=256)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", "classic",
                   "--pairs", "name=Pat", "--out", str(record))
    assert rc == 0
    rc, out, _ = run(capsys, "decode", "--in", str(record),
                     "--memory", str(table), "--role", "name", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["filler"] == "Pat" and report["distance"] == 0


def test_classic_seed_defaults_to_zero(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    records = []
    for seed in ([], ["--seed", "0"]):
        records.append(tmp_path / f"r{len(records)}.json")
        rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", "classic",
                       "--pairs", "name=Pat,sex=male", *seed, "--out", str(records[-1]))
        assert rc == 0
    assert records[0].read_text() == records[1].read_text()


@pytest.mark.parametrize("codec", ["ga", "classic"])
def test_decode_role_is_stripped_like_a_pairs_name(capsys, tmp_path, codec):
    # encode --pairs " name = Pat " reads role "name"; decode --role must too
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", codec,
                   "--pairs", " name = Pat ", "--out", str(record))
    assert rc == 0
    outputs = []
    for role in ("name", " name", "name\t ", " name "):
        rc, out, err = run(capsys, "decode", "--in", str(record), "--memory", str(table),
                           "--role", role)
        assert (rc, err) == (0, "")
        outputs.append(out)
    assert outputs[0].startswith("role=name filler=Pat ")
    assert outputs == [outputs[0]] * 4
    rc, out, _ = run(capsys, "decode", "--in", str(record), "--memory", str(table),
                     "--role", " name ", "--json")
    assert rc == 0 and json.loads(out)["role"] == "name"


def assert_usage_error(capsys, *argv):
    """Exit 2, empty stdout, and one stderr line that starts "error: "."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("codec", ["ga", "classic"])
def test_record_and_table_dimensions_must_agree(capsys, tmp_path, codec):
    (tmp_path / "wide").mkdir()
    wide = gen_table(capsys, tmp_path / "wide", n=80, k=20)
    narrow = gen_table(capsys, tmp_path, n=16, k=4)
    path = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(wide), "--codec", codec,
                   "--pairs", "name=Pat", "--out", str(path))
    assert rc == 0
    record, table = EncodedRecord.load(path), SymbolTable.load(narrow)
    # ga_decode checks the role against the record, role first
    with pytest.raises(DimensionMismatch, match="n=16 vs n=80" if codec == "ga" else None):
        if codec == "ga":
            ga_decode(record, table, "name")
        else:
            classic_decode(record.bits, table.roles["name"],
                           CleanupMemory.from_table(table, "hamming"))
    assert_usage_error(capsys, "decode", "--in", str(path), "--memory", str(narrow),
                       "--role", "name")


def test_verify_rejects_other_m(capsys):
    # the fixture pins m=4, so verify takes no --m at all
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --m 3" in capsys.readouterr().err


def test_bench_small_smoke(capsys):
    import time

    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "bench", "--n", "64", "--json")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    result = json.loads(out)
    assert result["sizes"][0]["n"] == 64
    assert "passed" not in result  # no assertion gate away from n=10000
    for key in ("sign_us_per_call", "classic_encode_ms", "classic_decode_ms", "decode_absent_ms",
                "classic_decode_wide_ms"):
        assert result["sizes"][0][key] > 0
    assert result["sizes"][0]["codec_fillers"] == 3
    assert result["sizes"][0]["codec_wide_fillers"] == 8 * 16
    text = bench.format_text(result)
    for label in (" us/call, ", "classic encode (2 pairs) ", "classic decode ",
                  "absent-role decode ", " 3 fillers, symbols crc32 ",
                  "wide classic decode (128 fillers) "):
        assert label in text
    assert elapsed < 1.0


def test_bench_absent_role_decode_takes_the_no_hit_path():
    table = bench._codec_table(64, 0)
    record = ga_encode(table, [("r1", "f1"), ("r2", "f2")])
    assert ga_decode(record, table, "r3").score == 0.0


def test_bench_deterministic_op_counts(capsys):
    rc1, out1, _ = run(capsys, "bench", "--n", "64", "--seed", "5", "--json")
    rc2, out2, _ = run(capsys, "bench", "--n", "64", "--seed", "5", "--json")
    assert rc1 == rc2 == 0
    keys = ["product_count", "reference_count", "index_checksum", "codec_reps",
            "codec_fillers", "codec_symbols_crc32", "codec_wide_fillers"]
    first = {k: json.loads(out1)["sizes"][0][k] for k in keys}
    second = {k: json.loads(out2)["sizes"][0][k] for k in keys}
    assert first == second


@pytest.mark.parametrize(
    "n, message",
    [("0", "dimension must be >= 1, got 0"), ("3", "k=1 cannot host 3 distinct fillers")],
    ids=["0", "3"],
)
def test_bench_rejects_a_too_small_size_at_once(tmp_path, src_env, n, message):
    # a child process with a timeout: at n=0 a blade pool that never
    # fills would hang the test run itself
    proc = subprocess.run(
        [sys.executable, "-m", "bladebind", "bench", "--n", n],
        cwd=tmp_path, env=src_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_bench_checks_every_size_before_timing(capsys, monkeypatch):
    def no_timing(n, seed):
        raise AssertionError(f"timed n={n} before checking every size")

    monkeypatch.setattr(bench, "_bench_products", no_timing)
    rc, out, err = run(capsys, "bench", "--n", "64", "--n", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: k=1 cannot host 3 distinct fillers\n"


def test_a_closed_stdout_exits_141_without_an_error_line(tmp_path, src_env):
    # the reader of a pipe left before the child wrote, as in `... | head`:
    # the shell's SIGPIPE status, and nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bladebind", "verify"],
            stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path, env=src_env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_usage_error_without_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- usage errors ------------------------------------------------------------

TABLE, RECORD = "table.json", "record.json"


def usage_error(row_id, message, *commands, table=None, record=None, bound=140, **setup):
    """One row of USAGE_ERRORS: commands (argv tuples) run after the setup.

    row_id is the row's test parameter id, or None in a test that runs
    its rows in turn.  setup takes n, k, fillers, codec and pairs (see
    write_setup); table and record are edits, text to text, of the
    setup's two files.
    """
    edits = {name: edit for name, edit in ((TABLE, table), (RECORD, record)) if edit}
    return pytest.param(commands, message, edits, bound, setup, id=row_id)


def write_setup(capsys, tmp_path, n=64, k=16, fillers="Pat,male,66", codec="ga",
                pairs="name=Pat,sex=male"):
    table = gen_table(capsys, tmp_path, n, k, fillers=fillers)
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", codec, "--pairs", pairs,
                   "--out", str(tmp_path / RECORD))
    assert rc == 0

def gen(*flags):
    return ("gen", *flags, "--out", "out.json")


def encode(pairs="name=Pat", *flags):
    return ("encode", "--in", TABLE, "--pairs", pairs, *flags, "--out", "out.json")


def decode(role="name", *flags):
    return ("decode", "--in", RECORD, "--memory", TABLE, "--role", role, *flags)


def sub(old, new):
    """An edit that replaces the first old in a file's text with new."""
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


def edit_json(change):
    """An edit that calls change(obj) on a file's JSON, which it changes in place."""
    def edit(text):
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return edit


def put(*path, value):
    """An edit that sets obj[path[0]]...[path[-1]] to value."""
    def change(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit_json(change)


def repeat(key, inside=None, times=1, as_key=None):
    """An edit that writes key's value again, `times` times, under as_key
    (default key) at the head of obj[inside] (or obj): before the copy a
    last-one-wins reader would keep."""
    def edit(text):
        obj = json.loads(text)
        value = (obj[inside] if inside else obj)[key]
        opening = f'"{inside}": {{' if inside else "{"
        entry = f"{json.dumps(as_key or key)}: {json.dumps(value)}, "
        return sub(opening, opening + times * entry)(text)
    return edit


def zero_table(literal):
    table = {"n": 0, "k": 0, "roles": {"name": literal}, "fillers": {"Pat": literal}}
    return lambda _: json.dumps(table)


RECORD_N = "error: malformed record: n must be a JSON int, got"
TABLE_K = "error: malformed symbol table: k must be a JSON int, got"
ZERO = "error: dimension must be >= 1, got 0"
SEED_GA = "error: --seed applies to the classic codec only"
WEIGHTS_CLASSIC = "error: --weights applies to the ga codec only"
TWICE = "error: blade 0011001011100110 is named twice"
LONG = 299  # bytes: a 1 MB filler literal, cut, still prints 141


# Rows by the test that runs them.  A message that starts "error: " is the
# whole line; any other is part of it.
USAGE_ERRORS = {
    # gen: sizes, names and seeds
    "test_gen_rejects_bad_k": [
        usage_error(None, "error: filler bits k=0 outside 1..8", gen("--n", "8", "--k", "0")),
    ],
    "test_a_bad_size_is_reported_by_its_dimension": [
        usage_error("gen-n-negative", "error: dimension must be >= 1, got -5",
                    gen("--n", "-5", "--k", "1")),
        usage_error("gen-n-and-k-zero", ZERO, gen("--n", "0", "--k", "0")),
        usage_error("bench-n-negative", "error: dimension must be >= 1, got -5",
                    ("bench", "--n", "-5")),
    ],
    "test_gen_names_the_capacity_that_fails": [
        usage_error("fillers", "error: k=2 cannot host 4 distinct fillers",
                    gen("--n", "8", "--k", "2", "--roles", "a", "--fillers", "x,y,z,w")),
        usage_error("symbols", "error: n=2 cannot host 4 distinct symbols",
                    gen("--n", "2", "--k", "1", "--roles", "a,b,c", "--fillers", "x")),
    ],
    "test_gen_rejects_an_empty_name_and_writes_nothing": [
        usage_error(roles, "error: role name must be a nonempty string: ''",
                    gen("--n", "16", "--k", "4", "--roles", roles))
        for roles in ["a,,b", "", "a, ,b", ",a"]
    ],
    "test_gen_rejects_a_role_name_with_equals": [
        usage_error(None, "error: role name 'a=b' contains '='",
                    gen("--n", "16", "--k", "4", "--roles", "a=b,c")),
    ],
    # 4001 digits: int() parses them, but no 2^n is built and the echo is cut;
    # "int" is in the interpreter's own overflow message
    "test_a_huge_size_is_one_short_error_line": [
        usage_error("gen-huge-n", "int",
                    gen("--n", "9" * 4001, "--k", "1", "--roles", "a", "--fillers", "b")),
        usage_error("gen-huge-k", "filler bits k=9999",
                    gen("--n", "5", "--k", "9" * 4001, "--roles", "a", "--fillers", "b")),
        usage_error("gen-n-beyond-c-int", "int",
                    gen("--n", "3000000000", "--k", "1", "--roles", "a", "--fillers", "b")),
        usage_error("bench-huge-n", "int", ("bench", "--n", "9" * 4001)),
    ],
    # random seeds with abs(seed): -1 would silently repeat seed 1
    "test_a_negative_seed_is_a_usage_error": [
        usage_error("gen", "error: seed must be >= 0, got -1",
                    gen("--n", "16", "--k", "4", "--seed", "-1")),
        usage_error("encode", "error: seed must be >= 0, got -1",
                    encode("name=Pat", "--codec", "classic", "--seed", "-1")),
        usage_error("encode-ga", SEED_GA, encode("name=Pat", "--codec", "ga", "--seed", "-1")),
        usage_error("bench", "error: seed must be >= 0, got -1",
                    ("bench", "--n", "64", "--seed", "-1")),
    ],
    # encode: flags and pairs
    "test_classic_rejects_weights": [
        usage_error(None, WEIGHTS_CLASSIC,
                    encode("name=Pat", "--codec", "classic", "--weights", "2")),
    ],
    "test_encode_rejects_a_flag_the_codec_does_not_read": [
        usage_error("ga-empty-weights", "error: bad weight list ''",
                    encode("name=Pat", "--codec", "ga", "--weights=")),
        usage_error("classic-empty-weights", WEIGHTS_CLASSIC,
                    encode("name=Pat", "--codec", "classic", "--weights=")),
        usage_error("ga-seed-7", SEED_GA, encode("name=Pat", "--codec", "ga", "--seed=7")),
        usage_error("ga-seed-0", SEED_GA, encode("name=Pat", "--codec", "ga", "--seed=0")),
    ],
    "test_encode_bad_pair_syntax": [
        usage_error(None, "error: bad pair 'namePat', expected role=filler", encode("namePat")),
    ],
    "test_encode_rejects_non_finite_weights": [
        usage_error(weight, "is not finite", encode("name=Pat,sex=male", f"--weights=1,{weight}"))
        for weight in ["nan", "inf", "-inf"]
    ],
    "test_encode_rejects_a_weight_sum_that_overflows": [
        usage_error(None, "is not finite", encode("name=Pat,name=Pat", "--weights=1e308,1e308")),
    ],
    "test_long_flag_values_are_cut_in_error_text": [
        usage_error("--pairs", "bad pair 'xxx", encode("x" * 100_000)),
        usage_error("--weights", "bad weight list 'xxx",
                    encode("name=Pat", "--weights", "x" * 100_000)),
        usage_error("--role", "unknown role 'xxx", decode("x" * 100_000)),
    ],
    # decode: flags
    "test_decode_unknown_role": [
        usage_error(None, "error: unknown role 'hair'", decode("hair")),
    ],
    "test_decode_rejects_a_name_that_is_not_a_role": [
        usage_error("classic-unknown-role", "error: unknown role 'hair'", decode("hair"),
                    codec="classic"),
        *(
            usage_error(f"{codec}-filler-as-role", "error: unknown role 'Pat'", decode("Pat"),
                        codec=codec)
            for codec in ["ga", "classic"]
        ),
    ],
    "test_decode_rejects_a_non_finite_threshold": [
        usage_error(f"{threshold}-{codec}",
                    f"error: --threshold must be finite and >= 0, got {float(threshold)}",
                    decode("name", f"--threshold={threshold}"), codec=codec, pairs="name=Pat")
        for threshold in ["nan", "inf", "-1", "-0.5"]
        for codec in ["ga", "classic"]
    ],
    # missing and malformed files
    "test_missing_and_malformed_files": [
        usage_error(None, "error: [Errno 2] No such file or directory: 'absent.json'",
                    ("encode", "--in", "absent.json", "--pairs", "a=b", "--out", "out.json")),
        usage_error(None, "Expecting property name enclosed in double quotes", encode("a=b"),
                    table=lambda _: "{not json"),
        usage_error(None, "error: malformed symbol table: 'n'", encode("a=b"),
                    table=lambda _: "{}"),
    ],
    "test_deeply_nested_json_exits_2": [
        usage_error(name, "error: JSON nested too deeply", decode(),
                    **{name: lambda _: "[" * 100_000})
        for name in ["record", "table"]
    ],
    # numbers in files; json writes and reads NaN, and 400 nines overflow a float
    "test_decode_rejects_a_nan_coefficient": [
        usage_error(None, "is not finite", decode("sex"),
                    record=put("terms", 0, 0, value=float("nan"))),
    ],
    "test_number_overflow_in_input_files_exits_2": [
        usage_error("term-coefficient",
                    "error: malformed record: int too large to convert to float", decode(),
                    record=put("terms", 0, 0, value=int("9" * 400))),
        usage_error("record-n", f"{RECORD_N} inf", decode(), record=sub('"n": 64', '"n": 1e999')),
        usage_error("table-k-decode", f"{TABLE_K} inf", decode(),
                    table=sub('"k": 16', '"k": 1e999')),
        usage_error("table-k-encode", f"{TABLE_K} inf", encode(),
                    table=sub('"k": 16', '"k": 1e999')),
    ],
    "test_header_fields_must_be_json_integers": [
        usage_error("record-n-64.7", f"{RECORD_N} 64.7", decode(), record=put("n", value=64.7)),
        usage_error("record-n-64", f"{RECORD_N} '64'", decode(), record=put("n", value="64")),
        usage_error("record-n-64.0", f"{RECORD_N} 64.0", decode(), record=put("n", value=64.0)),
        usage_error("table-n-64",
                    "error: malformed symbol table: n must be a JSON int, got '64'", decode(),
                    table=put("n", value="64")),
        usage_error("table-k-16.5", f"{TABLE_K} 16.5", decode(), table=put("k", value=16.5)),
        usage_error("table-k-16", f"{TABLE_K} '16'", decode(), table=put("k", value="16")),
        # k=1 hosts one filler, and true would read as 1
        usage_error("table-k1-k-True", f"{TABLE_K} True", decode(), table=put("k", value=True),
                    k=1, fillers="Pat", pairs="name=Pat"),
    ],
    "test_record_coefficients_must_be_json_numbers": [
        usage_error(str(coefficient), "error: malformed record: coefficient must be a "
                    f"JSON int or float, got {coefficient!r}", decode(),
                    record=put("terms", 0, 0, value=coefficient))
        for coefficient in ["2", "1e3", True]
    ],
    "test_a_term_that_is_not_a_pair_is_a_malformed_record": [
        usage_error(name,
                    "error: malformed record: each term must be a [coefficient, literal] pair",
                    decode(), record=put("terms", value=[term]))
        for name, term in [("three-items", [1.0, "0" * 64, 3]), ("one-item", [1.0]),
                           ("string", "abc")]
    ],
    # dimensions in files; with no terms the record's n itself is checked
    "test_huge_dimensions_are_cut_in_error_text": [
        usage_error("record-n-high", "different algebras (n=64 vs n=1000", decode(),
                    record=edit_json(lambda obj: obj.update(n=10**4000, terms=[]))),
        usage_error("record-n-low", "dimension must be >= 1, got -1000", decode(),
                    record=edit_json(lambda obj: obj.update(n=-(10**4000), terms=[]))),
        usage_error("table-k", "filler bits k=1000", decode(), table=put("k", value=10**4000)),
    ],
    "test_a_zero_dimension_file_is_reported_by_its_dimension": [
        usage_error("table-empty-literals", ZERO, decode(), encode(), table=zero_table(""),
                    codec="classic", pairs="name=Pat"),
        usage_error("table-hex-literal", ZERO, decode(), encode(),
                    table=zero_table("0123456789abcdef"), codec="classic", pairs="name=Pat"),
        usage_error("classic-record", ZERO, decode(),
                    record=lambda _: json.dumps({"codec": "classic", "n": 0, "bits": ""}),
                    codec="classic", pairs="name=Pat"),
    ],
    # literals in files: int(literal, 16) would read each of these three
    "test_hex_literals_outside_0_9a_f_exit_2": [
        usage_error(literal, f"error: hex literal {literal!r} has characters outside 0-9a-fA-F",
                    encode(), decode(), table=put("fillers", "male", value=literal),
                    n=80, k=20, pairs="name=Pat")
        for literal in ["+2ce6000000000000000", "c_ce6000000000000000", " 2ce6000000000000000"]
    ],
    # the top nibble holds one position at n=81
    "test_a_hex_literal_wider_than_n_exits_2": [
        usage_error(None, "error: value 0x200000000000000000000 does not fit in 81 bits",
                    encode(), table=put("fillers", "male", value="2" + "0" * 20), n=81, k=20),
    ],
    # a blade named twice would double its term's score, or cancel it
    "test_record_naming_a_blade_twice_exits_2": [
        usage_error("same-literal", TWICE, decode(), n=16, k=4,
                    record=edit_json(lambda obj: obj["terms"].append(obj["terms"][0]))),
        usage_error("binary-and-hex", TWICE, decode(), n=16, k=4,
                    record=edit_json(lambda obj: obj["terms"].append(
                        [-obj["terms"][0][0], f"{int(obj['terms'][0][1], 2):04x}"]))),
    ],
    # an earlier copy of a key, which a last-one-wins reader would drop
    "test_repeated_json_keys_exit_2": [
        usage_error("table-fillers-male", "error: repeated JSON key 'male'", decode(),
                    table=repeat("male", "fillers")),
        usage_error("table-roles-sex", "error: repeated JSON key 'sex'", decode(),
                    table=repeat("sex", "roles")),
        usage_error("table-None-k", "error: repeated JSON key 'k'", decode(), table=repeat("k")),
        usage_error("record-None-codec", "error: repeated JSON key 'codec'", decode(),
                    record=repeat("codec")),
    ],
    # gen never writes a name that --pairs cannot spell; an edited table can hold one
    "test_a_table_name_that_pairs_cannot_spell_exits_2": [
        usage_error(f"{kind}-{name}-{message}", f"error: {message}", encode(pairs),
                    *([decode(name)] if kind == "roles" else [decode()]),
                    table=sub(f'"{old}": ', f'"{name}": '))
        for kind, name, old, pairs, message in [
            ("roles", "a=b", "sex", "a=b=male", "role name 'a=b' contains '='"),
            ("roles", "a,b", "sex", "a,b=male", "role name 'a,b' contains ','"),
            ("fillers", "x,y", "male", "sex=x,y", "filler name 'x,y' contains ','"),
            ("roles", " a", "sex", " a=male", "role name ' a' has outer whitespace"),
        ]
    ],
    # a long value in a file is cut where the error echoes it
    "test_long_file_values_are_cut_in_error_text": [
        usage_error("table-n-list", "n must be a JSON int, got [0, 0, ", decode(),
                    table=put("n", value=[0] * 200_000), bound=LONG),
        usage_error("filler-literal", "matches neither binary nor hex for n=64", decode(),
                    table=put("fillers", "male", value="0" * 1_000_000), bound=LONG),
        usage_error("record-codec", "unknown codec 'xxx", decode(),
                    record=put("codec", value="x" * 1_000_000), bound=LONG),
        usage_error("repeated-key", "repeated JSON key 'kkk", decode(),
                    table=repeat("male", "fillers", times=2, as_key="k" * 1_000_000),
                    bound=LONG),
    ],
}


def check_usage_error(capsys, monkeypatch, directory, commands, message, edits, bound, setup):
    """Run one row in directory; every command must fail the same way."""
    directory.mkdir(exist_ok=True)
    monkeypatch.chdir(directory)
    write_setup(capsys, directory, **setup)
    for name, edit in edits.items():
        (directory / name).write_text(edit((directory / name).read_text()))
    for argv in commands:
        err = assert_usage_error(capsys, *argv)
        if message.startswith("error: "):
            assert err == f"{message}\n"
        else:
            assert message in err
        assert len(err.encode()) <= bound
        assert sorted(os.listdir(directory)) == [RECORD, TABLE]


def usage_error_test(name, rows):
    """The test called name over rows: parametrized by their ids, or,
    where they have none, one test that checks each in a directory of
    its own."""
    if rows[0].id is None:
        def test(capsys, tmp_path, monkeypatch):
            for i, row in enumerate(rows):
                check_usage_error(capsys, monkeypatch, tmp_path / str(i), *row.values)
    else:
        @pytest.mark.parametrize("commands, message, edits, bound, setup", rows)
        def test(capsys, tmp_path, monkeypatch, commands, message, edits, bound, setup):
            check_usage_error(capsys, monkeypatch, tmp_path, commands, message, edits, bound,
                              setup)
    test.__name__ = name
    return test


for _name, _rows in USAGE_ERRORS.items():
    globals()[_name] = usage_error_test(_name, _rows)
