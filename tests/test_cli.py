"""Command-line round trips, exit codes, JSON reports."""

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


def gen_table(capsys, tmp_path, n=64, k=16, seed=7):
    path = tmp_path / "table.json"
    rc, _, _ = run(
        capsys, "gen", "--n", str(n), "--k", str(k), "--seed", str(seed),
        "--roles", "name,sex,age", "--fillers", "Pat,male,66",
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


def test_gen_is_deterministic(capsys, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        rc, _, _ = run(capsys, "gen", "--n", "32", "--k", "8", "--seed", "3",
                       "--out", str(p))
        assert rc == 0
    assert p1.read_text() == p2.read_text()


def test_gen_rejects_bad_k(capsys, tmp_path):
    rc, _, err = run(capsys, "gen", "--n", "8", "--k", "0",
                     "--out", str(tmp_path / "t.json"))
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize("roles", ["a,,b", "", "a, ,b", ",a"])
def test_gen_rejects_an_empty_name_and_writes_nothing(capsys, tmp_path, roles):
    out = tmp_path / "t.json"
    err = assert_usage_error(capsys, "gen", "--n", "16", "--k", "4", "--roles", roles,
                             "--out", str(out))
    assert "role name must be a nonempty string: ''" in err
    assert not out.exists()


def test_gen_rejects_a_role_name_that_pairs_cannot_name(capsys, tmp_path):
    # encode --pairs reads "a=b=x" as role "a", filler "b=x"
    out = tmp_path / "t.json"
    err = assert_usage_error(capsys, "gen", "--n", "16", "--k", "4", "--roles", "a=b,c",
                             "--out", str(out))
    assert "role name 'a=b' contains '='" in err
    assert not out.exists()
    # a filler name may hold "=": the role is split off at the first one
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


def test_classic_rejects_weights(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    rc, _, err = run(capsys, "encode", "--in", str(table), "--codec", "classic",
                     "--pairs", "name=Pat", "--weights", "2",
                     "--out", str(tmp_path / "r.json"))
    assert rc == 2 and "weights" in err


@pytest.mark.parametrize(
    "codec, flag, message",
    [
        ("ga", "--weights=", "bad weight list ''"),
        ("classic", "--weights=", "--weights applies to the ga codec only"),
        ("ga", "--seed=7", "--seed applies to the classic codec only"),
        ("ga", "--seed=0", "--seed applies to the classic codec only"),
    ],
    ids=["ga-empty-weights", "classic-empty-weights", "ga-seed-7", "ga-seed-0"],
)
def test_encode_rejects_a_flag_the_codec_does_not_read(capsys, tmp_path, codec, flag, message):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "r.json"
    err = assert_usage_error(capsys, "encode", "--in", str(table), "--codec", codec,
                             "--pairs", "name=Pat", flag, "--out", str(record))
    assert message in err
    assert not record.exists()


def test_classic_seed_defaults_to_zero(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    records = []
    for seed in ([], ["--seed", "0"]):
        records.append(tmp_path / f"r{len(records)}.json")
        rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", "classic",
                       "--pairs", "name=Pat,sex=male", *seed, "--out", str(records[-1]))
        assert rc == 0
    assert records[0].read_text() == records[1].read_text()


def test_encode_bad_pair_syntax(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    rc, _, err = run(capsys, "encode", "--in", str(table),
                     "--pairs", "namePat", "--out", str(tmp_path / "r.json"))
    assert rc == 2 and "role=filler" in err


def test_decode_unknown_role(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
        "--out", str(record))
    rc, _, err = run(capsys, "decode", "--in", str(record),
                     "--memory", str(table), "--role", "hair")
    assert rc == 2 and "unknown role" in err


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


def test_decode_rejects_a_nan_coefficient(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
        "--out", str(record))
    obj = json.loads(record.read_text())
    obj["terms"][0][0] = float("nan")
    record.write_text(json.dumps(obj))  # json writes and reads NaN
    rc, out, err = run(capsys, "decode", "--in", str(record),
                       "--memory", str(table), "--role", "sex")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not finite" in err


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_encode_rejects_non_finite_weights(capsys, tmp_path, weight):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, out, err = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
                       f"--weights=1,{weight}", "--out", str(record))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not finite" in err
    assert not record.exists()


def test_encode_rejects_a_weight_sum_that_overflows(capsys, tmp_path):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, out, err = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,name=Pat",
                       "--weights=1e308,1e308", "--out", str(record))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not finite" in err
    assert not record.exists()


def _replace_once(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "case", ["term-coefficient", "record-n", "table-k-decode", "table-k-encode"]
)
def test_number_overflow_in_input_files_exits_2(capsys, tmp_path, case):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
        "--out", str(record))
    if case == "term-coefficient":
        obj = json.loads(record.read_text())
        obj["terms"][0][0] = int("9" * 400)  # too large for a float
        record.write_text(json.dumps(obj))
    elif case == "record-n":
        _replace_once(record, '"n": 64', '"n": 1e999')
    else:
        _replace_once(table, '"k": 16', '"k": 1e999')
    if case == "table-k-encode":
        argv = ["encode", "--in", str(table), "--pairs", "name=Pat",
                "--out", str(tmp_path / "again.json")]
    else:
        argv = ["decode", "--in", str(record), "--memory", str(table), "--role", "name"]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def assert_usage_error(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
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


@pytest.mark.parametrize(
    "literal", ["+2ce6000000000000000", "c_ce6000000000000000", " 2ce6000000000000000"]
)
def test_hex_literals_outside_0_9a_f_exit_2(capsys, tmp_path, literal):
    table = gen_table(capsys, tmp_path, n=80, k=20)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    obj = json.loads(table.read_text())
    obj["fillers"]["male"] = literal  # int(literal, 16) fits the filler support
    table.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                             "--out", str(tmp_path / "again.json"))
    assert "0-9a-fA-F" in err
    assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                       "--role", "name")


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("record", "n", 64.7),
        ("record", "n", "64"),
        ("record", "n", 64.0),
        ("table", "n", "64"),
        ("table", "k", 16.5),
        ("table", "k", "16"),
        ("table-k1", "k", True),
    ],
)
def test_header_fields_must_be_json_integers(capsys, tmp_path, where, key, value):
    if where == "table-k1":  # k=1 hosts one filler, and true would read as 1
        table = tmp_path / "table.json"
        run(capsys, "gen", "--n", "64", "--k", "1", "--roles", "name",
            "--fillers", "Pat", "--out", str(table))
    else:
        table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    path = record if where == "record" else table
    obj = json.loads(path.read_text())
    obj[key] = value
    path.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert f"{key} must be a JSON int" in err


@pytest.mark.parametrize("coefficient", ["2", "1e3", True])
def test_record_coefficients_must_be_json_numbers(capsys, tmp_path, coefficient):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
        "--out", str(record))
    obj = json.loads(record.read_text())
    obj["terms"][0][0] = coefficient
    record.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert "coefficient must be a JSON int or float" in err


@pytest.mark.parametrize(
    "row", [[1.0, "0" * 64, 3], [1.0], "abc"], ids=["three-items", "one-item", "string"]
)
def test_a_term_that_is_not_a_pair_is_a_malformed_record(capsys, tmp_path, row):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat", "--out", str(record))
    obj = json.loads(record.read_text())
    obj["terms"] = [row]
    record.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert err.startswith("error: malformed record:")


def test_a_hex_literal_wider_than_n_exits_2(capsys, tmp_path):
    table = gen_table(capsys, tmp_path, n=81, k=20)
    obj = json.loads(table.read_text())
    obj["fillers"]["male"] = "2" + "0" * 20  # the top nibble holds one position at n=81
    table.write_text(json.dumps(obj))
    record = tmp_path / "record.json"
    err = assert_usage_error(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                             "--out", str(record))
    assert "does not fit in 81 bits" in err
    assert not record.exists()


@pytest.mark.parametrize("codec", ["ga", "classic"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "-0.5"])
def test_decode_rejects_a_non_finite_threshold(capsys, tmp_path, threshold, codec):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", codec,
                   "--pairs", "name=Pat", "--out", str(record))
    assert rc == 0
    rc, out, err = run(capsys, "decode", "--in", str(record), "--memory", str(table),
                       "--role", "name", f"--threshold={threshold}")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--threshold" in err


@pytest.mark.parametrize("which", ["record", "table"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, which):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    (record if which == "record" else table).write_text("[" * 100_000)
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "where, inside, key",
    [
        ("table", "fillers", "male"),
        ("table", "roles", "sex"),
        ("table", None, "k"),
        ("record", None, "codec"),
    ],
)
def test_repeated_json_keys_exit_2(capsys, tmp_path, where, inside, key):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
                   "--out", str(record))
    assert rc == 0
    path = table if where == "table" else record
    obj = json.loads(path.read_text())
    # an earlier copy of the key, which a last-one-wins reader would drop
    value = (obj[inside] if inside else obj)[key]
    opening = f'"{inside}": {{' if inside else "{"
    _replace_once(path, opening, f"{opening}{json.dumps(key)}: {json.dumps(value)}, ")
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert f"repeated JSON key {key!r}" in err


@pytest.mark.parametrize("spelling", ["same-literal", "binary-and-hex"])
def test_record_naming_a_blade_twice_exits_2(capsys, tmp_path, spelling):
    table = gen_table(capsys, tmp_path, n=16, k=4)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male",
                   "--out", str(record))
    assert rc == 0
    obj = json.loads(record.read_text())
    coeff, literal = obj["terms"][0]
    if spelling == "same-literal":  # would double the term's score
        obj["terms"].append([coeff, literal])
    else:  # would cancel the term
        obj["terms"].append([-coeff, f"{int(literal, 2):04x}"])
    record.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert "twice" in err


@pytest.mark.parametrize(
    "case", ["table-n-list", "filler-literal", "record-codec", "repeated-key"]
)
def test_long_file_values_are_cut_in_error_text(capsys, tmp_path, case):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    path = record if case == "record-codec" else table
    obj = json.loads(path.read_text())
    if case == "table-n-list":
        obj["n"] = [0] * 200_000
    elif case == "filler-literal":
        obj["fillers"]["male"] = "0" * 1_000_000
    elif case == "record-codec":
        obj["codec"] = "x" * 1_000_000
    path.write_text(json.dumps(obj))
    if case == "repeated-key":
        entry = f'"{"k" * 1_000_000}": "{obj["fillers"]["male"]}", '
        _replace_once(path, '"fillers": {', '"fillers": {' + 2 * entry)
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("flag", ["--pairs", "--weights", "--role"])
def test_long_flag_values_are_cut_in_error_text(capsys, tmp_path, flag):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    value = "x" * 100_000
    if flag == "--role":
        rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                       "--out", str(record))
        assert rc == 0
        argv = ["decode", "--in", str(record), "--memory", str(table), "--role", value]
    else:
        pairs = value if flag == "--pairs" else "name=Pat"
        argv = ["encode", "--in", str(table), "--pairs", pairs, "--out", str(record)]
        if flag == "--weights":
            argv += ["--weights", value]
    err = assert_usage_error(capsys, *argv)
    assert len(err.encode()) <= 140


@pytest.mark.parametrize(
    "kind, name, message",
    [
        ("roles", "a=b", "role name 'a=b' contains '='"),
        ("roles", "a,b", "role name 'a,b' contains ','"),
        ("fillers", "x,y", "filler name 'x,y' contains ','"),
        ("roles", " a", "role name ' a' has outer whitespace"),
    ],
)
def test_a_table_name_that_pairs_cannot_spell_exits_2(capsys, tmp_path, kind, name, message):
    # gen never writes such a name; a table file edited after gen can hold one
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    obj = json.loads(table.read_text())
    obj[kind][name] = obj[kind].pop("sex" if kind == "roles" else "male")
    table.write_text(json.dumps(obj))
    out = tmp_path / "new.json"
    pairs, role = (f"{name}=male", name) if kind == "roles" else (f"sex={name}", "name")
    for argv in (
        ["encode", "--in", str(table), "--pairs", pairs, "--out", str(out)],
        ["decode", "--in", str(record), "--memory", str(table), "--role", role],
    ):
        err = assert_usage_error(capsys, *argv)
        assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["record-n-high", "record-n-low", "table-k"])
def test_huge_dimensions_are_cut_in_error_text(capsys, tmp_path, case):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat",
                   "--out", str(record))
    assert rc == 0
    path = table if case == "table-k" else record
    obj = json.loads(path.read_text())
    if case == "table-k":
        obj["k"] = 10**4000
    else:  # no terms, so the dimension itself is what gets checked
        obj["n"] = 10**4000 if case == "record-n-high" else -(10**4000)
        obj["terms"] = []
    path.write_text(json.dumps(obj))
    err = assert_usage_error(capsys, "decode", "--in", str(record), "--memory", str(table),
                             "--role", "name")
    assert len(err.encode()) <= 140


@pytest.mark.parametrize("case", ["table-empty-literals", "table-hex-literal", "classic-record"])
def test_a_zero_dimension_file_is_reported_by_its_dimension(capsys, tmp_path, case):
    table = gen_table(capsys, tmp_path)
    record = tmp_path / "record.json"
    rc, _, _ = run(capsys, "encode", "--in", str(table), "--codec", "classic",
                   "--pairs", "name=Pat", "--out", str(record))
    assert rc == 0
    commands = [("decode", "--in", str(record), "--memory", str(table), "--role", "name")]
    if case == "classic-record":
        record.write_text(json.dumps({"codec": "classic", "n": 0, "bits": ""}))
    else:
        literal = "" if case == "table-empty-literals" else "0123456789abcdef"
        table.write_text(json.dumps(
            {"n": 0, "k": 0, "roles": {"name": literal}, "fillers": {"Pat": literal}}
        ))
        commands.append(("encode", "--in", str(table), "--pairs", "name=Pat",
                         "--out", str(tmp_path / "again.json")))
    for argv in commands:
        err = assert_usage_error(capsys, *argv)
        assert err == "error: dimension must be >= 1, got 0\n"


def test_missing_and_malformed_files(capsys, tmp_path):
    rc, _, err = run(capsys, "encode", "--in", str(tmp_path / "absent.json"),
                     "--pairs", "a=b", "--out", str(tmp_path / "r.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "encode", "--in", str(bad),
                     "--pairs", "a=b", "--out", str(tmp_path / "r.json"))
    assert rc == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    rc, _, err = run(capsys, "encode", "--in", str(empty),
                     "--pairs", "a=b", "--out", str(tmp_path / "r.json"))
    assert rc == 2


def test_verify_passes_and_reports(capsys):
    rc, out, _ = run(capsys, "verify")
    assert rc == 0
    assert "verification: PASS" in out
    assert "32" in out  # the pinned trace value


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["passed"] is True


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


@pytest.mark.parametrize("n", ["0", "3"])
def test_bench_rejects_a_too_small_size_at_once(tmp_path, src_env, n):
    # a child process with a timeout: at n=0 a blade pool that never
    # fills would hang the test run itself
    proc = subprocess.run(
        [sys.executable, "-m", "bladebind", "bench", "--n", n],
        cwd=tmp_path, env=src_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_bench_checks_every_size_before_timing(capsys, monkeypatch):
    def no_timing(n, seed):
        raise AssertionError(f"timed n={n} before checking every size")

    monkeypatch.setattr(bench, "_bench_products", no_timing)
    rc, out, err = run(capsys, "bench", "--n", "64", "--n", "3")
    assert rc == 2
    assert out == ""
    assert err == "error: n=3, k=1 cannot host 6 distinct symbols\n"


HUGE = "9" * 4001  # digits; int() still parses it, but 1 << HUGE overflows


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", HUGE, "--k", "1", "--roles", "a", "--fillers", "b"],
        ["gen", "--n", "5", "--k", HUGE, "--roles", "a", "--fillers", "b"],
        ["gen", "--n", "3000000000", "--k", "1", "--roles", "a", "--fillers", "b"],
        ["bench", "--n", HUGE],
    ],
    ids=["gen-huge-n", "gen-huge-k", "gen-n-beyond-c-int", "bench-huge-n"],
)
def test_a_huge_size_is_one_short_error_line(capsys, tmp_path, argv):
    # no 2^n is built and no traceback escapes; the echoed size is cut
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "t.json")]
    err = assert_usage_error(capsys, *argv)
    assert len(err.encode()) <= 140
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "encode", "encode-ga", "bench"])
def test_a_negative_seed_is_a_usage_error(capsys, tmp_path, command):
    # Random seeds with abs(seed): -1 would silently repeat seed 1
    out = tmp_path / "out.json"
    message = "seed must be >= 0, got -1"
    if command == "gen":
        argv = ["gen", "--n", "16", "--k", "4", "--out", str(out)]
    elif command.startswith("encode"):
        table = gen_table(capsys, tmp_path)
        codec = "ga" if command == "encode-ga" else "classic"
        argv = ["encode", "--in", str(table), "--codec", codec,
                "--pairs", "name=Pat", "--out", str(out)]
        if codec == "ga":
            message = "--seed applies to the classic codec only"
    else:
        argv = ["bench", "--n", "64"]
    err = assert_usage_error(capsys, *argv, "--seed", "-1")
    assert err == f"error: {message}\n"
    assert not out.exists()


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
