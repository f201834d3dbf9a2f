"""Byte-exact outputs of verify, gen, encode and decode.

The files under tests/golden were written by the CLI and are compared
byte for byte, so a refactor of the serializers or of the decode paths
cannot change an output unnoticed.  n=16 writes binary blade literals,
n=80 hex ones.  The classic record bundles two pairs, so its majority
vote pins the seeded tie coins as well.
"""

from pathlib import Path

import pytest

from bladebind.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


@pytest.mark.parametrize("argv, name", [
    (["verify"], "verify.txt"),
    (["verify", "--json"], "verify.json"),
])
def test_verify_output_is_pinned(capsys, argv, name):
    assert run(capsys, *argv) == (GOLDEN / name).read_text()


def test_written_files_and_decodes_are_pinned(capsys, tmp_path):
    decoded = []
    for n in (16, 80):
        table, ga, classic = (tmp_path / f"{kind}{n}.json" for kind in ("table", "ga", "classic"))
        run(capsys, "gen", "--n", str(n), "--k", str(n // 4), "--seed", "7",
            "--roles", "name,sex,age", "--fillers", "Pat,male,66", "--out", str(table))
        run(capsys, "encode", "--in", str(table), "--pairs", "name=Pat,sex=male,age=66",
            "--weights", "2,3,5", "--out", str(ga))
        run(capsys, "encode", "--in", str(table), "--codec", "classic",
            "--pairs", "name=Pat,sex=male", "--seed", "1", "--out", str(classic))
        for path in (table, ga, classic):
            assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name
        for record in (ga, classic):
            for role in ("name", "sex"):
                decoded.append(run(capsys, "decode", "--in", str(record),
                                   "--memory", str(table), "--role", role))
    assert "".join(decoded) == (GOLDEN / "decode.txt").read_text()
