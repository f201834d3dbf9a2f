"""The package runs without numpy: gen, encode and decode never import numpy,
dataclasses or inspect, every module imports with numpy blocked, and verify and
bench run to completion without it.

The children run under `python -S`, so site-packages, and numpy with it, cannot
be imported at all; the numpy-blocked ones also set sys.modules["numpy"] = None,
so that any import of numpy fails even where it is installed on the path."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Runs `python -m bladebind <argv...>` and reports, at interpreter exit,
# which of numpy, dataclasses and inspect were ever imported.
CLI_PROBE = """
import atexit, runpy, sys
unwanted = ("numpy", "dataclasses", "inspect")
atexit.register(
    lambda: print("loaded:", *[m for m in unwanted if m in sys.modules], file=sys.stderr)
)
sys.argv = ["bladebind", *sys.argv[1:]]
runpy.run_module("bladebind", run_name="__main__", alter_sys=True)
"""

# Runs `python -m bladebind <argv...>` with every import of numpy failing.
NO_NUMPY_PROBE = """
import runpy, sys
sys.modules["numpy"] = None
sys.argv = ["bladebind", *sys.argv[1:]]
runpy.run_module("bladebind", run_name="__main__", alter_sys=True)
"""

# Imports every module of the package with every import of numpy failing.
NO_NUMPY_IMPORTS = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import bladebind
for info in pkgutil.iter_modules(bladebind.__path__):
    importlib.import_module(f"bladebind.{info.name}")
    print(info.name)
"""


def python(*argv, cwd, env):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


def run_cli(tmp_path, env, *argv):
    proc = python("-S", "-c", CLI_PROBE, *argv, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "loaded:"
    return proc.stdout


@pytest.mark.parametrize(
    "codec, n, k",
    [
        pytest.param("ga", 256, 64, id="ga"),
        pytest.param("classic", 256, 64, id="classic"),
        pytest.param("ga", 10_000, 2_500, id="ga-n10000"),
        pytest.param("classic", 10_000, 2_500, id="classic-n10000"),
    ],
)
def test_gen_encode_decode_never_import_numpy(tmp_path, src_env, codec, n, k):
    run_cli(tmp_path, src_env, "gen", "--n", str(n), "--k", str(k), "--seed", "3",
            "--roles", "a,b,c,d", "--fillers", "s,t,u,v,w,x,y,z", "--out", "t.json")
    options = ["--weights", "1,-2,0.5,3"] if codec == "ga" else ["--seed", "4"]
    run_cli(tmp_path, src_env, "encode", "--in", "t.json", "--codec", codec,
            "--pairs", "a=x,b=s,c=z,d=u", *options, "--out", "r.json")
    for role, filler in zip("abcd", "xszu"):
        out = run_cli(tmp_path, src_env, "decode", "--in", "r.json", "--memory", "t.json",
                      "--role", role)
        assert out.startswith(f"role={role} filler={filler} ")
    if codec == "ga":  # each of the other three pairs leaves one term behind
        report = json.loads(run_cli(tmp_path, src_env, "decode", "--in", "r.json",
                                    "--memory", "t.json", "--role", "b", "--json"))
        assert report["residual_terms"] == 3


def test_every_module_imports_without_numpy(tmp_path, src_env):
    proc = python("-S", "-c", NO_NUMPY_IMPORTS, cwd=tmp_path, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert {"bench", "cartan", "cli", "reference", "verify"} <= set(proc.stdout.split())


@pytest.mark.parametrize("argv", [["verify"], ["bench", "--n", "64"]])
def test_verify_and_bench_run_without_numpy(tmp_path, src_env, argv):
    proc = python("-S", "-c", NO_NUMPY_PROBE, *argv, cwd=tmp_path, env=src_env)
    assert proc.returncode == 0, proc.stderr
    if argv == ["verify"]:
        assert proc.stdout == (ROOT / "tests" / "golden" / "verify.txt").read_text()
