"""The seeded decode corpus matches its golden digests, run without numpy.

The corpus and its regeneration command are in tests/decode_corpus.py.
The child runs under `python -S`, so site-packages, and numpy with it,
cannot be imported.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_corpus_block_matches_its_golden_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tests" / "decode_corpus.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout == "20 blocks match decode_corpus.txt\n"
