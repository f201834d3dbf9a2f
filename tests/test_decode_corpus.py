"""The decode corpus and the golden CLI files match, run without numpy.

tests/decode_corpus.py checks the corpus digests, the classic encodes
and decodes against their references and the golden CLI files, imports
every module and runs `bench`, and holds the corpus's regeneration
command.  The child runs under `python -S`, so site-packages, and numpy
with it, cannot be imported; the runner also reports numpy, dataclasses
or inspect if any module loads them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_corpus_block_matches_its_golden_digest(src_env):
    child = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tests" / "decode_corpus.py")],
        env=src_env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert child.stdout == "20 blocks match decode_corpus.txt, and 9 golden CLI files match\n"
