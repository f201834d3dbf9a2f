"""Every deterministic output that README.md shows, checked against the code.

The `>>>` examples run as doctests.  A fenced block that starts with a
`$ bladebind` line is a transcript: its commands run in order, in-process,
in one fresh directory per block, and what each prints on stdout and
stderr must equal the lines under it, up to the next `$` line.  `bench`
timings depend on the host, so its lines are compared with every number
masked: by their labels.

This is not part of tests/decode_corpus.py because doctest imports
inspect, which that runner requires the package never to load.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from bladebind.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER = re.compile(r"\d+(\.\d+)?(e[+-]\d+)?")


def transcripts():
    """[(argv, shown lines), ...] for each transcript block."""
    text = README.read_text(encoding="utf-8")
    blocks = []
    for block in re.findall(r"^```\n(\$ bladebind .*?)^```$", text, re.M | re.S):
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:]), []))
            else:
                steps[-1][1].append(line)
        blocks.append(steps)
    return blocks


TRANSCRIPTS = transcripts()


def test_quick_start_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted and not failed


def test_the_transcripts_show_every_subcommand():
    shown = {argv[1] for steps in TRANSCRIPTS for argv, _ in steps}
    assert shown == {"gen", "encode", "decode", "verify", "bench"}


@pytest.mark.parametrize("steps", TRANSCRIPTS, ids=lambda steps: steps[0][0][1])
def test_transcript(steps, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, shown in steps:
        assert argv[0] == "bladebind"
        main(argv[1:])
        out = capsys.readouterr()
        printed = (out.out + out.err).splitlines()
        if argv[1] == "bench":
            printed = [NUMBER.sub("#", line) for line in printed]
            shown = [NUMBER.sub("#", line) for line in shown]
        assert printed == shown, shlex.join(argv)
