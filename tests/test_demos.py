"""Every demo script runs to completion against the package, and the
walkthrough's output is pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import setshaping

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


WALKTHROUGH_STDOUT = """\
length-2 strings, content ascending:
  rank 0: 11  I = 0.0000
  rank 1: 00  I = 0.0000
  rank 2: 01  I = 2.0000
  rank 3: 10  I = 2.0000

length-3 strings, content ascending:
  rank 0: 111  I = 0.0000  (image)
  rank 1: 000  I = 0.0000  (image)
  rank 2: 011  I = 2.7549  (image)
  rank 3: 101  I = 2.7549  (image)
  rank 4: 110  I = 2.7549  (never produced)
  rank 5: 001  I = 2.7549  (never produced)
  rank 6: 010  I = 2.7549  (never produced)
  rank 7: 100  I = 2.7549  (never produced)

shape pairs rank r of length 2 with rank r of length 3:
  11 -> 111 -> 11
  00 -> 000 -> 00
  01 -> 011 -> 01
  10 -> 101 -> 10

cut after 4 strings of length 3:
  whole classes admitted: [(0, 3), (3, 0)]
  last admitted class: (1, 2), 2 of its 3 strings
  highest admitted content: 2.7549
  lowest excluded content:  2.7549

010 in image: False
unshape rejects it: rank 6 exceeds the 4 images of length-2 strings
"""


def run_demo(script):
    src = str(Path(setshaping.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr


def test_walkthrough_output_is_pinned():
    script = next(p for p in DEMOS if p.name == "shaping_walkthrough.py")
    assert run_demo(script).stdout == WALKTHROUGH_STDOUT
