"""Every demo script runs to completion and prints the bytes pinned in
``demos/expected``; demo 3's translation section prints the named view and
the images as pinned."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


def _run(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    # every byte as pinned in demos/expected
    expected = ROOT / "demos" / "expected" / (demo.stem + ".out")
    assert done.stdout == expected.read_text(encoding="utf-8")


DEMO_3_TRANSLATION = """\
== the translation for {[] p} |= p over w1 -> w2 ==
starred premises: ['xbox0__w0', 'xbox0__w1']
deltas at w1: ['((xbox0__w0 -> p__w1) * (p__w1 -> xbox0__w0))']
deltas at w2: ['((xbox0__w1 -> 1) * (1 -> xbox0__w1))']
conclusion: (p__w0 /\\ p__w1)
inlined for the LP: ['p__w1', '1'] |- (p__w0 /\\ p__w1)
"""


def test_demo_3_prints_the_named_translation():
    done = _run(ROOT / "demos" / "03_frame_decision.py")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    start = out.index("== the translation")
    end = out.index("\n", out.index("inlined for the LP:")) + 1
    assert out[start:end] == DEMO_3_TRANSLATION
