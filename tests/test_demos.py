"""Smoke tests: every narrative demo runs to the end, warning-clean, and prints something,
and the README quick tour prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    assert run_python(str(demo)).strip()


def test_readme_quick_tour_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = run_python("-c", tour).splitlines()
    # 0.6|00..> + 0.8|11..> on the nuclei (sites n0 e0 n1 e1 tip); the dump
    # ends in a newline, so print leaves an empty line after it.
    assert lines[:3] == ["00000 0.6 0.0", "10100 0.8 0.0", ""]
    assert float(lines[3]) == 1.0  # ancilla purity
    assert float(lines[4]) == pytest.approx(7.56e-05, rel=1e-12)  # wall time, s
    assert len(lines) == 5
