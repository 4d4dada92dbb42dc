"""Smoke test: every demo script runs to completion and prints something,
and the README's library example prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_library_example():
    # a print line's comment holds its expected output, one line per " / "
    # part; a part ending in "..." is a prefix
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = []
    for line in code.splitlines():
        if line.lstrip().startswith("print(") and "#" in line:
            expected += [part.strip() for part in line.split("#", 1)[1].split(" / ")]
    assert len(expected) == 5
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
