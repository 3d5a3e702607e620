"""Each walkthrough in demos/ prints exactly its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
