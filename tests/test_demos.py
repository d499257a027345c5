"""Each demo prints exactly its golden stdout under ``tests/data/demos``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import efp

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_matches_golden(demo):
    # The child interpreter imports the same efp as this one.
    src = str(Path(efp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo}.txt").read_bytes()
