"""Each demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path, child_env):
    # From a scratch directory, so the package comes from child_env's path.
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path, env=child_env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
