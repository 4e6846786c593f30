import os
from pathlib import Path

import pytest

import verinews


@pytest.fixture
def child_env():
    """os.environ with the directory that holds the package under test first
    on PYTHONPATH and the inherited entries made absolute, so a child
    interpreter started from any directory imports this checkout."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(verinews.__file__).resolve().parent.parent)]
        + [os.path.abspath(entry) for entry in inherited if entry]
    )
    return env
