"""Bundles that an earlier commit wrote must keep loading and predicting.

tests/bundles holds an nb, an lr and an sgd bundle, and the predictions
CSV of each, written once by the CLI with SOURCE_DATE_EPOCH unset:

    verinews train --model M --in tests/golden_claims.csv \\
        --out tests/bundles/M.bundle --max-terms 200 --threads 1
    verinews predict --in tests/golden_claims.csv \\
        --model tests/bundles/M.bundle --out tests/bundles/M.predictions.csv

Nothing here writes them again. Each bundle must save back to its own
bytes after a load, and predict its committed CSV byte for byte, in this
process and under the CPU-dispatch settings of test_golden. Scoring is one
sparse product and an argmax, so this holds for lr too, although the lr
fit itself moves with CPU dispatch. A change that cannot keep reading
these files replaces them and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from verinews import cli
from verinews.persistence import load_bundle, save_bundle_bytes

from test_golden import DISPATCH, GOLDEN, GLIBC_OFF, NPY_OFF

BUNDLES = Path(__file__).with_name("bundles")
MODELS = ("nb", "lr", "sgd")

_CHILD_SNIPPET = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_committed_bundles
for model in test_committed_bundles.MODELS:
    test_committed_bundles._check(model, Path(sys.argv[2]))
"""


def _check(model: str, tmp_path: Path):
    blob = (BUNDLES / f"{model}.bundle").read_bytes()
    assert save_bundle_bytes(load_bundle(blob)) == blob
    out = tmp_path / f"{model}.predictions.csv"
    assert cli.main(["predict", "--in", str(GOLDEN), "--model", str(BUNDLES / f"{model}.bundle"),
                     "--out", str(out)]) == 0
    assert out.read_bytes() == (BUNDLES / f"{model}.predictions.csv").read_bytes()


@pytest.mark.parametrize("model", MODELS)
def test_committed_bundle_loads_saves_back_and_predicts_its_bytes(tmp_path, model):
    _check(model, tmp_path)


@pytest.mark.parametrize("setting", DISPATCH)
def test_committed_bundles_predict_their_bytes_under_cpu_dispatch(tmp_path, child_env, setting):
    env = {k: v for k, v in child_env.items() if k not in (*NPY_OFF, *GLIBC_OFF)} | DISPATCH[setting]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SNIPPET, str(Path(__file__).parent), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
