"""Pinned SHA-256 digests of the CLI outputs that CPU dispatch cannot change.

golden_claims.csv holds 300 labeled claims in the benchmark's CLAIM shape,
written once by bench/corpus_gen.py:

    CorpusGenerator(2323).split("golden", 300, 14, 0.2).csv(labeled=True)

prep reads the whole file. Each model trains on its first 200 rows and is
evaluated and predicts on the other 100, so the eval reports, and the
`report` renderings of the JSON ones, differ by model. Each model also
trains on those rows with the vocabulary pruning flags of PRUNING, which
drop terms there, and predicts the other 100. A digest that moves means an
output byte moved. The flow runs in
this process, and in child processes where numpy and glibc are told to
dispatch without some of the host's CPU features.

Not pinned (ROADMAP item 7): the LR bundle and the LR score columns.
np.exp and np.log in numpy, and exp and log1p in glibc, pick code paths by
CPU feature (AVX-512, FMA), and the LR weights move in their last bits
with them. The LR predicted labels are pinned.
"""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from verinews import cli, models

from test_models import _count_pools

GOLDEN = Path(__file__).with_name("golden_claims.csv")

DIGESTS = {
    "prep": "ada1f6f1b50954d0b712131f7b28a6e188ab1f80a2dee895a029474cfffe351a",
    "nb.bundle": "4d2fa7c372c10d7f5fef06d4f63935f9317b3bf61a0aec9fd179e81309c58fe5",
    "nb.eval.txt": "90160caaa8cbf32f0d04aff5404cdb70cba1d06384c4175614595be3342201f4",
    "nb.eval.json": "b92adfc6721d0d4a108ab357babaeb21f979e5ac816e300e2639ad9dc70c0c52",
    "nb.report.txt": "81aff04916b3d96f7f9c54bb924f49953527fd6a0f2e7c112b32d2672911994d",
    "nb.predictions.csv": "d5f9a407964b0793fd7a0cf38a53a8535df00b064cddf045bff0e3281c9d8895",
    "lr.eval.txt": "cfe89aaccf03dc1f92fc166d80474bd67594dce89840dcae9415354b1124f8b9",
    "lr.eval.json": "842c8f158956dc8eb73ba78516ce4124792c55a99dc57ef9ac6f28a6c1fdb05e",
    "lr.report.txt": "0b2533e83b781fe5fc9fe5fb64959aa455f60134fbdb35823c909f8007fcff32",
    "lr.predicted_label": "1c40185bcf0588e129de4e54ab23518febf5cc56795bebb411c0e958f48e3872",
    "sgd.bundle": "15212c66d0242e513b81fb348171ce86d9f00ae5d065762855c827c1c3475f05",
    "sgd.eval.txt": "d6e14aefacce02acfd5dd711acb1c49da1d2d21d1eedc0b798e8f9c909201c86",
    "sgd.eval.json": "56c89002173675f1160dcd14a87db4f181bee4f122965b050682698d2decfb33",
    "sgd.report.txt": "2d96aea5eb4c1c9dca516c26e9c1aeec7b874d8014381992630538b59a013945",
    "sgd.predictions.csv": "4b2a994100a291db4131b45521aac45d0da38a4eb5bf97786742db5966fe3454",
    "nb.min-df.bundle": "44b0f1295ca9cf310e9d5ec7bb4c1b401882c1b08108d2ff69f2917a8b6c61c5",
    "nb.min-df.predictions.csv": "7b2689ea3dbbf511faee02bd5a91f441e87e1372b68a47023503183fb9990c9c",
    "lr.min-df.predicted_label": "21bd2edaf1764e7f2c9262446def7bc24e25634e60c878aa1564dc96c558acbd",
    "sgd.min-df.bundle": "a6551a47aaa9715c594cb723f5b7f72f8d817f4f59ed4e0376ed3e1d1b20e0b6",
    "sgd.min-df.predictions.csv": "97c77cc303da0e2edbfd564ddd5727b2019bf80b88071ad3dc643cd2f93afd7c",
    "nb.max-df.bundle": "f8077df18a8721caaa275eea4cbf6769209c8226ad4809bea994e24c6fc6a33c",
    "nb.max-df.predictions.csv": "5b9761bd049f312afb969b8d43e357fb26203e5cf535fa00ba3e897f1cb6ddf6",
    "lr.max-df.predicted_label": "8202e34b59ec8b8a32c27dea5fb2ec11b6b3b25a3e9e13ccdce1ef2d233057fb",
    "sgd.max-df.bundle": "9b2da5271328afa058a5fd2a0426a59c220d1103d5b7cd951984a3a70ee78ab4",
    "sgd.max-df.predictions.csv": "79925125a119bb2964b2eb97323f5f0640e7d843231023fb24684a6e159a9efd",
}

# Pruning flags, by the name their outputs carry. On the 200 training rows
# min-df keeps 363 of 1155 terms and max-terms cuts among the df-2 ties to
# 200; max-df drops the 30 terms in more than 10 rows.
PRUNING = {
    "min-df": ["--min-df", "2", "--max-terms", "200"],
    "max-df": ["--max-df", "10"],
}


# Each setting turns off code paths that numpy (NPY_DISABLE_CPU_FEATURES)
# or glibc's libm (GLIBC_TUNABLES) would otherwise pick on a host with the
# feature. Names a host or numpy build lacks are accepted and change nothing.
NPY_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
GLIBC_OFF = {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"}
DISPATCH = {"numpy": NPY_OFF, "glibc": GLIBC_OFF, "numpy-glibc": {**NPY_OFF, **GLIBC_OFF}}

_CHILD_SNIPPET = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_golden
print(json.dumps(test_golden._digests(Path(sys.argv[2]), ["--threads", "1"])))
"""


def _outputs(tmp_path, threads: list[str]) -> dict[str, bytes]:
    def run(*argv, flags=threads) -> bytes:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main([*map(str, argv), *flags]) == 0
        return stdout.getvalue().encode("utf-8")

    header, *rows = GOLDEN.read_bytes().splitlines(keepends=True)
    assert len(rows) == 300  # one line per row: no cell holds a newline
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_bytes(b"".join([header, *rows[:200]]))
    test.write_bytes(b"".join([header, *rows[200:]]))

    outputs = {"prep": run("prep", "--in", GOLDEN)}
    for model in ("nb", "lr", "sgd"):
        bundle, preds = tmp_path / f"{model}.bundle", tmp_path / f"{model}.predictions.csv"
        run("train", "--model", model, "--in", train, "--out", bundle)
        for fmt in ("text", "json"):
            report = tmp_path / f"{model}.eval.{'txt' if fmt == 'text' else fmt}"
            run("eval", "--in", test, "--model", bundle, "--format", fmt, "--out", report)
            outputs[report.name] = report.read_bytes()
        outputs[f"{model}.report.txt"] = run("report", "--in", report, flags=[])  # report takes no --threads
        run("predict", "--in", test, "--model", bundle, "--out", preds)
        _keep(outputs, model, "", bundle, preds)
    for name, flags in PRUNING.items():
        for model in ("nb", "lr", "sgd"):
            bundle, preds = tmp_path / f"{model}.{name}.bundle", tmp_path / f"{model}.{name}.predictions.csv"
            run("train", "--model", model, "--in", train, "--out", bundle, *flags)
            run("predict", "--in", test, "--model", bundle, "--out", preds)
            _keep(outputs, model, f".{name}", bundle, preds)
    return outputs


def _keep(outputs: dict[str, bytes], model: str, tag: str, bundle: Path, preds: Path):
    """The bundle and predictions, or for lr the predicted_label column."""
    if model == "lr":
        labels = [row[1] for row in csv.reader(io.StringIO(preds.read_text(encoding="utf-8")))]
        outputs[f"lr{tag}.predicted_label"] = "\n".join(labels).encode("utf-8")
    else:
        outputs[bundle.name] = bundle.read_bytes()
        outputs[preds.name] = preds.read_bytes()


def _digests(tmp_path, threads: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _outputs(tmp_path, threads).items()}


def _check(digests: dict[str, str]):
    if digests != DIGESTS:
        lines = "".join(f'    "{name}": "{digest}",\n' for name, digest in digests.items())
        pytest.fail(f"output digests moved (numpy {np.__version__}, scipy {scipy.__version__}); now:\n{lines}")


@pytest.mark.parametrize("pooled", [False, True], ids=["threads-1", "sgd-pool"])
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, pooled):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    threads = ["--threads", "1"]
    if pooled:
        pools = _count_pools(monkeypatch)
        monkeypatch.setattr(models, "PARALLEL_MIN_DOCS", 100)
        monkeypatch.setattr(models, "default_workers", lambda: 2)
        threads = []
    digests = _digests(tmp_path, threads)
    if pooled:
        # One pool for each sgd fit: the plain one and one per PRUNING entry.
        assert pools == [2] * (1 + len(PRUNING))
    _check(digests)


@pytest.mark.parametrize("setting", DISPATCH)
def test_outputs_match_the_pinned_digests_under_cpu_dispatch(tmp_path, child_env, setting):
    unset = ("SOURCE_DATE_EPOCH", *NPY_OFF, *GLIBC_OFF)
    env = {k: v for k, v in child_env.items() if k not in unset} | DISPATCH[setting]
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SNIPPET, str(Path(__file__).parent), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    _check(json.loads(child.stdout.splitlines()[-1]))
