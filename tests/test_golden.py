"""Pinned SHA-256 digests of the CLI outputs that CPU dispatch cannot change.

golden_claims.csv holds 300 labeled claims in the benchmark's CLAIM shape,
written once by bench/corpus_gen.py:

    CorpusGenerator(2323).split("golden", 300, 14, 0.2).csv(labeled=True)

prep reads the whole file. Each model trains on its first 200 rows and is
evaluated and predicts on the other 100, so the eval reports differ by
model. A digest that moves means an output byte moved.

Not pinned (ROADMAP item 7): the LR bundle and the LR score columns.
np.exp and np.log in numpy, and exp and log1p in glibc, pick code paths by
CPU feature (AVX-512, FMA), and the LR weights move in their last bits
with them. The LR predicted labels are pinned.
"""

import csv
import hashlib
import io
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
    "nb.predictions.csv": "d5f9a407964b0793fd7a0cf38a53a8535df00b064cddf045bff0e3281c9d8895",
    "lr.eval.txt": "cfe89aaccf03dc1f92fc166d80474bd67594dce89840dcae9415354b1124f8b9",
    "lr.eval.json": "842c8f158956dc8eb73ba78516ce4124792c55a99dc57ef9ac6f28a6c1fdb05e",
    "lr.predicted_label": "1c40185bcf0588e129de4e54ab23518febf5cc56795bebb411c0e958f48e3872",
    "sgd.bundle": "15212c66d0242e513b81fb348171ce86d9f00ae5d065762855c827c1c3475f05",
    "sgd.eval.txt": "d6e14aefacce02acfd5dd711acb1c49da1d2d21d1eedc0b798e8f9c909201c86",
    "sgd.eval.json": "56c89002173675f1160dcd14a87db4f181bee4f122965b050682698d2decfb33",
    "sgd.predictions.csv": "4b2a994100a291db4131b45521aac45d0da38a4eb5bf97786742db5966fe3454",
}


def _outputs(tmp_path, capsys, threads: list[str]) -> dict[str, bytes]:
    def run(*argv):
        assert cli.main([*map(str, argv), *threads]) == 0

    header, *rows = GOLDEN.read_bytes().splitlines(keepends=True)
    assert len(rows) == 300  # one line per row: no cell holds a newline
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_bytes(b"".join([header, *rows[:200]]))
    test.write_bytes(b"".join([header, *rows[200:]]))

    capsys.readouterr()
    run("prep", "--in", GOLDEN)
    outputs = {"prep": capsys.readouterr().out.encode("utf-8")}
    for model in ("nb", "lr", "sgd"):
        bundle, preds = tmp_path / f"{model}.bundle", tmp_path / f"{model}.predictions.csv"
        run("train", "--model", model, "--in", train, "--out", bundle)
        for fmt in ("text", "json"):
            report = tmp_path / f"{model}.eval.{'txt' if fmt == 'text' else fmt}"
            run("eval", "--in", test, "--model", bundle, "--format", fmt, "--out", report)
            outputs[report.name] = report.read_bytes()
        run("predict", "--in", test, "--model", bundle, "--out", preds)
        if model == "lr":
            labels = [row[1] for row in csv.reader(io.StringIO(preds.read_text(encoding="utf-8")))]
            outputs["lr.predicted_label"] = "\n".join(labels).encode("utf-8")
        else:
            outputs[bundle.name] = bundle.read_bytes()
            outputs[preds.name] = preds.read_bytes()
    return outputs


@pytest.mark.parametrize("pooled", [False, True], ids=["threads-1", "sgd-pool"])
def test_outputs_match_the_pinned_digests(tmp_path, monkeypatch, capsys, pooled):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    monkeypatch.delenv(cli.THREADS_ENV, raising=False)
    threads = ["--threads", "1"]
    if pooled:
        pools = _count_pools(monkeypatch)
        monkeypatch.setattr(models, "PARALLEL_MIN_DOCS", 100)
        monkeypatch.setattr(models, "default_workers", lambda: 2)
        threads = []
    outputs = _outputs(tmp_path, capsys, threads)
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    if pooled:
        assert pools == [2]
    if digests != DIGESTS:
        lines = "".join(f'    "{name}": "{digest}",\n' for name, digest in digests.items())
        pytest.fail(f"output digests moved (numpy {np.__version__}, scipy {scipy.__version__}); now:\n{lines}")
