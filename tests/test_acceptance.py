"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The golden fixtures here are frozen reference values: the 4x4 grid with
row sums 315/210/56/31 (total 612) and the per-class F1 vectors whose
macro means must come out at 32.25% / 26.5% / 27.5%. The full-corpus
reproduction criterion is conditional: it runs only when
VERINEWS_DATA_DIR points at labeled train.csv/test.csv files.
"""

import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from csr_rows import csr_rows
from test_models import brute_force_nb_optimal

import verinews
from verinews.corpus import Label, parse_csv, to_documents
from verinews.features import build_vocabulary, featurize, fit_idf
from verinews.metrics import (
    Confusion,
    class_metrics,
    macro_average,
    pct_int,
    render_confusion,
)
from verinews.models import (
    TrainConfig,
    decision_scores,
    logistic_objective,
    lr_fit,
    nb_fit,
    predict_labels,
    sgd_fit,
)
from verinews.persistence import ModelBundle, load_bundle, save_bundle_bytes
from verinews.pipeline import evaluate_bundle, train_bundle
from verinews.textprep import CleanDoc, PipelineConfig

GOLDEN_CELLS = np.array(
    [
        [270, 13, 27, 5],
        [124, 29, 52, 5],
        [38, 5, 13, 0],
        [26, 0, 5, 0],
    ]
)

GOLDEN_CELL_STRINGS = [
    "270 44.12%", "13 2.12%", "27 4.41%", "5 0.82%",
    "124 20.26%", "29 4.74%", "52 8.50%", "5 0.82%",
    "38 6.21%", "5 0.82%", "13 2.12%", "0 0.00%",
    "26 4.25%", "0 0.00%", "5 0.82%", "0 0.00%",
]

PER_CLASS_F1 = {
    "nb": [0.72, 0.27, 0.30, 0.00],
    "lr": [0.71, 0.19, 0.16, 0.00],
    "sgd": [0.70, 0.23, 0.17, 0.00],
}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] FAIL  {name}", flush=True)
        raise
    print(f"[ACCEPTANCE] PASS  {name}", flush=True)


def round_half_down(x):
    return math.ceil(x - 0.5)


def test_macro_aggregation_consistency():
    with criterion("macro-F1 aggregation consistency"):
        macros = {kind: macro_average(f1s) for kind, f1s in PER_CLASS_F1.items()}
        assert macros["nb"] == pytest.approx(0.3225, abs=1e-12)
        assert macros["lr"] == pytest.approx(0.265, abs=1e-12)
        assert macros["sgd"] == pytest.approx(0.275, abs=1e-12)
        # the headline integers match under half-down rounding of the
        # two exact .5 cases (26.5 -> 26, 27.5 -> 27); documented choice
        assert round_half_down(100 * macros["nb"]) == 32
        assert round_half_down(100 * macros["lr"]) == 26
        assert round_half_down(100 * macros["sgd"]) == 27


def test_reference_grid_cross_checks():
    with criterion("reference confusion grid cross-check suite"):
        conf = Confusion(cells=GOLDEN_CELLS)
        assert conf.total == 612

        rendered = render_confusion(conf, "reference")
        assert rendered.rstrip().endswith("Accuracy=50.980")

        false = class_metrics(conf, Label.FALSE)
        assert pct_int(false.precision) == 59
        assert pct_int(false.recall) == 86
        assert pct_int(false.f1) == 70

        found = re.findall(r"\d+ \d+\.\d{2}%", rendered)
        assert found == GOLDEN_CELL_STRINGS


def test_nb_matches_probability_space_oracle():
    with criterion("NB log-space vs probability-space oracle (1000 corpora)"):
        rng = np.random.default_rng(20240917)
        mismatches = 0
        for _ in range(1000):
            n_docs = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 7))
            n_classes = int(rng.integers(1, 4))
            counts = rng.integers(0, 4, size=(n_docs, dim)).tolist()
            labels = [int(c) for c in rng.integers(0, n_classes, size=n_docs)]
            X = csr_rows([dict(enumerate(row)) for row in counts], dim)
            model = nb_fit(X, [Label(c) for c in labels])
            probes = [rng.integers(0, 4, size=dim).tolist() for _ in range(10)]
            scores = decision_scores(model, csr_rows([dict(enumerate(p)) for p in probes], dim))
            for probe, got in zip(probes, predict_labels(scores)):
                optimal = brute_force_nb_optimal(counts, labels, probe, model.alpha, 4)
                mismatches += int(got) not in optimal
        assert mismatches == 0


def test_tfidf_reference_weights_and_unit_norms():
    with criterion("TF-IDF hand values and unit norms (10000 docs)"):
        corpus = [
            CleanDoc(id="1", tokens=("cat", "dog")),
            CleanDoc(id="2", tokens=("dog",)),
        ]
        vocab = build_vocabulary(corpus)
        idf = fit_idf(corpus, vocab)
        v = featurize(corpus[:1], vocab, idf).toarray()[0]
        assert v[vocab.term_to_index["cat"]] == pytest.approx(0.81481, abs=1e-5)
        assert v[vocab.term_to_index["dog"]] == pytest.approx(0.57973, abs=1e-5)

        rng = np.random.default_rng(7)
        terms = [f"t{i:02d}" for i in range(40)]
        pool = [
            CleanDoc(
                id=str(i),
                tokens=tuple(rng.choice(terms, size=int(rng.integers(0, 12)))),
            )
            for i in range(400)
        ]
        big_vocab = build_vocabulary(pool)
        big_idf = fit_idf(pool, big_vocab)
        X = featurize([pool[i % len(pool)] for i in range(10_000)], big_vocab, big_idf)
        # Each row's norm summed over that row alone.
        bounds = zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist())
        norms = np.array([np.linalg.norm(X.data[lo:hi]) for lo, hi in bounds])
        nonempty = np.diff(X.indptr) > 0
        assert np.all(np.abs(norms[nonempty] - 1.0) <= 1e-9)
        assert np.count_nonzero(nonempty) > 5000


def test_lr_gradient_matches_finite_differences():
    with criterion("LR analytic gradient vs central differences (100 points)"):
        rng = np.random.default_rng(99)
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            n, dim = 8, 20
            rows = []
            for _ in range(n):
                cols = rng.choice(dim, size=int(rng.integers(2, 6)), replace=False)
                rows.append({int(c): float(rng.uniform(0.1, 2.0)) for c in cols})
            X = csr_rows(rows, dim)
            y_pm = np.where(rng.integers(0, 2, size=n) == 1, 1.0, -1.0)
            z = rng.normal(size=dim + 1)
            _, grad = logistic_objective(z, X, y_pm, 100.0)
            fd = np.empty_like(z)
            for i in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (
                    logistic_objective(zp, X, y_pm, 100.0)[0]
                    - logistic_objective(zm, X, y_pm, 100.0)[0]
                ) / (2 * h)
            rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
            worst = max(worst, rel)
        assert worst < 1e-6


_SGD_SNIPPET = """
import hashlib
import numpy as np
from verinews.corpus import Label
from verinews.features import CSR, stack
from verinews.models import TrainConfig, sgd_fit

rows = CSR(
    data=np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 1.0]),
    indices=np.array([0, 2, 1, 2, 0, 1, 2]),
    indptr=np.array([0, 2, 4, 6, 7]),
    shape=(4, 3),
)
X = stack([rows] * 5)
y = [Label.FALSE, Label.TRUE, Label.FALSE, Label.PARTIALLY_FALSE] * 5
m = sgd_fit(X, y, TrainConfig(seed=__SEED__))
print(hashlib.sha256(m.weights.tobytes() + m.bias.tobytes()).hexdigest())
"""


def _sgd_hash_in_subprocess(seed, hash_seed):
    # The child runs from tests/, so it cannot import the package from the
    # repo root by accident; a relative PYTHONPATH entry such as "src" would
    # then point at tests/src. Put the directory that holds the package this
    # suite imported first, and keep the inherited entries, made absolute.
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(verinews.__file__).resolve().parent.parent)]
        + [os.path.abspath(entry) for entry in inherited if entry]
    )
    env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", _SGD_SNIPPET.replace("__SEED__", str(seed))],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).parent),
        env=env,
        timeout=300,
    )
    if result.returncode != 0:
        pytest.fail(f"SGD child for seed {seed} exited {result.returncode}:\n{result.stderr}")
    return result.stdout.strip()


def test_sgd_seed_determinism_across_processes():
    with criterion("SGD determinism: fixed seed across process runs"):
        # Distinct hash seeds, so output that depends on hash randomization
        # shows up whatever PYTHONHASHSEED the suite inherits.
        a = _sgd_hash_in_subprocess(42, hash_seed="0")
        b = _sgd_hash_in_subprocess(42, hash_seed="1")
        other = _sgd_hash_in_subprocess(43, hash_seed="0")
        assert a == b
        assert a != other


def _random_count_doc(rng, dim):
    """{column: count} of a random document."""
    k = int(rng.integers(0, min(dim, 6) + 1))
    cols = rng.choice(dim, size=k, replace=False)
    return {int(c): float(rng.integers(1, 4)) for c in cols}


def test_bundle_round_trip_preserves_scores():
    with criterion("bundle round trip: bytes and scores identical"):
        rng = np.random.default_rng(5)
        docs = [
            CleanDoc(id=str(i), tokens=("aaa", "bbb", "ccc", "ddd")[: (i % 4) + 1], label=Label(i % 4))
            for i in range(16)
        ]
        vocab = build_vocabulary(docs)
        idf = fit_idf(docs, vocab)
        pipeline = PipelineConfig.default()
        labels = [d.label for d in docs]

        count_vecs = featurize(docs, vocab)
        tfidf_vecs = featurize(docs, vocab, idf)

        fits = {
            "nb": (nb_fit(count_vecs, labels), "count", None),
            "lr": (lr_fit(tfidf_vecs, labels, TrainConfig()), "tfidf", idf),
            "sgd": (sgd_fit(tfidf_vecs, labels, TrainConfig()), "tfidf", idf),
        }
        for kind, (model, feature_kind, maybe_idf) in fits.items():
            bundle = ModelBundle(
                pipeline=pipeline,
                vocab=vocab,
                idf=maybe_idf,
                model=model,
                feature_kind=feature_kind,
                n_train_docs=len(docs),
            )
            first = save_bundle_bytes(bundle)
            loaded = load_bundle(first)
            assert save_bundle_bytes(loaded) == first, kind

            probes = csr_rows([_random_count_doc(rng, vocab.size) for _ in range(100)], vocab.size)
            before = decision_scores(model, probes)
            after = decision_scores(loaded.model, probes)
            assert before.tobytes() == after.tobytes(), kind


def test_full_corpus_reproduction():
    name = "full-corpus reproduction (conditional on VERINEWS_DATA_DIR)"
    data_dir = os.environ.get("VERINEWS_DATA_DIR")
    if not data_dir:
        print(f"[ACCEPTANCE] SKIP  {name}", flush=True)
        pytest.skip("set VERINEWS_DATA_DIR to labeled train.csv/test.csv to enable")
    train_path = Path(data_dir) / "train.csv"
    test_path = Path(data_dir) / "test.csv"
    if not (train_path.is_file() and test_path.is_file()):
        print(f"[ACCEPTANCE] SKIP  {name}", flush=True)
        pytest.skip(f"missing {train_path} or {test_path}")

    with criterion(name):
        train_docs = to_documents(parse_csv(train_path.read_bytes()), labeled=True)
        test_docs = to_documents(parse_csv(test_path.read_bytes()), labeled=True)
        reports = {}
        for kind in ("nb", "lr", "sgd"):
            bundle = train_bundle(
                train_docs,
                kind,
                "count" if kind == "nb" else "tfidf",
            )
            reports[kind] = evaluate_bundle(bundle, test_docs)
        assert abs(reports["nb"].accuracy - 0.56) <= 0.05
        assert reports["nb"].macro_f1 >= reports["lr"].macro_f1
        assert reports["lr"].macro_f1 >= reports["sgd"].macro_f1


def test_imbalanced_priors_drive_oov_prediction():
    with criterion("majority-class priors decide all-OOV documents"):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            majority = int(math.ceil(n / 2)) + int(rng.integers(0, n // 2 + 1))
            majority = min(majority, n)
            labels = [Label.FALSE] * majority + [
                Label(int(rng.integers(1, 4))) for _ in range(n - majority)
            ]
            dim = int(rng.integers(1, 8))
            X = csr_rows([_random_count_doc(rng, dim) for _ in range(n)], dim)
            model = nb_fit(X, labels)
            oov = csr_rows([{}], dim)
            assert predict_labels(decision_scores(model, oov)) == [Label.FALSE]
