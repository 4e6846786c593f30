"""End-to-end glue: preprocess, featurize, train, score, evaluate.

These functions tie the modules together behind the bundle abstraction so
the CLI, the demos, and library users share one code path. Cleaning is
serial: it maps each distinct whitespace run once per call, which beats a
process pool at every corpus size the benchmark runs. Only the SGD fit
fans its four classes out over a pool when asked; its results are identical
to the serial fit because each class's fit is a pure function.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .corpus import ClassCounts, Document, Label, dataset_stats
from .errors import TrainingError
from .features import build_vocabulary, featurize, fit_idf
from .metrics import EvalReport, classification_report, confusion_matrix
from .models import (
    FeatureRows,
    TrainConfig,
    decision_scores,
    lr_fit,
    nb_fit,
    predict_labels,
    sgd_fit,
)
from .persistence import FEATURE_COUNT, FEATURE_TFIDF, ModelBundle
from .textprep import CleanDoc, PipelineConfig, preprocess_corpus

# Below this many training documents a pool costs more than it saves.
PARALLEL_MIN_DOCS = 32

MODEL_NB = "nb"
MODEL_LR = "lr"
MODEL_SGD = "sgd"

DEFAULT_FEATURES = {MODEL_NB: FEATURE_COUNT, MODEL_LR: FEATURE_TFIDF, MODEL_SGD: FEATURE_TFIDF}


@dataclass(frozen=True)
class TrainSummary:
    class_counts: ClassCounts
    vocab_size: int
    converged: bool | None  # None for models without an iterative fit


def default_workers() -> int:
    return os.cpu_count() or 1


def preprocess_many(
    docs: list[Document], cfg: PipelineConfig, workers: int = 1
) -> list[CleanDoc]:
    """preprocess_corpus, kept with this signature for existing callers.

    workers is unused: cleaning each distinct whitespace run once makes the
    serial call faster than a pool at the sizes the benchmark runs.
    """
    return preprocess_corpus(docs, cfg)


@contextmanager
def _worker_pool(workers: int, n_docs: int) -> Iterator[ProcessPoolExecutor | None]:
    """A pool of at most one process per core, since a forked pool starts
    them all at its first task; None where serial wins."""
    workers = min(workers, default_workers())
    if workers <= 1 or n_docs < PARALLEL_MIN_DOCS:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def train_bundle(
    docs: list[Document],
    model_kind: str,
    feature_kind: str,
    pipeline_cfg: PipelineConfig | None = None,
    train_cfg: TrainConfig | None = None,
    nb_alpha: float = 1.0,
    workers: int = 1,
    created_at: int | None = None,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> tuple[ModelBundle, TrainSummary]:
    """Full training pass: clean, build vocabulary, featurize, fit.

    workers sizes the pool that the SGD fit runs its four classes on.
    """
    if model_kind not in DEFAULT_FEATURES:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if any(d.label is None for d in docs):
        raise TrainingError("training requires a fully labeled corpus")
    pipeline_cfg = pipeline_cfg or PipelineConfig.default()
    train_cfg = train_cfg or TrainConfig()

    clean = preprocess_corpus(docs, pipeline_cfg)
    vocab = build_vocabulary(clean, min_df=min_df, max_df=max_df, max_terms=max_terms)
    labels = [d.label for d in clean]

    idf = fit_idf(clean, vocab) if feature_kind == FEATURE_TFIDF else None
    X = featurize(clean, vocab, idf)

    if model_kind == MODEL_NB:
        model = nb_fit(X, labels, alpha=nb_alpha)
        converged = None
    elif model_kind == MODEL_LR:
        model = lr_fit(X, labels, train_cfg)
        converged = model.converged
    else:
        # The only pool of a run. It forks at the first class task, after X
        # exists, so its processes share the parent's pages copy-on-write.
        with _worker_pool(workers, len(docs)) as pool:
            model = sgd_fit(X, labels, train_cfg, pool=pool)
        converged = model.converged

    bundle = ModelBundle(
        pipeline=pipeline_cfg,
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind=feature_kind,
        n_train_docs=len(docs),
        created_at=created_at,
    )
    summary = TrainSummary(
        class_counts=dataset_stats(docs), vocab_size=vocab.size, converged=converged
    )
    return bundle, summary


def score_matrix(bundle: ModelBundle, X: FeatureRows) -> np.ndarray:
    """(n, 4) decision scores; rows follow the input order."""
    return decision_scores(bundle.model, X)


def predict_bundle(bundle: ModelBundle, docs: list[Document]) -> tuple[list[Label], np.ndarray]:
    clean = preprocess_corpus(docs, bundle.pipeline)
    scores = score_matrix(bundle, featurize(clean, bundle.vocab, bundle.idf))
    return predict_labels(scores), scores


def evaluate_bundle(bundle: ModelBundle, docs: list[Document]) -> EvalReport:
    """Score a labeled corpus against the bundle's frozen vocabulary."""
    if any(d.label is None for d in docs):
        raise TrainingError("evaluation requires a fully labeled corpus")
    preds, _ = predict_bundle(bundle, docs)
    return classification_report(confusion_matrix([d.label for d in docs], preds))
