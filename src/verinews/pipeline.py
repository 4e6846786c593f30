"""End-to-end glue: preprocess, featurize, train, score, evaluate.

These functions tie the modules together behind the bundle abstraction so
the CLI, the demos, and library users share one code path. Cleaning hands
features an IdCorpus, array("q") token ids that features views without a
copy, so no per-token string list is built between the two. Cleaning is
serial: it cleans each distinct whitespace run once per call, which beats
a process pool at every corpus size the benchmark runs. The worker count
passes through to models.sgd_fit, which alone decides whether to fan its
four classes out over a pool of its own.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, Label
from .errors import TrainingError
from .features import featurize, fit_features
from .metrics import EvalReport, classification_report, confusion_matrix
from .models import (
    FeatureRows,
    TrainConfig,
    decision_scores,
    default_workers,  # noqa: F401 - re-exported as part of pipeline's API
    lr_fit,
    nb_fit,
    predict_labels,
    sgd_fit,
)
from .persistence import FEATURE_COUNT, FEATURE_TFIDF, ModelBundle
from .textprep import CleanDoc, PipelineConfig, preprocess_corpus, preprocess_ids

MODEL_NB = "nb"
MODEL_LR = "lr"
MODEL_SGD = "sgd"

DEFAULT_FEATURES = {MODEL_NB: FEATURE_COUNT, MODEL_LR: FEATURE_TFIDF, MODEL_SGD: FEATURE_TFIDF}


def preprocess_many(
    docs: list[Document], cfg: PipelineConfig, workers: int = 1
) -> list[CleanDoc]:
    """preprocess_corpus, kept with this signature for existing callers.

    workers is unused: cleaning each distinct whitespace run once makes the
    serial call faster than a pool at the sizes the benchmark runs.
    """
    return preprocess_corpus(docs, cfg)


def train_bundle(
    docs: list[Document],
    model_kind: str,
    feature_kind: str,
    pipeline_cfg: PipelineConfig | None = None,
    train_cfg: TrainConfig | None = None,
    nb_alpha: float = 1.0,
    workers: int | None = None,
    created_at: int | None = None,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> ModelBundle:
    """Full training pass: clean, build vocabulary, featurize, fit.

    workers caps the SGD fit's process pool, all cores by default; see
    models.sgd_fit.
    """
    if model_kind not in DEFAULT_FEATURES:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if any(d.label is None for d in docs):
        raise TrainingError("training requires a fully labeled corpus")
    pipeline_cfg = pipeline_cfg or PipelineConfig.default()
    train_cfg = train_cfg or TrainConfig()

    vocab, idf, X = fit_features(
        preprocess_ids(docs, pipeline_cfg),
        feature_kind == FEATURE_TFIDF,
        min_df=min_df,
        max_df=max_df,
        max_terms=max_terms,
    )
    labels = [d.label for d in docs]

    if model_kind == MODEL_NB:
        model = nb_fit(X, labels, alpha=nb_alpha)
    elif model_kind == MODEL_LR:
        model = lr_fit(X, labels, train_cfg)
    else:
        model = sgd_fit(X, labels, train_cfg, workers=workers)

    return ModelBundle(
        pipeline=pipeline_cfg,
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind=feature_kind,
        n_train_docs=len(docs),
        created_at=created_at,
    )


def score_matrix(bundle: ModelBundle, X: FeatureRows) -> np.ndarray:
    """(n, 4) decision scores; rows follow the input order."""
    return decision_scores(bundle.model, X)


def predict_bundle(bundle: ModelBundle, docs: list[Document]) -> tuple[list[Label], np.ndarray]:
    X = featurize(preprocess_ids(docs, bundle.pipeline), bundle.vocab, bundle.idf)
    scores = score_matrix(bundle, X)
    return predict_labels(scores), scores


def evaluate_bundle(bundle: ModelBundle, docs: list[Document]) -> EvalReport:
    """Score a labeled corpus against the bundle's frozen vocabulary."""
    if any(d.label is None for d in docs):
        raise TrainingError("evaluation requires a fully labeled corpus")
    preds, _ = predict_bundle(bundle, docs)
    return classification_report(confusion_matrix([d.label for d in docs], preds))
