"""End-to-end glue: preprocess, featurize, train, score, evaluate.

These functions tie the modules together behind the bundle abstraction so
the CLI, the demos, and library users share one code path. Cleaning hands
features an IdCorpus, array("q") token ids that features views without a
copy, so no per-token string list is built between the two. Each
Document-level function cleans and then calls its IdCorpus-level
counterpart (train_corpus, predict_corpus, evaluate_corpus), the one fit
and scoring path; the CLI calls those directly with a corpus cleaned in a
child process while it loads numpy (see cli). Cleaning itself is serial
in one process: it cleans each distinct whitespace run once per call,
which beats a process pool at every corpus size the benchmark runs. The
worker count passes through to models.sgd_fit, which alone decides
whether to fan its four classes out over a pool of its own.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, Label
from .errors import TrainingError
from .features import featurize, fit_features, stack
from .metrics import EvalReport, classification_report, confusion_matrix
from .models import (
    FeatureRows,
    decision_scores,
    default_workers,  # noqa: F401 - re-exported as part of pipeline's API
    lr_fit,
    nb_fit,
    predict_labels,
    sgd_fit,
)
from .persistence import ModelBundle
from .settings import DEFAULT_FEATURES, FEATURE_COUNT, FEATURE_TFIDF, MODEL_LR, MODEL_NB, MODEL_SGD, TrainConfig
from .textprep import CleanDoc, IdCorpus, PipelineConfig, preprocess_corpus, preprocess_ids


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
    workers: int | None = None,
    created_at: int | None = None,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> ModelBundle:
    """Full training pass: clean with pipeline_cfg (default:
    PipelineConfig.default()), then train_corpus. Unknown kinds raise
    before any cleaning."""
    _check_kinds(model_kind, feature_kind)
    pipeline_cfg = pipeline_cfg or PipelineConfig.default()
    return train_corpus(
        preprocess_ids(docs, pipeline_cfg),
        [d.label for d in docs],
        model_kind,
        feature_kind,
        pipeline_cfg,
        train_cfg=train_cfg,
        workers=workers,
        created_at=created_at,
        min_df=min_df,
        max_df=max_df,
        max_terms=max_terms,
    )


def train_corpus(
    corpus: IdCorpus,
    labels: list[Label | None],
    model_kind: str,
    feature_kind: str,
    pipeline_cfg: PipelineConfig,
    train_cfg: TrainConfig | None = None,
    workers: int | None = None,
    created_at: int | None = None,
    min_df: int = 1,
    max_df: int | None = None,
    max_terms: int | None = None,
) -> ModelBundle:
    """Build the vocabulary, featurize and fit on a corpus that
    pipeline_cfg cleaned, one label per document; the bundle embeds
    pipeline_cfg.

    train_cfg holds every fit's hyperparameters. workers caps the SGD
    fit's process pool, all cores by default; see models.sgd_fit.
    """
    _check_kinds(model_kind, feature_kind)
    if any(label is None for label in labels):
        raise TrainingError("training requires a fully labeled corpus")
    train_cfg = train_cfg or TrainConfig()

    vocab, idf, X = fit_features(
        corpus,
        feature_kind == FEATURE_TFIDF,
        min_df=min_df,
        max_df=max_df,
        max_terms=max_terms,
    )

    fits = {MODEL_NB: nb_fit, MODEL_LR: lr_fit, MODEL_SGD: lambda *a: sgd_fit(*a, workers=workers)}
    model = fits[model_kind](X, labels, train_cfg)

    return ModelBundle(
        pipeline=pipeline_cfg,
        vocab=vocab,
        idf=idf,
        model=model,
        feature_kind=feature_kind,
        n_train_docs=len(corpus),
        created_at=created_at,
    )


def _check_kinds(model_kind: str, feature_kind: str):
    if model_kind not in DEFAULT_FEATURES:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if feature_kind not in (FEATURE_COUNT, FEATURE_TFIDF):
        raise ValueError(f"unknown feature kind {feature_kind!r}")


def score_matrix(bundle: ModelBundle, X: FeatureRows) -> np.ndarray:
    """(n, 4) decision scores; rows follow the input order, and a list of
    matrices is stacked once."""
    return decision_scores(bundle.model, stack(X) if isinstance(X, list) else X)


def predict_bundle(bundle: ModelBundle, docs: list[Document]) -> tuple[list[Label], np.ndarray]:
    """Clean with the bundle's pipeline, then predict_corpus."""
    return predict_corpus(bundle, preprocess_ids(docs, bundle.pipeline))


def predict_corpus(bundle: ModelBundle, corpus: IdCorpus) -> tuple[list[Label], np.ndarray]:
    """(labels, (n, 4) scores) of a corpus that bundle.pipeline cleaned."""
    scores = score_matrix(bundle, featurize(corpus, bundle.vocab, bundle.idf))
    return predict_labels(scores), scores


def evaluate_bundle(bundle: ModelBundle, docs: list[Document]) -> EvalReport:
    """Clean with the bundle's pipeline, then evaluate_corpus."""
    return evaluate_corpus(bundle, preprocess_ids(docs, bundle.pipeline), [d.label for d in docs])


def evaluate_corpus(bundle: ModelBundle, corpus: IdCorpus, labels: list[Label | None]) -> EvalReport:
    """Score a corpus that bundle.pipeline cleaned, one true label per
    document, against the bundle's frozen vocabulary."""
    if any(label is None for label in labels):
        raise TrainingError("evaluation requires a fully labeled corpus")
    preds, _ = predict_corpus(bundle, corpus)
    return classification_report(confusion_matrix(labels, preds))
