"""verinews: classical-ML news veracity classification.

CSV ingestion, deterministic text cleaning, count / TF-IDF features, three
linear classifiers (multinomial NB, one-vs-rest logistic regression, seeded
SGD hinge), evaluation reports, and a self-contained binary model bundle.

The names below load lazily (PEP 562): ``import verinews`` imports no
submodule and no numpy, so a command pays only for the modules it uses,
and ``verinews.cli`` can set up the process before numpy loads. Each name
resolves, on first access, to the same object as its submodule's.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "corpus": ("ClassCounts", "Document", "Label", "RawRecord", "dataset_stats", "parse_csv", "parse_label",
               "to_documents"),
    "features": ("IdfWeights", "Vocabulary", "build_vocabulary", "featurize", "fit_idf"),
    "metrics": ("ClassMetrics", "Confusion", "EvalReport", "accuracy", "class_metrics", "classification_report",
                "confusion_matrix", "macro_f1", "render_confusion", "render_report"),
    "models": ("LinearModel", "TrainConfig", "decision_scores", "lr_fit", "nb_fit", "predict_labels", "sgd_fit"),
    "persistence": ("ModelBundle", "load_bundle", "read_bundle", "save_bundle_bytes", "write_bundle"),
    "pipeline": ("evaluate_bundle", "predict_bundle", "train_bundle"),
    "textprep": ("CleanDoc", "PipelineConfig", "lemmatize_token", "normalize_text", "preprocess_document",
                 "tokenize_and_filter"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
