"""verinews: classical-ML news veracity classification.

CSV ingestion, deterministic text cleaning, count / TF-IDF features, three
linear classifiers (multinomial NB, one-vs-rest logistic regression, seeded
SGD hinge), evaluation reports, and a self-contained binary model bundle.
"""

from .corpus import ClassCounts, Document, Label, RawRecord, dataset_stats, parse_csv, parse_label, to_documents
from .features import IdfWeights, SparseVector, Vocabulary, build_vocabulary, count_transform, featurize, fit_idf, tfidf_transform
from .metrics import (
    ClassMetrics,
    Confusion,
    EvalReport,
    accuracy,
    class_metrics,
    classification_report,
    confusion_matrix,
    macro_f1,
    render_confusion,
    render_report,
)
from .models import LinearModel, NbModel, TrainConfig, linear_decision, lr_fit, nb_fit, nb_log_posterior, predict, sgd_fit
from .persistence import ModelBundle, load_bundle, read_bundle, save_bundle, write_bundle
from .pipeline import evaluate_bundle, predict_bundle, train_bundle
from .textprep import CleanDoc, PipelineConfig, lemmatize_token, normalize_text, preprocess_document, tokenize_and_filter

__version__ = "0.1.0"
