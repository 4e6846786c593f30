"""verinews: classical-ML news veracity classification.

CSV ingestion, deterministic text cleaning, count / TF-IDF features, three
linear classifiers (multinomial NB, one-vs-rest logistic regression, seeded
SGD hinge), evaluation reports, and a self-contained binary model bundle.
"""

from .corpus import ClassCounts, Document, Label, RawRecord, dataset_stats, parse_csv, parse_label, to_documents
from .features import IdfWeights, Vocabulary, build_vocabulary, featurize, fit_idf
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
from .models import LinearModel, NbModel, TrainConfig, decision_scores, lr_fit, nb_fit, predict_labels, sgd_fit
from .persistence import ModelBundle, load_bundle, read_bundle, save_bundle_bytes, write_bundle
from .pipeline import evaluate_bundle, predict_bundle, train_bundle
from .textprep import CleanDoc, PipelineConfig, lemmatize_token, normalize_text, preprocess_document, tokenize_and_filter

__version__ = "0.1.0"
