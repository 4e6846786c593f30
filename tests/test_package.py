import importlib
import json
import subprocess
import sys

import pytest

import verinews

# The names `import verinews` has exported since the package was written,
# by the submodule that defines each.
EXPORTS = {
    "corpus": ["ClassCounts", "Document", "Label", "RawRecord", "dataset_stats", "parse_csv", "parse_label",
               "to_documents"],
    "features": ["IdfWeights", "Vocabulary", "build_vocabulary", "featurize", "fit_idf"],
    "metrics": ["ClassMetrics", "Confusion", "EvalReport", "accuracy", "class_metrics", "classification_report",
                "confusion_matrix", "macro_f1", "render_confusion", "render_report"],
    "models": ["LinearModel", "NbModel", "TrainConfig", "decision_scores", "lr_fit", "nb_fit", "predict_labels",
               "sgd_fit"],
    "persistence": ["ModelBundle", "load_bundle", "read_bundle", "save_bundle_bytes", "write_bundle"],
    "pipeline": ["evaluate_bundle", "predict_bundle", "train_bundle"],
    "textprep": ["CleanDoc", "PipelineConfig", "lemmatize_token", "normalize_text", "preprocess_document",
                 "tokenize_and_filter"],
}


def test_import_loads_no_submodule_and_no_numpy(tmp_path, child_env):
    snippet = (
        "import json, sys, verinews\n"
        "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('verinews.'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_all_is_the_export_list():
    assert verinews.__all__ == [name for names in EXPORTS.values() for name in names]


def test_each_name_is_its_submodules_object():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(verinews, name) is getattr(importlib.import_module(f"verinews.{module}"), name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        verinews.nonexistent
    assert not hasattr(verinews, "cli_main")


def test_from_import_still_loads_a_submodule():
    from verinews import cli

    assert cli is sys.modules["verinews.cli"]
