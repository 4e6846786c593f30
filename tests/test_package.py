import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import verinews

# The names `import verinews` exports, by the submodule that defines each:
# every name it has exported since the package was written, but NbModel,
# which left when NB became a LinearModel, and IdfWeights and ClassCounts,
# which left when the IDF became a plain vector and dataset_stats a dict.
EXPORTS = {
    "corpus": ["Document", "Label", "RawRecord", "dataset_stats", "parse_csv", "parse_label", "to_documents"],
    "features": ["Vocabulary", "build_vocabulary", "featurize", "fit_idf"],
    "metrics": ["ClassMetrics", "Confusion", "EvalReport", "accuracy", "class_metrics", "classification_report",
                "confusion_matrix", "macro_f1", "render_confusion", "render_report"],
    "models": ["LinearModel", "TrainConfig", "decision_scores", "lr_fit", "nb_fit", "predict_labels", "sgd_fit"],
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

    # The text layer and the metrics are standard library only: cleaning a
    # corpus and rendering a JSON report load no numpy.
    snippet = (
        "import pathlib, sys\n"
        "from verinews.corpus import parse_csv, to_documents\n"
        "from verinews.metrics import render_confusion, render_report, report_from_json\n"
        "from verinews.textprep import PipelineConfig, preprocess_corpus, preprocess_ids\n"
        "cfg = PipelineConfig.default()\n"
        "docs = to_documents(parse_csv(pathlib.Path(sys.argv[1]).read_bytes()), labeled=True)\n"
        "assert len(preprocess_ids(docs, cfg)) == len(preprocess_corpus(docs, cfg)) == len(docs) > 0\n"
        "report = report_from_json('{\"confusion\": [[3, 1, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]}')\n"
        "assert 'Accuracy=80.000' in render_report(report) + render_confusion(report.confusion)\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
    )
    golden = Path(__file__).with_name("golden_claims.csv")
    result = subprocess.run(
        [sys.executable, "-c", snippet, str(golden)], capture_output=True, text=True, cwd=tmp_path, env=child_env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


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


_FAILING_PROPERTY_PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_fails_alone(tmp_path):
    # Under the repository's warning filters a failed @given test must be
    # reported as one failure, not end the run with an internal error.
    (tmp_path / "test_pair.py").write_text(_FAILING_PROPERTY_PAIR)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "-q", "test_pair.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
