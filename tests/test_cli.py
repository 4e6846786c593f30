import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import verinews
from verinews import cli
from verinews.corpus import parse_csv, to_documents
from verinews.models import TrainConfig
from verinews.persistence import read_bundle, save_bundle_bytes
from verinews.pipeline import DEFAULT_FEATURES, train_bundle

LABELED_ROWS = [
    ("a1", "You Can Be Fined 1500 If Your Passenger Is Unbuckled", "Distracted driving causes more deaths officials say", "FALSE"),
    ("a2", "Missouri lawmakers condemn Las Vegas shooting", "Missouri politicians have made statements after the shooting", "partially false"),
    ("a3", "CBC Cuts Donald Trump Home Alone 2 Cameo", "Home Alone 2 is full of violence according to a study", "partially false"),
    ("a4", "Obama Daughters Caught on Camera Burning Flag", "But things took a turn for the worse when riots erupted", "FALSE"),
    ("a5", "Tax policy confirmed accurate by auditors", "The truth about the new tax policy was confirmed", "true"),
    ("a6", "Best blender of the year review", "A product review of the newest blender you can buy", "other"),
    ("a7", "Vaccine safety confirmed by officials", "Officials say the vaccine contains no dangerous chemicals", "true"),
    ("a8", "Mixed reporting on the election results", "The story mixed accurate facts with invented quotes", "partially false"),
    ("a9", "Moon landing hoax claims resurface online", "Viral posts falsely claim the landing was staged", "FALSE"),
    ("a10", "City budget passes after long debate", "The council approved the budget in a late session", "true"),
]


def _write_labeled(path, rows=LABELED_ROWS):
    lines = ["public_id,title,text,our_rating"]
    lines += [f'{pid},"{title}","{text}",{rating}' for pid, title, text, rating in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_unlabeled(path, n=4):
    lines = ["public_id,title,text"]
    lines += [f'u{i},"Generic headline {i}","Body text number {i} for scoring"' for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def train_csv(tmp_path):
    return _write_labeled(tmp_path / "train.csv")


@pytest.fixture
def unlabeled_csv(tmp_path):
    return _write_unlabeled(tmp_path / "test.csv")


def run(*argv):
    return cli.main([str(a) for a in argv])


class TestTrain:
    @pytest.mark.parametrize("model", ["nb", "lr", "sgd"])
    def test_happy_path(self, tmp_path, train_csv, model, capsys):
        out = tmp_path / f"{model}.bundle"
        assert run("train", "--model", model, "--in", train_csv, "--out", out, "--threads", 1) == 0
        assert out.is_file()
        stdout = capsys.readouterr().out
        assert "vocabulary size" in stdout and "class counts" in stdout

    def test_pairing_guard(self, tmp_path, train_csv, capsys):
        out = tmp_path / "m.bundle"
        code = run("train", "--model", "nb", "--features", "tfidf", "--in", train_csv, "--out", out)
        assert code == 2
        assert "--force" in capsys.readouterr().err
        assert not out.exists()

    def test_force_overrides_pairing(self, tmp_path, train_csv):
        out = tmp_path / "m.bundle"
        assert (
            run("train", "--model", "nb", "--features", "tfidf", "--in", train_csv,
                "--out", out, "--force", "--threads", 1) == 0
        )
        assert read_bundle(out).feature_kind == "tfidf"

    def test_repeat_runs_byte_identical(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        a, b = tmp_path / "a.bundle", tmp_path / "b.bundle"
        for out in (a, b):
            assert run("train", "--model", "sgd", "--in", train_csv, "--out", out,
                       "--seed", 42, "--threads", 1) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_source_date_epoch_recorded(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "m.bundle"
        assert run("train", "--model", "nb", "--in", train_csv, "--out", out, "--threads", 1) == 0
        assert read_bundle(out).created_at == 1700000000

    def test_unlabeled_input_rejected(self, tmp_path, unlabeled_csv):
        assert run("train", "--model", "nb", "--in", unlabeled_csv, "--out", tmp_path / "m.bundle") == 2

    def test_missing_input_is_exit_2(self, tmp_path):
        assert run("train", "--model", "nb", "--in", tmp_path / "nope.csv", "--out", tmp_path / "m.bundle") == 2

    def test_flag_beats_config_file(self, tmp_path, train_csv):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("seed=43\n", encoding="utf-8")
        with_flag = tmp_path / "flag.bundle"
        plain = tmp_path / "plain.bundle"
        assert run("train", "--model", "sgd", "--in", train_csv, "--out", with_flag,
                   "--config", cfgfile, "--seed", 42, "--threads", 1) == 0
        assert run("train", "--model", "sgd", "--in", train_csv, "--out", plain,
                   "--seed", 42, "--threads", 1) == 0
        assert with_flag.read_bytes() == plain.read_bytes()

    def test_config_file_used_when_no_flag(self, tmp_path, train_csv):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("seed=43\nthreads=1\n", encoding="utf-8")
        via_config = tmp_path / "cfg.bundle"
        via_flag = tmp_path / "flag.bundle"
        assert run("train", "--model", "sgd", "--in", train_csv, "--out", via_config,
                   "--config", cfgfile) == 0
        assert run("train", "--model", "sgd", "--in", train_csv, "--out", via_flag,
                   "--seed", 43, "--threads", 1) == 0
        assert via_config.read_bytes() == via_flag.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, train_csv):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("sede=43\n", encoding="utf-8")
        assert run("train", "--model", "nb", "--in", train_csv,
                   "--out", tmp_path / "m.bundle", "--config", cfgfile) == 2

    @pytest.mark.parametrize("model", ["nb", "lr", "sgd"])
    def test_no_hyperparameter_flags_means_the_library_defaults(self, tmp_path, train_csv, model, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        out = tmp_path / "m.bundle"
        assert run("train", "--model", model, "--in", train_csv, "--out", out, "--threads", 1) == 0
        docs = to_documents(parse_csv(train_csv.read_bytes()), labeled=True)
        bundle, _ = train_bundle(docs, model, DEFAULT_FEATURES[model], train_cfg=TrainConfig())
        assert out.read_bytes() == save_bundle_bytes(bundle)

    @pytest.mark.parametrize(
        "flags, config",
        [
            (("--lr-c", "-1"), ""),
            (("--lr-max-iter", "0"), ""),
            (("--sgd-epochs", "0"), ""),
            ((), "lr_tol=nan\n"),
            ((), "sgd_alpha=inf\n"),
        ],
    )
    def test_bad_hyperparameter_is_exit_2(self, tmp_path, train_csv, flags, config, capsys):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text(config or "# none\n", encoding="utf-8")
        assert run("train", "--model", "lr", "--in", train_csv, "--out", tmp_path / "m.bundle",
                   "--config", cfgfile, *flags) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--min-df", "0"), ("--min-df", "-3"), ("--max-df", "0"), ("--max-terms", "0"), ("--max-terms", "-1")],
    )
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_vocabulary_bound_below_1_is_exit_2(self, tmp_path, train_csv, flag, value, via, capsys):
        out = tmp_path / "m.bundle"
        if via == "flag":
            extra = (flag, value)
        else:
            cfgfile = tmp_path / "v.conf"
            cfgfile.write_text(f"{flag[2:].replace('-', '_')}={value}\n", encoding="utf-8")
            extra = ("--config", cfgfile)
        assert run("train", "--model", "nb", "--in", train_csv, "--out", out, *extra) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_are_the_flags_that_configure(self):
        keys = cli._config_keys(cli._build_parser())
        assert {"lr_c", "lr_tol", "lr_max_iter", "sgd_alpha", "sgd_epochs", "sgd_tol", "seed"} <= keys
        assert {"nb_alpha", "min_df", "max_df", "max_terms", "threads", "format", "min_token_len"} <= keys
        assert not keys & {"config", "input", "out", "force", "help"}

    def test_vocab_pruning_flags(self, tmp_path, train_csv, capsys):
        out = tmp_path / "m.bundle"
        assert run("train", "--model", "nb", "--in", train_csv, "--out", out,
                   "--max-terms", 5, "--threads", 1) == 0
        assert read_bundle(out).vocab.size <= 5


@pytest.fixture
def nb_bundle(tmp_path, train_csv):
    out = tmp_path / "nb.bundle"
    assert run("train", "--model", "nb", "--in", train_csv, "--out", out, "--threads", 1) == 0
    return out


class TestEval:
    def test_text_report_on_training_set(self, train_csv, nb_bundle, capsys):
        assert run("eval", "--in", train_csv, "--model", nb_bundle, "--threads", 1) == 0
        stdout = capsys.readouterr().out
        assert "Accuracy=" in stdout and "macro F1" in stdout
        assert "partially_false" in stdout

    def test_self_eval_beats_majority_baseline(self, tmp_path, train_csv, nb_bundle):
        report = tmp_path / "r.json"
        assert run("eval", "--in", train_csv, "--model", nb_bundle, "--format", "json",
                   "--out", report, "--threads", 1) == 0
        payload = json.loads(report.read_text())
        majority = max(sum(row) for row in payload["confusion"]) / payload["total"]
        assert payload["accuracy"] >= majority

    def test_json_cells_sum_to_corpus_size(self, tmp_path, train_csv, nb_bundle):
        report = tmp_path / "r.json"
        assert run("eval", "--in", train_csv, "--model", nb_bundle, "--format", "json",
                   "--out", report, "--threads", 1) == 0
        payload = json.loads(report.read_text())
        assert sum(map(sum, payload["confusion"])) == len(LABELED_ROWS)
        assert payload["total"] == len(LABELED_ROWS)

    def test_unlabeled_eval_rejected(self, unlabeled_csv, nb_bundle):
        assert run("eval", "--in", unlabeled_csv, "--model", nb_bundle) == 2

    def test_corrupt_bundle_is_exit_2(self, tmp_path, train_csv, nb_bundle):
        broken = tmp_path / "broken.bundle"
        broken.write_bytes(nb_bundle.read_bytes()[:-3])
        assert run("eval", "--in", train_csv, "--model", broken) == 2

    def test_eval_never_mutates_the_bundle(self, tmp_path, train_csv, nb_bundle):
        # held-out data carries OOV terms; they are dropped, not learned
        held_out = tmp_path / "held.csv"
        held_out.write_text(
            "public_id,title,text,our_rating\n"
            'h1,"Entirely unseen vocabulary here","Nothing from training",true\n'
            'h2,"Fresh words again","More novel content",FALSE\n',
            encoding="utf-8",
        )
        before = nb_bundle.read_bytes()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("eval", "--in", held_out, "--model", nb_bundle,
                       "--format", "json", "--out", out, "--threads", 1) == 0
        assert nb_bundle.read_bytes() == before
        assert a.read_bytes() == b.read_bytes()


class TestPredict:
    def test_row_count_and_order_preserved(self, tmp_path, unlabeled_csv, nb_bundle):
        out = tmp_path / "preds.csv"
        assert run("predict", "--in", unlabeled_csv, "--model", nb_bundle, "--out", out,
                   "--threads", 1) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "public_id,predicted_label,score_false,score_true,"
            "score_partially_false,score_other"
        )
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == [r.public_id for r in parse_csv(unlabeled_csv.read_bytes())]

    def test_deterministic_across_invocations(self, tmp_path, unlabeled_csv, nb_bundle):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("predict", "--in", unlabeled_csv, "--model", nb_bundle, "--out", out,
                       "--threads", 1) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_body_docs_get_majority_class(self, tmp_path, nb_bundle):
        blank = tmp_path / "blank.csv"
        blank.write_text("public_id,title,text\nb1,,\nb2,,\n", encoding="utf-8")
        out = tmp_path / "preds.csv"
        assert run("predict", "--in", blank, "--model", nb_bundle, "--out", out, "--threads", 1) == 0
        rows = out.read_text().splitlines()[1:]
        # training majority class over LABELED_ROWS ties false/true/pf at 3;
        # false and partially_false tie at 3 -> argmax of priors is false
        majority = "false"
        assert all(line.split(",")[1] == majority for line in rows)


class TestPrepAndReport:
    def test_prep_matches_library_pipeline(self, tmp_path, train_csv, capsys):
        assert run("prep", "--in", train_csv, "--threads", 1) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0] == "public_id,label,tokens"
        assert len(lines) == 1 + len(LABELED_ROWS)
        assert lines[1].startswith("a1,false,")
        assert "somenuber" in lines[3]  # Home Alone 2 row

    def test_prep_to_file_unlabeled(self, tmp_path, unlabeled_csv):
        out = tmp_path / "tokens.csv"
        assert run("prep", "--in", unlabeled_csv, "--out", out, "--threads", 1) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[1] == ""  # no label column value

    def test_report_renders_json(self, tmp_path, train_csv, nb_bundle, capsys):
        report = tmp_path / "r.json"
        run("eval", "--in", train_csv, "--model", nb_bundle, "--format", "json",
            "--out", report, "--threads", 1)
        capsys.readouterr()
        assert run("report", "--in", report) == 0
        stdout = capsys.readouterr().out
        assert "Accuracy=" in stdout and "macro F1" in stdout

    def test_report_missing_file(self, tmp_path):
        assert run("report", "--in", tmp_path / "nope.json") == 2

    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[1]",
            "not json",
            '{"confusion": [[1, 2], [3, 4]]}',
            '{"confusion": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"confusion": [["abc", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"confusion": [[NaN, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"confusion": [[12345678901234567890123, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"confusion": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}',
            '{"confusion": [[1.5, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"confusion": [[true, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            "[" * 100_000,
        ],
        ids=[
            "empty-object", "list", "not-json", "2x2", "negative", "string", "nan", "23-digits",
            "all-zero", "float", "bool", "nested-too-deep",
        ],
    )
    def test_bad_report_is_exit_2(self, tmp_path, text, capsys):
        bad = tmp_path / "r.json"
        bad.write_text(text, encoding="utf-8")
        assert run("report", "--in", bad) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestThreads:
    @pytest.mark.parametrize("model", ["nb", "lr", "sgd"])
    def test_parallel_output_matches_serial(self, tmp_path, model):
        # enough rows to cross the pool threshold
        rows = [
            (f"p{i}", f"Repeating headline number {i}", f"Body text {i} with shared words",
             ["FALSE", "true", "partially false", "other"][i % 4])
            for i in range(40)
        ]
        train = _write_labeled(tmp_path / "big.csv", rows)
        serial, parallel = tmp_path / "s.bundle", tmp_path / "p.bundle"
        assert run("train", "--model", model, "--in", train, "--out", serial, "--threads", 1) == 0
        assert run("train", "--model", model, "--in", train, "--out", parallel, "--threads", 2) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_env_var_override(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "1")
        out = tmp_path / "m.bundle"
        assert run("train", "--model", "nb", "--in", train_csv, "--out", out) == 0

    def test_bad_thread_count(self, train_csv, tmp_path):
        assert run("train", "--model", "nb", "--in", train_csv,
                   "--out", tmp_path / "m.bundle", "--threads", 0) == 2

    def test_non_integer_config_threads_is_exit_2(self, train_csv, tmp_path, capsys):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("threads=abc\n", encoding="utf-8")
        assert run("train", "--model", "nb", "--in", train_csv,
                   "--out", tmp_path / "m.bundle", "--config", cfgfile) == 2
        assert "threads" in capsys.readouterr().err

    def test_precedence_flag_config_env_cores(self, monkeypatch):
        monkeypatch.setenv(cli.THREADS_ENV, "3")
        no_flag = argparse.Namespace(threads=None)
        assert cli._resolve_threads(argparse.Namespace(threads=1), {"threads": "2"}) == 1
        assert cli._resolve_threads(no_flag, {"threads": "2"}) == 2
        assert cli._resolve_threads(no_flag, {}) == 3
        monkeypatch.delenv(cli.THREADS_ENV)
        assert cli._resolve_threads(no_flag, {}) == cli.default_workers()


class TestInputBytes:
    def test_invalid_utf8_is_exit_2_naming_the_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"public_id,title,text\nx1,ab\xffc,d\n")
        assert run("prep", "--in", bad, "--threads", 1) == 2
        err = capsys.readouterr().err
        assert "UTF-8" in err and "0xff" in err and "offset 26" in err

    def test_byte_order_mark_before_header(self, tmp_path, nb_bundle):
        text = _write_unlabeled(tmp_path / "plain.csv").read_bytes()
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("predict", "--in", tmp_path / "plain.csv", "--model", nb_bundle, "--out", a) == 0
        assert run("predict", "--in", marked, "--model", nb_bundle, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


_headers = st.sampled_from(
    ["public_id,title,text,our_rating", "public_id,title,text", "title,text,our rating", ""]
)
_cells = st.one_of(
    st.sampled_from(["false", "TRUE", "partially false", "other", "", "p1", '"a,b"', '"open', "12"]),
    st.text(max_size=12),
)
_csv_texts = st.builds(
    lambda bom, header, rows: bom + "\n".join([header, *rows]) + "\n",
    st.sampled_from(["", "\ufeff"]),
    _headers,
    st.lists(st.lists(_cells, max_size=5).map(",".join), max_size=8),
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=24,
)
_report_texts = st.one_of(
    _json_values.map(json.dumps),
    st.builds(
        lambda grid, extra: json.dumps({**extra, "confusion": grid}),
        st.lists(st.lists(st.integers(-1, 3) | _json_values, min_size=3, max_size=5), min_size=3, max_size=5),
        st.dictionaries(st.text(max_size=6), _json_values, max_size=2),
    ),
)
_input_bytes = st.one_of(
    st.binary(max_size=120),
    _csv_texts.map(str.encode),
    _report_texts.map(str.encode),
    st.builds(
        lambda text, junk, at: text.encode()[:at] + junk + text.encode()[at:],
        _csv_texts,
        st.binary(min_size=1, max_size=3),
        st.integers(0, 200),
    ),
)


@pytest.fixture(scope="module")
def any_input_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("any_input")
    assert run("train", "--model", "nb", "--in", _write_labeled(d / "train.csv"),
               "--out", d / "nb.bundle", "--threads", 1) == 0
    return d


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_input_bytes, model=st.sampled_from(["nb", "lr", "sgd"]))
def test_any_input_bytes_exit_0_or_2(any_input_dir, data, model):
    d = any_input_dir
    (d / "in.csv").write_bytes(data)
    common = ("--in", d / "in.csv", "--threads", 1)
    codes = [
        run("prep", *common, "--out", d / "prep.csv"),
        run("train", *common, "--model", model, "--out", d / "m.bundle"),
        run("eval", *common, "--model", d / "nb.bundle", "--format", "json", "--out", d / "r.json"),
        run("predict", *common, "--model", d / "nb.bundle", "--out", d / "p.csv"),
        run("report", *common),
    ]
    assert set(codes) <= {0, 2}, codes


_IMPORTS_SNIPPET = """
import json, sys
from verinews import cli

lazy = ("scipy.optimize", "scipy.special")
loaded = {}
d = sys.argv[1]
for step, argv in [
    ("import", None),
    ("train nb", ["train", "--model", "nb", "--out", d + "/nb.bundle"]),
    ("train sgd", ["train", "--model", "sgd", "--out", d + "/sgd.bundle"]),
    ("eval nb", ["eval", "--model", d + "/nb.bundle", "--out", d + "/r.json"]),
    ("predict nb", ["predict", "--model", d + "/nb.bundle", "--out", d + "/p.csv"]),
    ("train lr", ["train", "--model", "lr", "--out", d + "/lr.bundle"]),
]:
    if argv is not None:
        assert cli.main([*argv, "--in", d + "/train.csv", "--threads", "1"]) == 0, step
    loaded[step] = [name for name in lazy if name in sys.modules]
print(json.dumps(loaded))
"""


def test_only_lr_training_loads_the_optimizer(tmp_path):
    # Importing scipy.optimize costs every CLI process about a third of a
    # second; only the LR fit needs it (and scipy.special).
    _write_labeled(tmp_path / "train.csv")
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(verinews.__file__).resolve().parent.parent)]
        + [os.path.abspath(entry) for entry in inherited if entry]
    )
    result = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SNIPPET, str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    lazy = ["scipy.optimize", "scipy.special"]
    assert loaded == {
        "import": [], "train nb": [], "train sgd": [], "eval nb": [], "predict nb": [], "train lr": lazy,
    }
