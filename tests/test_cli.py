import contextlib
import csv
import dataclasses
import errno
import importlib.metadata
import json
import os
import random
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from verinews import cli, models
from verinews.corpus import parse_csv, to_documents
from verinews.models import TrainConfig
from verinews.persistence import read_bundle, save_bundle_bytes
from verinews.pipeline import DEFAULT_FEATURES, train_bundle

from test_models import _count_pools
from test_persistence import NON_CANONICAL, UNPARSABLE_METADATA, _edited, _metadata, resealed

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
        lines = stdout.splitlines()
        assert lines[:3] == [
            f"trained {model} on 10 documents ({DEFAULT_FEATURES[model]})",
            "class counts: false=3 true=3 partially_false=3 other=1",
            f"vocabulary size: {read_bundle(out).vocab.size}",
        ]
        assert lines[-1] == f"wrote {out}"
        # Only the iterative fits report convergence.
        converged = lines[3:-1]
        assert len(converged) == (0 if model == "nb" else 1)
        assert all(line.startswith("converged: ") for line in converged)

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
        bundle = train_bundle(docs, model, DEFAULT_FEATURES[model], train_cfg=TrainConfig())
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

    # Column 0 is false, column 2 partially_false.
    @pytest.mark.parametrize("model, predicted", [("nb", 0), ("lr", 0), ("sgd", 2)])
    def test_a_bound_that_drops_every_term_trains_an_empty_vocabulary(self, tmp_path, model, predicted, capsys):
        # As README says, such a bundle scores every document on the NB priors
        # or the linear biases alone, as it scores an all-OOV document.
        golden = Path(__file__).with_name("golden_claims.csv")
        out, report = tmp_path / "m.bundle", tmp_path / "report.json"
        assert run("train", "--model", model, "--in", golden, "--out", out, "--min-df", 100_000, "--threads", 1) == 0
        assert "vocabulary size: 0" in capsys.readouterr().out.splitlines()
        assert run("eval", "--in", golden, "--model", out, "--format", "json", "--out", report) == 0
        confusion = json.loads(report.read_text(encoding="utf-8"))["confusion"]
        assert all(row[predicted] == sum(row) for row in confusion)

    @pytest.mark.parametrize(
        "model, flag, value",
        [
            ("sgd", "--seed", "-1"),
            ("nb", "--nb-alpha", "nan"),
            ("nb", "--nb-alpha", "inf"),
            ("nb", "--nb-alpha", "1e308"),
            ("lr", "--lr-c", "1e140"),
            ("lr", "--lr-c", "1e300"),
        ],
    )
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_seed_or_nb_alpha_is_exit_2_with_no_bundle(self, tmp_path, train_csv, model, flag, value, via, capsys):
        if via == "flag":
            extra = ("--model", model, flag, value)
        else:
            cfgfile = tmp_path / "v.conf"
            cfgfile.write_text(f"model={model}\n{flag[2:].replace('-', '_')}={value}\n", encoding="utf-8")
            extra = ("--config", cfgfile)
        out = tmp_path / "m.bundle"
        assert run("train", "--in", train_csv, "--out", out, "--threads", 1, *extra) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_bad_nb_alpha_message_names_the_value(self, tmp_path, train_csv, via, capsys):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("nb_alpha=nan\n" if via == "config" else "# none\n", encoding="utf-8")
        flags = ("--nb-alpha", "nan") if via == "flag" else ()
        assert run("train", "--model", "nb", "--in", train_csv, "--out", tmp_path / "m.bundle",
                   "--config", cfgfile, *flags) == 2
        assert capsys.readouterr().err == "error: nb_alpha must be positive and finite, got nan\n"

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TrainConfig)])
    def test_each_train_config_field_is_a_flag_and_a_config_key(self, tmp_path, field):
        # The flag spells the field in lower case with dashes and takes the
        # type of its default; the config key spells it with underscores.
        value = getattr(TrainConfig(), field) * 2
        key = field.lower()
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text(f"{key}={value}\n", encoding="utf-8")
        parser = cli._build_parser()
        for argv in (["--" + key.replace("_", "-"), str(value)], ["--config", str(cfgfile)]):
            args = parser.parse_args(["train", "--in", "x", "--out", "y", *argv])
            cli._merge_config(parser, args, cli._load_config_file(args.config, cli._config_keys(parser)))
            assert type(getattr(args, key)) is type(value)
            assert cli._resolve_train_config(args) == TrainConfig(**{field: value})

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

    def test_stalled_lr_fit_stops_early_with_the_limit_result(self, tmp_path, train_csv, monkeypatch, capsys):
        # lr_tol 1e-300 is out of reach. About 490 iterations in, each class
        # rejects its step and keeps its radius, so every later iteration
        # would repeat the same CG solve until lr_max_iter.
        cg, minimize = models._steihaug_cg, models._minimize_logistic
        cg_calls, per_class = [], []

        def counting_cg(*args):
            cg_calls.append(None)
            return cg(*args)

        def counting_minimize(*args, **kwargs):
            before = len(cg_calls)
            result = minimize(*args, **kwargs)
            per_class.append(len(cg_calls) - before)
            return result

        monkeypatch.setattr(models, "_steihaug_cg", counting_cg)
        monkeypatch.setattr(models, "_minimize_logistic", counting_minimize)
        models_by_limit = {}
        for limit in (600, 3000):
            out = tmp_path / f"lr-{limit}.b"
            per_class.clear()
            assert run("train", "--model", "lr", "--in", train_csv, "--out", out, "--threads", 1,
                       "--lr-tol", "1e-300", "--lr-max-iter", limit) == 0
            assert len(per_class) == 4 and max(per_class) < 600, per_class
            assert "converged: NO (hit iteration limit)" in capsys.readouterr().out.splitlines()
            models_by_limit[limit] = read_bundle(out).model
        a, b = models_by_limit.values()
        assert a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()


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

    @pytest.mark.parametrize("name", NON_CANONICAL)
    def test_non_canonical_bundle_is_exit_2(self, tmp_path, train_csv, name):
        model, edit = NON_CANONICAL[name]
        bundle = tmp_path / f"{model}.bundle"
        assert run("train", "--model", model, "--in", train_csv, "--out", bundle, "--threads", 1) == 0
        bundle.write_bytes(_edited(bundle.read_bytes(), edit))
        assert run("eval", "--in", train_csv, "--model", bundle) == 2

    @pytest.mark.parametrize("raw", UNPARSABLE_METADATA)
    def test_unparsable_bundle_metadata_is_exit_2(self, train_csv, nb_bundle, raw, capsys):
        nb_bundle.write_bytes(_edited(nb_bundle.read_bytes(), _metadata(raw)))
        assert run("eval", "--in", train_csv, "--model", nb_bundle) == 2
        assert "unreadable metadata" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [0, 2])
    def test_unsupported_bundle_version_is_exit_2(self, tmp_path, train_csv, nb_bundle, version, capsys):
        raw = bytearray(nb_bundle.read_bytes())
        raw[8:12] = struct.pack("<I", version)
        nb_bundle.write_bytes(resealed(bytes(raw)))
        assert run("eval", "--in", train_csv, "--model", nb_bundle) == 2
        assert f"version {version} is not supported" in capsys.readouterr().err

    def test_overflowing_nb_bundle_is_exit_2_with_no_warning(self, tmp_path, train_csv, nb_bundle, child_env):
        # exp(1000) overflows in the row-mass check. The bundle is bad
        # input, so even with warnings as errors it must exit 2, not 1.
        # save_bundle_bytes refuses such a model, so weights[0, 0],
        # which starts the last 4 * V doubles before the checksum, is
        # overwritten in the saved bytes and the bundle resealed.
        raw = bytearray(nb_bundle.read_bytes())
        at = len(raw) - 32 - 8 * 4 * read_bundle(nb_bundle).vocab.size
        raw[at : at + 8] = struct.pack("<d", 1000.0)
        nb_bundle.write_bytes(resealed(bytes(raw)))
        result = subprocess.run(
            [sys.executable, "-m", "verinews.cli", "eval", "--in", str(train_csv), "--model", str(nb_bundle)],
            capture_output=True, text=True, cwd=tmp_path, env={**child_env, "PYTHONWARNINGS": "error"},
            timeout=300,
        )
        assert result.returncode == 2, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "row mass" in result.stderr

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("model", ["nb", "lr"])
    def test_bundle_with_no_finite_score_is_exit_2(self, tmp_path, train_csv, model, command, capsys):
        # The bundle passes every load check, yet a document with two of
        # its terms scores no class finitely: NB log-probabilities of
        # -1e308 sum to -inf, and linear weights of 1e308 to +inf. No bound
        # on the weights rules that out for every document length, so this
        # is bad input, not a bug.
        path = tmp_path / f"{model}.bundle"
        assert run("train", "--model", model, "--in", train_csv, "--out", path, "--threads", 1) == 0
        bundle = read_bundle(path)
        n_terms = bundle.vocab.size
        if model == "nb":
            log_prob = np.full((4, n_terms), -1e308)
            log_prob[:, 0] = 0.0  # each row's mass is exp(0) = 1
            edited = dataclasses.replace(bundle.model, weights=log_prob)
        else:
            edited = dataclasses.replace(bundle.model, weights=np.full((4, n_terms), 1e308), bias=np.full(4, 1e308))
        path.write_bytes(save_bundle_bytes(dataclasses.replace(bundle, model=edited)))
        capsys.readouterr()
        assert run(command, "--in", train_csv, "--model", path, "--out", tmp_path / "out") == 2
        assert "error: no finite class score" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "command, config",
    [("train", "model=xx\n"), ("train", "model=nb\nfeatures=bogus\n"), ("eval", "format=xml\n")],
)
def test_config_value_outside_the_flag_choices_is_exit_2(tmp_path, train_csv, nb_bundle, command, config, capsys):
    cfgfile = tmp_path / "v.conf"
    cfgfile.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    extra = ("--out", out) if command == "train" else ("--model", nb_bundle, "--out", out)
    assert run(command, "--in", train_csv, "--config", cfgfile, "--threads", 1, *extra) == 2
    key = config.splitlines()[-1].split("=")[0]
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_config_format_json_writes_the_flag_bytes(tmp_path, train_csv, nb_bundle):
    cfgfile = tmp_path / "v.conf"
    cfgfile.write_text("format=json\n", encoding="utf-8")
    via_config, via_flag = tmp_path / "c.json", tmp_path / "f.json"
    common = ("--in", train_csv, "--model", nb_bundle, "--threads", 1)
    assert run("eval", *common, "--config", cfgfile, "--out", via_config) == 0
    assert run("eval", *common, "--format", "json", "--out", via_flag) == 0
    assert via_config.read_bytes() == via_flag.read_bytes()
    json.loads(via_config.read_text())


def test_report_ignores_config_threads(tmp_path, capsys):
    # report starts no pool and takes no --threads, so a config file shared
    # with train may hold a threads= value that report never reads.
    report = tmp_path / "r.json"
    report.write_text('{"confusion": [[3, 1, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]}')
    cfgfile = tmp_path / "v.conf"
    cfgfile.write_text("threads=abc\n", encoding="utf-8")
    assert run("report", "--in", report) == 0
    rendered = capsys.readouterr().out
    assert "Accuracy=" in rendered and "macro F1" in rendered
    assert run("report", "--in", report, "--config", cfgfile) == 0
    assert capsys.readouterr().out == rendered


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

    def test_duplicate_ids_warn_and_every_row_is_predicted(self, tmp_path, nb_bundle, capsys):
        def write(name, ids):
            path = tmp_path / name
            rows = "".join(f"{i},Headline,Body text\n" for i in ids)
            path.write_text("public_id,title,text\n" + rows, encoding="utf-8")
            return path

        ids = ["x1", "dup", "x2", "dup", "dup", "x1"]
        out = tmp_path / "preds.csv"
        unique = write("unique.csv", [f"u{k}" for k in range(6)])
        assert run("predict", "--in", unique, "--model", nb_bundle, "--out", out, "--threads", 1) == 0
        assert capsys.readouterr().err == ""

        repeated = write("repeated.csv", ids)
        assert run("predict", "--in", repeated, "--model", nb_bundle, "--out", out, "--threads", 1) == 0
        captured = capsys.readouterr()
        assert "3 duplicate public_id" in captured.err and "'dup'" in captured.err
        assert captured.out == f"wrote 6 predictions to {out}\n"
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ids


class TestPrepAndReport:
    def test_prep_matches_library_pipeline(self, tmp_path, train_csv, capsys):
        assert run("prep", "--in", train_csv, "--threads", 1) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0] == "public_id,label,tokens"
        assert len(lines) == 1 + len(LABELED_ROWS)
        assert lines[1].startswith("a1,false,")
        assert "somenuber" in lines[3]  # Home Alone 2 row

    @pytest.mark.parametrize("command", ["prep", "train"])
    def test_lemma_that_cleaning_cannot_make_is_exit_2_naming_the_entry(self, tmp_path, train_csv, command, capsys):
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("officials\tofficial\nrunning\tRun,Ning\nhouses\thome base\n", encoding="utf-8")
        out = tmp_path / "m.bundle"
        extra = ("--model", "nb", "--out", out) if command == "train" else ()
        assert run(command, "--in", train_csv, "--lemmas", lemmas, *extra) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: lemma of 'running' must be lowercase alphabetic: 'Run,Ning'\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["prep", "train"])
    def test_lemma_surface_that_cleaning_cannot_make_is_exit_2(self, tmp_path, train_csv, command, capsys):
        # Cleaning lowercases every token, so this entry could never match.
        lemmas = tmp_path / "lemmas.tsv"
        lemmas.write_text("officials\tofficial\nRunning\tsprint\n", encoding="utf-8")
        out = tmp_path / "m.bundle"
        extra = ("--model", "nb", "--out", out) if command == "train" else ()
        assert run(command, "--in", train_csv, "--lemmas", lemmas, *extra) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: lemma surface must be lowercase alphabetic: 'Running'\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "header, message",
        [
            ("public_id,title,text,text,our_rating", "'text', 'text'"),
            ("public_id,title,text,our rating,our_rating", "'our rating', 'our_rating'"),
        ],
    )
    @pytest.mark.parametrize("command", ["prep", "train"])
    def test_header_that_names_a_read_column_twice_is_exit_2(self, tmp_path, header, message, command, capsys):
        data = tmp_path / "rows.csv"
        data.write_text(f"{header}\na1,Title,first body,second body,true\n", encoding="utf-8")
        out = tmp_path / "m.bundle"
        extra = ("--model", "nb", "--out", out) if command == "train" else ()
        assert run(command, "--in", data, *extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: header names one column more than once: {message}\n"
        assert captured.out == "" and not out.exists()

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

    @pytest.mark.parametrize(
        "cells, code",
        [
            # The total bound: 2**63-1 is the largest total a report may hold.
            ([[2**61 - 1, 0, 0, 0], [0, 2**61, 0, 0], [0, 0, 2**61, 0], [0, 0, 0, 2**61]], 0),
            ([[2**61, 0, 0, 0], [0, 2**61, 0, 0], [0, 0, 2**61, 0], [0, 0, 0, 2**61]], 2),
            # One non-zero cell: three classes have no support and score 0.
            ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 7, 0], [0, 0, 0, 0]], 0),
        ],
        ids=["total-2**63-1", "total-2**63", "one-cell"],
    )
    def test_report_total_bound(self, tmp_path, cells, code, capsys):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"confusion": cells}), encoding="utf-8")
        assert run("report", "--in", report) == code
        captured = capsys.readouterr()
        if code == 0:
            assert "Accuracy=100.000" in captured.out
        else:
            assert captured.err.startswith("error: ") and "2**63" in captured.err

    def test_report_missing_file(self, tmp_path):
        assert run("report", "--in", tmp_path / "nope.json") == 2

    @pytest.mark.parametrize("command", ["prep", "eval", "report"])
    def test_closed_stdout_is_exit_2(self, tmp_path, train_csv, nb_bundle, child_env, monkeypatch, capsys, command):
        # Python starts with sys.stdout None when file descriptor 1 is closed.
        report = tmp_path / "r.json"
        assert run("eval", "--in", train_csv, "--model", nb_bundle, "--format", "json", "--out", report) == 0
        argv = {
            "prep": ["prep", "--in", train_csv],
            "eval": ["eval", "--in", train_csv, "--model", nb_bundle],
            "report": ["report", "--in", report],
        }[command]
        closed = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "verinews.cli", *map(str, argv)],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert (closed.returncode, closed.stderr) == (2, "error: standard output is closed\n")

        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", None)
        assert run(*argv) == 2
        assert capsys.readouterr().err == "error: standard output is closed\n"

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


POOL_ROWS = [
    (f"p{i}", f"Repeating headline number {i}", f"Body text {i} with shared words",
     ["FALSE", "true", "partially false", "other"][i % 4])
    for i in range(40)
]


class TestThreads:
    @pytest.mark.parametrize("model", ["nb", "lr", "sgd"])
    def test_parallel_output_matches_serial(self, tmp_path, model, monkeypatch):
        # A threshold these rows meet, on two cores, so sgd fits on a pool.
        pools = _count_pools(monkeypatch)
        monkeypatch.setattr(models, "PARALLEL_MIN_DOCS", len(POOL_ROWS))
        monkeypatch.setattr(models, "default_workers", lambda: 2)
        train = _write_labeled(tmp_path / "big.csv", POOL_ROWS)
        serial, parallel = tmp_path / "s.bundle", tmp_path / "p.bundle"
        assert run("train", "--model", model, "--in", train, "--out", serial, "--threads", 1) == 0
        assert run("train", "--model", model, "--in", train, "--out", parallel, "--threads", 2) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        assert pools == ([2] if model == "sgd" else [])

    def test_bad_thread_count(self, train_csv, tmp_path):
        assert run("train", "--model", "nb", "--in", train_csv,
                   "--out", tmp_path / "m.bundle", "--threads", 0) == 2

    def test_non_integer_config_threads_is_exit_2(self, train_csv, tmp_path, capsys):
        cfgfile = tmp_path / "v.conf"
        cfgfile.write_text("threads=abc\n", encoding="utf-8")
        assert run("train", "--model", "nb", "--in", train_csv,
                   "--out", tmp_path / "m.bundle", "--config", cfgfile) == 2
        assert "threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["prep", "eval", "predict"])
    @pytest.mark.parametrize("setting", ["flag 0", "config abc"])
    def test_bad_thread_count_is_exit_2_where_cleaning_is_serial(
        self, tmp_path, train_csv, nb_bundle, capsys, command, setting
    ):
        # Only train --model sgd uses the count, but every subcommand that
        # reads data still rejects a bad one.
        how, value = setting.split()
        flags = []
        if how == "flag":
            flags = ["--threads", value]
        else:
            cfgfile = tmp_path / "v.conf"
            cfgfile.write_text(f"threads={value}\n", encoding="utf-8")
            flags = ["--config", cfgfile]
        out = tmp_path / "out"
        extra = ["--out", out] if command == "prep" else ["--model", nb_bundle, "--out", out]
        # A header-only CSV gives the command no rows to work on; the count
        # is still checked.
        header_only = tmp_path / "header.csv"
        header_only.write_text("public_id,title,text\n", encoding="utf-8")
        for data in (train_csv, header_only):
            assert run(command, "--in", data, *extra, *flags) == 2
            assert "thread" in capsys.readouterr().err.lower()
            assert not out.exists()

    def test_precedence_flag_config_env_cores(self, monkeypatch):
        # --threads > config threads= > unset, which sgd_fit reads as all
        # cores. VERINEWS_THREADS is not read.
        parser = cli._build_parser()

        def threads(flags, config):
            args = parser.parse_args(
                ["predict", "--in", "x.csv", "--model", "m", "--out", "p.csv", *flags]
            )
            cli._merge_config(parser, args, config)
            return args.threads

        monkeypatch.setenv("VERINEWS_THREADS", "3")
        assert threads(["--threads", "1"], {"threads": "2"}) == 1
        assert threads([], {"threads": "2"}) == 2
        assert threads([], {}) is None

    @pytest.mark.parametrize("command", ["train", "prep", "eval", "predict", "report"])
    def test_environment_thread_count(self, tmp_path, train_csv, nb_bundle, monkeypatch, capsys, command):
        # VERINEWS_THREADS is not read: no value of it, usable or not,
        # changes an exit code, stdout, stderr or an output file.
        report = tmp_path / "r.json"
        report.write_text('{"confusion": [[3, 1, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]}')
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--model", "sgd", "--in", train_csv, "--out", out],
            "prep": ["prep", "--in", train_csv, "--out", out],
            "eval": ["eval", "--in", train_csv, "--model", nb_bundle, "--format", "json", "--out", out],
            "predict": ["predict", "--in", train_csv, "--model", nb_bundle, "--out", out],
            "report": ["report", "--in", report],
        }[command]

        def outputs(value):
            out.unlink(missing_ok=True)
            if value is None:
                monkeypatch.delenv("VERINEWS_THREADS", raising=False)
            else:
                monkeypatch.setenv("VERINEWS_THREADS", value)
            code = run(*argv)
            captured = capsys.readouterr()
            return code, captured.out, out.read_bytes() if out.exists() else None, captured.err

        expected = outputs(None)
        assert expected[0] == 0 and (expected[2] is not None) == (command != "report")
        for value in ("1", "2", "abc", "1.5", "0", "-1"):
            assert outputs(value) == expected, value


_EPOCH_SNIPPET = """
import json, sys
from verinews import cli

d = sys.argv[1]
common = ["--in", d + "/train.csv", "--threads", "1"]
codes = {"prep": cli.main(["prep", *common, "--out", d + "/prep.csv"])}
for model in ("nb", "lr", "sgd"):
    codes["train " + model] = cli.main(["train", *common, "--model", model, "--out", d + "/new.b"])
codes["eval"] = cli.main(["eval", *common, "--model", d + "/nb.b", "--format", "json", "--out", d + "/r.json"])
codes["predict"] = cli.main(["predict", *common, "--model", d + "/nb.b", "--out", d + "/p.csv"])
codes["report"] = cli.main(["report", "--in", d + "/r.json"])
print(json.dumps(codes))
"""


@pytest.mark.parametrize(
    "value, train_code",
    [("abc", 2), ("-1", 2), ("99999999999999999999", 2), ("253402300800", 2), ("253402300799", 0)],
)
def test_any_source_date_epoch_exits_0_or_2(tmp_path, child_env, value, train_code):
    # A fresh interpreter, as each CLI call has. Importing scipy also parses
    # the variable and used to fail before main ran; no command imports
    # scipy now, but every call still checks the variable itself.
    _write_labeled(tmp_path / "train.csv")
    assert run("train", "--model", "nb", "--in", tmp_path / "train.csv", "--out", tmp_path / "nb.b",
               "--threads", 1) == 0
    env = {**child_env, "SOURCE_DATE_EPOCH": value}
    result = subprocess.run(
        [sys.executable, "-c", _EPOCH_SNIPPET, str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    codes = json.loads(result.stdout.splitlines()[-1])
    assert codes == {
        "prep": 0, "train nb": train_code, "train lr": train_code, "train sgd": train_code,
        "eval": 0, "predict": 0, "report": 0,
    }
    if train_code == 2:
        assert "SOURCE_DATE_EPOCH must be an integer in [0, 253402300799]" in result.stderr
    else:
        assert read_bundle(tmp_path / "new.b").created_at == int(value)


@pytest.mark.parametrize("model", ["lr", "sgd"])
def test_bundle_does_not_depend_on_the_blas_thread_count(tmp_path, child_env, model):
    # Over 10 000 terms, so a BLAS dot product over the weights would be
    # split across OpenBLAS threads, and its rounding would follow the
    # thread count. The CLI keeps a count the caller set, so "2" runs with
    # two BLAS threads.
    rng = random.Random(5)
    syllables = [c + v for c in "bcdfghjklmnprtvz" for v in "aeiou"]
    words = ["".join(rng.choice(syllables) for _ in range(4)) for _ in range(15_000)]
    ratings = ["false", "true", "partially false", "other"]
    lines = ["public_id,title,text,our_rating"]
    for i in range(400):
        body = " ".join(rng.choice(words) for _ in range(100))
        lines.append(f"d{i},Headline {i},{body},{ratings[i % 4]}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / f"{model}-{threads}.b"
        env = {**child_env, "OPENBLAS_NUM_THREADS": threads}
        env.pop("SOURCE_DATE_EPOCH", None)
        result = subprocess.run(
            [sys.executable, "-m", "verinews.cli", "train", "--model", model, "--in", "train.csv",
             "--out", out.name, "--threads", "1"],
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        bundles.append(out.read_bytes())
    assert read_bundle(tmp_path / f"{model}-1.b").vocab.size > 10_000
    assert bundles[0] == bundles[1]


_BLAS_SNIPPET = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
import verinews.cli
threads = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), int(threads)]))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/status and at least two cores for OpenBLAS to start a worker",
)
@pytest.mark.parametrize(
    "preset, order, variable, threads",
    [
        pytest.param(None, "cli first", "1", 1, id="unset"),
        pytest.param("2", "cli first", "2", None, id="preset"),
        pytest.param(None, "numpy first", None, None, id="numpy-first"),
    ],
)
def test_the_cli_starts_one_blas_thread_unless_told_otherwise(tmp_path, child_env, preset, order, variable, threads):
    # child_env copies os.environ, so the variable is removed explicitly.
    env = {k: v for k, v in child_env.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    result = subprocess.run(
        [sys.executable, "-c", _BLAS_SNIPPET, order], capture_output=True, text=True, cwd=tmp_path, env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    seen_variable, seen_threads = json.loads(result.stdout)
    assert seen_variable == variable
    if threads is not None:
        assert seen_threads == threads


class TestInputBytes:
    def test_invalid_utf8_is_exit_2_naming_the_offset(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"public_id,title,text\nx1,ab\xffc,d\n")
        assert run("prep", "--in", bad, "--threads", 1) == 2
        err = capsys.readouterr().err
        assert "UTF-8" in err and "0xff" in err and "offset 26" in err

    def test_cell_over_the_csv_module_default_limit(self, tmp_path):
        # The csv module rejects a field over 131 072 characters unless its
        # limit is raised; a long article is well-formed input.
        words = ["alpha", "beta", "gamma", "delta"]
        rows = [(f"a{i}", f"Headline {i}", " ".join(words[(i + j) % 4] for j in range(40)), "true")
                for i in range(8)]
        rows[0] = ("a0", "Long", "longword " * 26_000, "false")
        path = _write_labeled(tmp_path / "long.csv", rows)
        assert len(rows[0][2]) > 131_072
        limit = csv.field_size_limit()
        assert run("train", "--model", "nb", "--in", path, "--out", tmp_path / "nb.b", "--threads", 1) == 0
        assert run("prep", "--in", path, "--out", tmp_path / "prep.csv", "--threads", 1) == 0
        assert csv.field_size_limit() == limit
        assert read_bundle(tmp_path / "nb.b").vocab.size > 0

    def test_byte_order_mark_before_header(self, tmp_path, nb_bundle):
        text = _write_unlabeled(tmp_path / "plain.csv").read_bytes()
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("predict", "--in", tmp_path / "plain.csv", "--model", nb_bundle, "--out", a) == 0
        assert run("predict", "--in", marked, "--model", nb_bundle, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_and_fifo_read_like_the_file(self, tmp_path, train_csv, child_env):
        # Neither a pipe nor a FIFO is a regular file; both are read as streams.
        def prep(path, stdin=None):
            return subprocess.run(
                [sys.executable, "-m", "verinews.cli", "prep", "--in", str(path), "--threads", "1"],
                input=stdin, capture_output=True, cwd=tmp_path, env=child_env, timeout=300,
            )

        expected = prep(train_csv)
        assert expected.returncode == 0, expected.stderr
        piped = prep("/dev/stdin", stdin=train_csv.read_bytes())
        assert (piped.returncode, piped.stdout) == (0, expected.stdout), piped.stderr
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # The writer blocks until a reader opens the FIFO, so it runs apart
        # and is killed if prep never opens it.
        copy = "import pathlib, sys; pathlib.Path(sys.argv[2]).write_bytes(pathlib.Path(sys.argv[1]).read_bytes())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(train_csv), str(fifo)])
        try:
            from_fifo = prep(fifo)
        finally:
            writer.kill()
            writer.wait(timeout=60)
        assert (from_fifo.returncode, from_fifo.stdout) == (0, expected.stdout), from_fifo.stderr

    def test_directory_as_input_is_exit_2_with_the_os_message(self, tmp_path, capsys):
        folder = tmp_path / "d"
        folder.mkdir()
        assert run("prep", "--in", folder) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and os.strerror(errno.EISDIR) in err, err
        assert run("prep", "--in", "") == 2  # names no file, not the current directory
        assert capsys.readouterr().err == "error: no such file: \n"

    @pytest.mark.parametrize("kind", ["config", "stopwords", "lemmas", "report"])
    def test_byte_order_mark_before_a_side_file(self, tmp_path, train_csv, capsys, kind):
        # Every text input is decoded one way: a leading byte-order mark is
        # skipped, so it changes no exit code, no stdout and no bundle byte.
        text = {
            "config": "seed=43\nthreads=1\n",
            "stopwords": "the\nof\n",
            "lemmas": "went\tgo\nofficials\tofficial\n",
            "report": '{"confusion": [[3, 1, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]}',
        }[kind]
        out = tmp_path / "m.bundle"
        results = []
        for bom in (b"", b"\xef\xbb\xbf"):
            side = tmp_path / f"side-{len(bom)}"
            side.write_bytes(bom + text.encode("utf-8"))
            out.unlink(missing_ok=True)
            if kind == "report":
                code = run("report", "--in", side)
            else:
                model = "sgd" if kind == "config" else "nb"
                code = run("train", "--model", model, "--in", train_csv, "--out", out, f"--{kind}", side)
            bundle = out.read_bytes() if out.exists() else None
            results.append((code, capsys.readouterr().out, bundle))
        assert results[0][0] == 0
        assert results[1] == results[0]

    @pytest.mark.parametrize(
        "command, flag",
        [("eval", "--model"), ("predict", "--model"), ("train", "--stopwords"), ("prep", "--lemmas"),
         ("train", "--config"), ("prep", "--in"), ("report", "--in")],
    )
    def test_missing_path_is_exit_2_naming_it(self, tmp_path, train_csv, nb_bundle, capsys, command, flag):
        missing = tmp_path / "nope"
        paths = {"--in": train_csv, "--model": nb_bundle, "--out": tmp_path / "out"}
        if command == "report":
            paths = {"--in": tmp_path / "r.json"}
        elif command == "train":
            paths["--model"] = "nb"
        elif command == "prep":
            del paths["--model"]
        paths[flag] = missing
        argv = [a for key, value in paths.items() for a in (key, value)]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"
        assert not (tmp_path / "out").exists()


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
        run("report", "--in", d / "in.csv"),
    ]
    assert set(codes) <= {0, 2}, codes


# Bytes for the config file, stop-word list, lemma table and JSON report:
# arbitrary bytes, and runs of the pieces their parsers split on.
_side_pieces = [
    b"\xef\xbb\xbf", b"\x00", b"\xff", b"\r", b"\n", b"\t", b"#", b"=", b" ", b"seed", b"threads", b"min_df",
    b"1", b"0", b"x", b"the", b"went", b"go", b"{", b"}", b'"confusion"', b":", b"[", b"]", b",",
]
_side_bytes = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(_side_pieces), max_size=24).map(b"".join),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_side_bytes, kind=st.sampled_from(["config", "stopwords", "lemmas", "report"]))
def test_any_side_file_bytes_exit_0_or_2(any_input_dir, data, kind):
    d = any_input_dir
    side, out = d / "side", d / "side.bundle"
    side.write_bytes(data)
    out.unlink(missing_ok=True)
    if kind == "report":
        code = run("report", "--in", side)
    else:
        code = run("train", "--model", "nb", "--in", d / "train.csv", "--out", out, f"--{kind}", side)
        assert code == 0 or not out.exists()
    assert code in (0, 2), data


# Positive finite floats across the double range, spread over every decade.
_positive_floats = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(-300, 300).map(lambda e: float(f"1e{e}")),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    model=st.sampled_from(["nb", "lr", "sgd"]),
    values=st.fixed_dictionaries(
        {flag: _positive_floats for flag in ("--lr-c", "--lr-tol", "--sgd-alpha", "--sgd-tol", "--nb-alpha")}
    ),
)
def test_any_numeric_train_flags_exit_0_or_2(any_input_dir, model, values):
    # Warnings are errors under pytest, so a leaked numpy overflow warning
    # surfaces here as an internal error, exit 1.
    d = any_input_dir
    out = d / "flags.bundle"
    out.unlink(missing_ok=True)
    flags = [s for flag, value in values.items() for s in (flag, repr(value))]
    code = run("train", "--model", model, "--in", d / "train.csv", "--out", out, "--threads", 1, *flags)
    assert code in (0, 2), flags
    assert code == 0 or not out.exists()


_IMPORTS_SNIPPET = """
import json, sys
from verinews import cli

watched = ("scipy", "scipy.sparse", "scipy.optimize", "scipy.special", "numpy.ma", "concurrent.futures.process")
d, steps = sys.argv[1], json.loads(sys.argv[2])
loaded = {}
for step, argv in [["import", None], *steps]:
    if argv is not None:
        assert cli.main(argv) == 0, step
    loaded[step] = [name for name in watched if name in sys.modules]
print(json.dumps(loaded))
"""


def test_no_command_imports_the_scipy_package(tmp_path, child_env):
    # Importing scipy.sparse would cost every CLI process about 0.15 s
    # after numpy, and scipy.optimize more; the sparse products load only
    # scipy's compiled kernel file. numpy.ma (about 12 ms) is loaded by
    # np.unique without return_counts. Only a pooled SGD fit (not run here:
    # --threads 1) loads the process-pool module.
    _write_labeled(tmp_path / "train.csv")
    train = ["--in", "train.csv", "--threads", "1"]
    steps = [["prep", ["prep", *train, "--out", "prep.csv"]]]
    steps += [[f"train {m}", ["train", "--model", m, *train, "--out", f"{m}.b"]] for m in ("nb", "lr", "sgd")]
    for m in ("nb", "lr", "sgd"):
        steps.append([f"eval {m}", ["eval", "--model", f"{m}.b", *train, "--format", "json", "--out", f"{m}.json"]])
        steps.append([f"predict {m}", ["predict", "--model", f"{m}.b", *train, "--out", "p.csv"]])
    steps.append(["report", ["report", "--in", "lr.json"]])
    result = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SNIPPET, str(tmp_path), json.dumps(steps)],
        capture_output=True, text=True, cwd=tmp_path, env=child_env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {step: [] for step in ["import", *(name for name, _ in steps)]}


_KERNEL_ORDER_SNIPPET = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "scipy first":
    import scipy.sparse
from verinews.features import CSR, _sparsetools, column_dots, row_dots

rng = np.random.default_rng(3)
dense = rng.normal(size=(30, 40)) * (rng.random((30, 40)) < 0.5)
rows, cols = np.nonzero(dense)
indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(dense, axis=1))))
X = CSR(data=dense[rows, cols], indices=cols, indptr=indptr, shape=dense.shape)
W, u = rng.normal(size=(4, 40)), rng.normal(size=30)
ours = [row_dots(X, W), row_dots(X, W[0]), column_dots(X, u)]

import scipy.sparse
M = scipy.sparse.csr_matrix(dense)
assert _sparsetools() is sys.modules["scipy.sparse._sparsetools"]
assert [a.tobytes() for a in ours] == [(M @ W.T).tobytes(), (M @ W[0]).tobytes(), (M.T @ u).tobytes()]
print(hashlib.sha256(b"".join(a.tobytes() for a in ours)).hexdigest())
"""


def test_kernel_loaded_before_or_after_scipy_sparse_gives_the_same_bytes(child_env):
    # The kernel loaded on its own must serve a later import of
    # scipy.sparse, and one that scipy.sparse loaded must be reused.
    digests = set()
    for order in ("kernel first", "scipy first"):
        result = subprocess.run(
            [sys.executable, "-c", _KERNEL_ORDER_SNIPPET, order],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout.splitlines()[-1])
    assert len(digests) == 1


def test_missing_sparse_kernel_is_an_internal_error(tmp_path, child_env):
    # A scipy without its _sparsetools file is an install fault, not bad
    # input, so exit 1; the message names what was searched.
    train, out, empty = _write_labeled(tmp_path / "train.csv"), tmp_path / "lr.b", tmp_path / "empty"
    empty.mkdir()
    prelude = f"from verinews import features; features._scipy_sparse_dir = lambda: {str(empty)!r}; "
    argv = ["train", "--model", "lr", "--in", train, "--out", out, "--threads", 1]
    child = _run_entry_point(argv, child_env, prelude=prelude)
    version = importlib.metadata.version("scipy")
    assert child.returncode == 1
    assert child.err == f"internal error: scipy {version} has no _sparsetools extension in {empty}\n"
    assert not out.exists()


def _run_entry_point(argv, env, prelude="", stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs):
    """cli.run() in a fresh interpreter, with stdout block-buffered as it is
    for a console script writing to a file or pipe. Sets child.out and
    child.err to what the child wrote to a pipe."""
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    code = f"from verinews import cli, models; {prelude}cli.run()"
    argv = [sys.executable, "-c", code, *map(str, argv)]
    with subprocess.Popen(argv, env=env, text=True, stdout=stdout, stderr=stderr, **kwargs) as child:
        child.out, child.err = child.communicate(timeout=120)
    return child


def test_entry_point_exits_after_the_sgd_pool(tmp_path, child_env, capsys):
    # run() skips interpreter teardown, so it must not leave a pool worker
    # behind: once the child exits, its session holds no process. Its output
    # goes to files, not pipes, whose ends a worker would inherit and hold
    # open.
    train = _write_labeled(tmp_path / "big.csv", POOL_ROWS)
    out = tmp_path / "m.bundle"
    argv = ["train", "--model", "sgd", "--in", train, "--out", out, "--threads", 2]
    stdout, stderr = tmp_path / "stdout", tmp_path / "stderr"
    with open(stdout, "w") as stdout_file, open(stderr, "w") as stderr_file:
        child = _run_entry_point(
            argv, child_env, "models.PARALLEL_MIN_DOCS = 1; models.default_workers = lambda: 2; ",
            stdout=stdout_file, stderr=stderr_file, start_new_session=True,
        )
    try:
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
    assert child.returncode == 0, stderr.read_text()
    pooled = out.read_bytes()
    out.unlink()
    capsys.readouterr()
    assert run(*argv) == 0
    assert out.read_bytes() == pooled
    assert capsys.readouterr().out == stdout.read_text()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_entry_point_full_disk_is_exit_2(tmp_path, train_csv, nb_bundle, child_env, capsys):
    # The report fits the stdout buffer, so the write succeeds and only
    # run()'s flush meets the full disk. Under a tracer run() ends with
    # sys.exit, and interpreter exit must find nothing left to flush.
    report = tmp_path / "r.json"
    assert run("eval", "--in", train_csv, "--model", nb_bundle, "--format", "json", "--out", report) == 0
    capsys.readouterr()
    assert run("report", "--in", report) == 0
    rendered = capsys.readouterr().out
    for prelude in ("", "import sys; sys.settrace(lambda *a: None); "):
        with open("/dev/full", "w") as full:
            child = _run_entry_point(["report", "--in", report], child_env, prelude, stdout=full)
        assert (child.returncode, child.err) == (
            2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        ), prelude
        working = _run_entry_point(["report", "--in", report], child_env, prelude)
        assert (working.returncode, working.out, working.err) == (0, rendered, ""), prelude


def test_entry_point_keeps_argparse_exit_codes(child_env):
    helped = _run_entry_point(["--help"], child_env)
    assert helped.returncode == 0 and helped.out.startswith("usage: verinews"), helped.err
    misused = _run_entry_point(["train", "--bogus"], child_env)
    assert misused.returncode == 2 and "usage: verinews" in misused.err
    assert misused.out == ""


# The --help text of the program and of each subcommand, at 80 columns.
HELP_TEXT = {
    "": """\
usage: verinews [-h] {prep,train,eval,predict,report} ...

news veracity classification toolkit

positional arguments:
  {prep,train,eval,predict,report}
    prep                dump preprocessed tokens as CSV
    train               train a model and write a bundle
    eval                evaluate a bundle on a labeled CSV
    predict             label an unlabeled CSV
    report              render a JSON eval report as text

options:
  -h, --help            show this help message and exit
""",
    "prep": """\
usage: verinews prep [-h] [--config CONFIG] [--threads THREADS]
                     [--stopwords STOPWORDS] [--lemmas LEMMAS]
                     [--placeholder PLACEHOLDER]
                     [--min-token-len MIN_TOKEN_LEN] --in INPUT [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value config file
  --threads THREADS     SGD training pool size (default: all cores)
  --stopwords STOPWORDS
                        stop-word list file (one token per line)
  --lemmas LEMMAS       lemma exceptions file (surface<TAB>lemma)
  --placeholder PLACEHOLDER
                        numeric placeholder token
  --min-token-len MIN_TOKEN_LEN
  --in INPUT            input CSV
  --out OUT             output CSV (default: stdout)
""",
    "train": """\
usage: verinews train [-h] [--config CONFIG] [--threads THREADS]
                      [--stopwords STOPWORDS] [--lemmas LEMMAS]
                      [--placeholder PLACEHOLDER]
                      [--min-token-len MIN_TOKEN_LEN] --in INPUT --out OUT
                      [--model {lr,nb,sgd}] [--features {count,tfidf}]
                      [--force] [--nb-alpha NB_ALPHA] [--lr-c LR_C]
                      [--lr-tol LR_TOL] [--lr-max-iter LR_MAX_ITER]
                      [--sgd-alpha SGD_ALPHA] [--sgd-epochs SGD_EPOCHS]
                      [--sgd-tol SGD_TOL] [--seed SEED] [--min-df MIN_DF]
                      [--max-df MAX_DF] [--max-terms MAX_TERMS]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value config file
  --threads THREADS     SGD training pool size (default: all cores)
  --stopwords STOPWORDS
                        stop-word list file (one token per line)
  --lemmas LEMMAS       lemma exceptions file (surface<TAB>lemma)
  --placeholder PLACEHOLDER
                        numeric placeholder token
  --min-token-len MIN_TOKEN_LEN
  --in INPUT            labeled training CSV
  --out OUT             bundle output path
  --model {lr,nb,sgd}
  --features {count,tfidf}
  --force               allow unusual model/feature pairs
  --nb-alpha NB_ALPHA
  --lr-c LR_C
  --lr-tol LR_TOL
  --lr-max-iter LR_MAX_ITER
  --sgd-alpha SGD_ALPHA
  --sgd-epochs SGD_EPOCHS
  --sgd-tol SGD_TOL
  --seed SEED
  --min-df MIN_DF       vocabulary pruning (default off)
  --max-df MAX_DF       vocabulary pruning (default off)
  --max-terms MAX_TERMS
                        vocabulary cap (default off)
""",
    "eval": """\
usage: verinews eval [-h] [--config CONFIG] [--threads THREADS] --in INPUT
                     --model MODEL [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --config CONFIG       flat key=value config file
  --threads THREADS     SGD training pool size (default: all cores)
  --in INPUT            labeled evaluation CSV
  --model MODEL         bundle path
  --format {text,json}
  --out OUT             write the report here instead of stdout
""",
    "predict": """\
usage: verinews predict [-h] [--config CONFIG] [--threads THREADS] --in INPUT
                        --model MODEL --out OUT

options:
  -h, --help         show this help message and exit
  --config CONFIG    flat key=value config file
  --threads THREADS  SGD training pool size (default: all cores)
  --in INPUT         unlabeled CSV
  --model MODEL      bundle path
  --out OUT          predictions CSV path
""",
    "report": """\
usage: verinews report [-h] [--config CONFIG] --in INPUT

options:
  -h, --help       show this help message and exit
  --config CONFIG  flat key=value config file
  --in INPUT       JSON report path
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXT))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        run(*filter(None, [command, "--help"]))
    assert exited.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]


@pytest.mark.parametrize("command", ["report", "eval", "predict"])
def test_broken_stderr_keeps_the_exit_code(tmp_path, nb_bundle, child_env, monkeypatch, capsys, command):
    # A closed or full stderr loses the message, not the exit code, and no
    # message moves to stdout: input errors still exit 2, and a duplicate-id
    # warning still lets predict write every row.
    dups = tmp_path / "dups.csv"
    dups.write_text("public_id,title,text\nd1,Headline,Body\nd1,Other,Words\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    argv, code, stdout = {
        "report": (["report", "--in", tmp_path / "missing.json"], 2, ""),
        "eval": (["eval", "--in", tmp_path / "missing.csv", "--model", nb_bundle], 2, ""),
        "predict": (["predict", "--in", dups, "--model", nb_bundle, "--out", preds], 0,
                    f"wrote 2 predictions to {preds}\n"),
    }[command]

    def written():
        return preds.read_bytes() if preds.exists() else None

    assert run(*argv) == code
    expected = written()
    assert (expected is not None) == (command == "predict")
    capsys.readouterr()
    redirects = ["2>&-"] + (["2>/dev/full"] if os.path.exists("/dev/full") else [])
    for redirect in redirects:
        preds.unlink(missing_ok=True)
        child = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "verinews.cli", *map(str, argv)],
            capture_output=True, text=True, env=child_env, timeout=120,
        )
        assert (child.returncode, child.stdout, written()) == (code, stdout, expected), redirect

    preds.unlink(missing_ok=True)
    monkeypatch.setattr(sys, "stderr", None)
    assert run(*argv) == code
    assert (capsys.readouterr().out, written()) == (stdout, expected)
