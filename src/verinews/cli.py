"""Command-line entry point: prep, train, eval, predict, report.

Exit codes are a stable contract: 0 success, 1 internal failure, 2 usage
or input error. Option precedence is flags > config file > defaults; the
config file is flat key=value text, and each value goes through the type
and choices of the flag that spells it. VERINEWS_THREADS sets the worker
count when neither --threads nor a config threads= line does.

Every input path (the CSV, --config, --stopwords, --lemmas, a bundle, and
the JSON report) is read by _read_bytes, which exits 2 with "no such file"
when the path names no file; text goes through corpus.decode_utf8, so each
text input is strict UTF-8 with one leading byte-order mark skipped.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

# Importing numpy starts OpenBLAS's worker pool, one thread per core, and a
# worker then spins on its core for a while. verinews makes no BLAS call
# that OpenBLAS would split across threads, so the pool only costs start-up
# and CPU time. This runs before the first import that loads numpy; a count
# the caller set wins, and a program that loaded numpy first is left alone.
# SGD pool workers inherit the setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import Label, RawRecord, dataset_stats, decode_utf8, parse_csv, to_documents
from .errors import VerinewsError, VocabularyError
from .metrics import render_confusion, render_report, report_from_json, report_to_json
from .models import LinearModel, TrainConfig, default_workers
from .persistence import FEATURE_COUNT, FEATURE_TFIDF, load_bundle, write_bundle
from .pipeline import DEFAULT_FEATURES, evaluate_bundle, predict_bundle, train_bundle
from .textprep import PipelineConfig, parse_lemma_exceptions, parse_stopwords, preprocess_corpus

THREADS_ENV = "VERINEWS_THREADS"

# 9999-12-31T23:59:59Z, the last second that stdlib time functions format.
MAX_SOURCE_DATE_EPOCH = 253402300799

# Flags that name this run's files or switches. Every other flag of every
# subcommand may also be given as a config key, spelled as its dest.
_FLAG_ONLY_KEYS = {"help", "config", "input", "out", "force"}


class UsageError(Exception):
    """Bad flags or unusable input; maps to exit code 2."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(getattr(args, "config", None), _config_keys(parser))
        _merge_config(parser, args, config)
        if hasattr(args, "threads"):
            args.threads = _resolve_threads(args)
        return args.run(args)
    except (UsageError, VerinewsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verinews", description="news veracity classification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prep", help="dump preprocessed tokens as CSV")
    _common_flags(prep)
    _pipeline_flags(prep)
    prep.add_argument("--in", dest="input", required=True, help="input CSV")
    prep.add_argument("--out", help="output CSV (default: stdout)")
    prep.set_defaults(run=_cmd_prep)

    train = sub.add_parser("train", help="train a model and write a bundle")
    _common_flags(train)
    _pipeline_flags(train)
    train.add_argument("--in", dest="input", required=True, help="labeled training CSV")
    train.add_argument("--out", required=True, help="bundle output path")
    train.add_argument("--model", choices=sorted(DEFAULT_FEATURES))
    train.add_argument("--features", choices=[FEATURE_COUNT, FEATURE_TFIDF])
    train.add_argument("--force", action="store_true", help="allow unusual model/feature pairs")
    train.add_argument("--nb-alpha", type=float, dest="nb_alpha")
    train.add_argument("--lr-c", type=float, dest="lr_c")
    train.add_argument("--lr-tol", type=float, dest="lr_tol")
    train.add_argument("--lr-max-iter", type=int, dest="lr_max_iter")
    train.add_argument("--sgd-alpha", type=float, dest="sgd_alpha")
    train.add_argument("--sgd-epochs", type=int, dest="sgd_epochs")
    train.add_argument("--sgd-tol", type=float, dest="sgd_tol")
    train.add_argument("--seed", type=int)
    train.add_argument("--min-df", type=int, dest="min_df", help="vocabulary pruning (default off)")
    train.add_argument("--max-df", type=int, dest="max_df", help="vocabulary pruning (default off)")
    train.add_argument("--max-terms", type=int, dest="max_terms", help="vocabulary cap (default off)")
    train.set_defaults(run=_cmd_train)

    ev = sub.add_parser("eval", help="evaluate a bundle on a labeled CSV")
    _common_flags(ev)
    ev.add_argument("--in", dest="input", required=True, help="labeled evaluation CSV")
    ev.add_argument("--model", required=True, help="bundle path")
    ev.add_argument("--format", choices=["text", "json"])
    ev.add_argument("--out", help="write the report here instead of stdout")
    ev.set_defaults(run=_cmd_eval)

    pred = sub.add_parser("predict", help="label an unlabeled CSV")
    _common_flags(pred)
    pred.add_argument("--in", dest="input", required=True, help="unlabeled CSV")
    pred.add_argument("--model", required=True, help="bundle path")
    pred.add_argument("--out", required=True, help="predictions CSV path")
    pred.set_defaults(run=_cmd_predict)

    rep = sub.add_parser("report", help="render a JSON eval report as text")
    rep.add_argument("--config", help="flat key=value config file")
    rep.add_argument("--in", dest="input", required=True, help="JSON report path")
    rep.set_defaults(run=_cmd_report)
    return parser


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _config_keys(parser: argparse.ArgumentParser) -> set[str]:
    dests = {a.dest for sub in _subparsers(parser).values() for a in sub._actions}
    return dests - _FLAG_ONLY_KEYS


def _merge_config(parser: argparse.ArgumentParser, args, config: dict[str, str]):
    """Set each option of the running subcommand that no flag set from its
    config key, converted and checked as argparse does the flag."""
    for action in _subparsers(parser)[args.command]._actions:
        if action.dest not in config or getattr(args, action.dest) is not None:
            continue
        raw = config[action.dest]
        try:
            value = (action.type or str)(raw)
        except ValueError as exc:
            raise UsageError(f"config key {action.dest!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise UsageError(f"config key {action.dest!r}: {raw!r} is not one of {choices}")
        setattr(args, action.dest, value)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--threads", type=int, help="SGD training pool size (default: all cores)")


def _pipeline_flags(p: argparse.ArgumentParser):
    p.add_argument("--stopwords", help="stop-word list file (one token per line)")
    p.add_argument("--lemmas", help="lemma exceptions file (surface<TAB>lemma)")
    p.add_argument("--placeholder", help="numeric placeholder token")
    p.add_argument("--min-token-len", type=int, dest="min_token_len")


# --- commands -------------------------------------------------------------


def _cmd_prep(args) -> int:
    records = _read_records(args.input)
    labeled = bool(records) and records[0].rating is not None
    docs = to_documents(records, labeled=labeled)
    cfg = _resolve_pipeline(args)
    clean = preprocess_corpus(docs, cfg)

    rows = [
        [d.id, d.label.display_name if d.label is not None else "", ",".join(d.tokens)]
        for d in clean
    ]
    text = _format_csv([["public_id", "label", "tokens"], *rows])
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(args) -> int:
    model_kind = args.model
    if model_kind is None:
        raise UsageError("--model is required (nb, lr or sgd)")
    feature_kind = args.features or DEFAULT_FEATURES[model_kind]
    if DEFAULT_FEATURES[model_kind] != feature_kind and not args.force:
        raise UsageError(
            f"{model_kind} expects {DEFAULT_FEATURES[model_kind]} features; "
            f"pass --force to train on {feature_kind}"
        )

    records = _read_records(args.input)
    if records and records[0].rating is None:
        raise UsageError(f"{args.input}: no rating column; training needs labels")
    docs = to_documents(records, labeled=True)

    try:
        bundle = train_bundle(
            docs,
            model_kind,
            feature_kind,
            pipeline_cfg=_resolve_pipeline(args),
            train_cfg=_resolve_train_config(args),
            workers=args.threads,
            created_at=_source_date_epoch(),
            **_given(args, "nb_alpha", "min_df", "max_df", "max_terms"),
        )
    except VocabularyError as exc:
        raise UsageError(f"--{exc.param.replace('_', '-')}: {exc}") from exc
    write_bundle(bundle, args.out)

    stats = dataset_stats(docs)
    counts = " ".join(f"{label.display_name}={n}" for label, n in stats.counts.items())
    print(f"trained {model_kind} on {stats.total} documents ({feature_kind})")
    print(f"class counts: {counts}")
    print(f"vocabulary size: {bundle.vocab.size}")
    if isinstance(bundle.model, LinearModel):
        print(f"converged: {'yes' if bundle.model.converged else 'NO (hit iteration limit)'}")
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    bundle = load_bundle(_read_bytes(args.model))
    records = _read_records(args.input)
    if not records:
        raise UsageError(f"{args.input}: no data rows to evaluate")
    if records[0].rating is None:
        raise UsageError(f"{args.input}: no rating column; evaluation needs labels")
    docs = to_documents(records, labeled=True)
    report = evaluate_bundle(bundle, docs)

    if args.format == "json":
        text = report_to_json(report)
    else:
        title = f"{bundle.model_kind} on {bundle.feature_kind} features"
        text = render_report(report) + "\n" + render_confusion(report.confusion, title)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(_read_bytes(args.model))
    docs = to_documents(_read_records(args.input), labeled=False)
    _warn_duplicate_ids([doc.id for doc in docs])
    preds, scores = predict_bundle(bundle, docs)
    rows = [
        [doc.id, label.display_name, *[repr(float(s)) for s in row]]
        for doc, label, row in zip(docs, preds, scores)
    ]
    header = ["public_id", "predicted_label", *(f"score_{label.display_name}" for label in Label)]
    Path(args.out).write_text(_format_csv([header, *rows]), encoding="utf-8")
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def _warn_duplicate_ids(ids: list[str]):
    """Name the first repeated public_id on stderr; every row is still
    predicted, in input order."""
    seen: set[str] = set()
    repeats = []
    for public_id in ids:
        if public_id in seen:
            repeats.append(public_id)
        seen.add(public_id)
    if repeats:
        print(
            f"warning: {len(repeats)} duplicate public_id value(s), first {repeats[0]!r}; "
            "each row is predicted",
            file=sys.stderr,
        )


def _cmd_report(args) -> int:
    report = report_from_json(_read_text(args.input))
    sys.stdout.write(render_report(report))
    sys.stdout.write("\n")
    sys.stdout.write(render_confusion(report.confusion))
    return 0


# --- option plumbing ------------------------------------------------------


def _read_records(path: str) -> list[RawRecord]:
    return parse_csv(_read_bytes(path))


def _read_text(path: str) -> str:
    return decode_utf8(_read_bytes(path))


def _read_bytes(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {path}")
    return p.read_bytes()


def _format_csv(rows: list[list[str]]) -> str:
    import io

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _load_config_file(path: str | None, keys: set[str]) -> dict[str, str]:
    if not path:
        return {}
    values = {}
    for i, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise UsageError(f"{path}:{i}: expected key=value, got {line!r}")
        if key not in keys:
            raise UsageError(f"{path}:{i}: unknown config key {key!r}")
        values[key] = value
    return values


def _given(args, *keys: str) -> dict:
    """The keys that a flag or the config file sets, with their values; the
    callee's own defaults cover the rest."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _resolve_train_config(args) -> TrainConfig:
    """TrainConfig fields are set by the key that spells them in lower case
    (lr_C by --lr-c or lr_c=)."""
    names = {f.name.lower(): f.name for f in dataclasses.fields(TrainConfig)}
    try:
        return TrainConfig(**{names[key]: value for key, value in _given(args, *names).items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_threads(args) -> int:
    """--threads or config threads= > VERINEWS_THREADS > all cores.

    main checks the count for every subcommand that declares --threads,
    before the command runs. Only train --model sgd uses it; prep, eval and
    predict reject a bad count all the same, so a config file or environment
    shared with train fails the same way on each.
    """
    workers = args.threads
    if workers is None and os.environ.get(THREADS_ENV):
        try:
            workers = int(os.environ[THREADS_ENV])
        except ValueError as exc:
            raise UsageError(f"{THREADS_ENV}: {exc}") from exc
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise UsageError(f"thread count must be >= 1, got {workers}")
    return workers


def _resolve_pipeline(args) -> PipelineConfig:
    changes = _given(args, "min_token_len")
    if args.placeholder is not None:
        changes["numeric_placeholder"] = args.placeholder
    try:
        if args.stopwords:
            changes["stopword_list"] = parse_stopwords(_read_text(args.stopwords))
        if args.lemmas:
            changes["lemma_exceptions"] = parse_lemma_exceptions(_read_text(args.lemmas))
        return dataclasses.replace(PipelineConfig.default(), **changes)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _source_date_epoch() -> int | None:
    # Reproducible-builds convention: record a creation time only when the
    # environment pins one, keeping rerun outputs byte-identical. The LR fit
    # imports scipy, whose import parses this variable too, so it is checked
    # before training starts.
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= MAX_SOURCE_DATE_EPOCH:
        raise UsageError(
            f"SOURCE_DATE_EPOCH must be an integer in [0, {MAX_SOURCE_DATE_EPOCH}], got {raw!r}"
        )
    return value


if __name__ == "__main__":
    sys.exit(main())
