"""Command-line entry point: prep, train, eval, predict, report.

Exit codes are a stable contract: 0 success, 1 internal failure, 2 usage
or input error. Option precedence is flags > config file > defaults; the
config file is flat key=value text, and each value goes through the type
and choices of the flag that spells it. The SGD worker count comes from
--threads or a config threads= line; unset, models.sgd_fit uses all cores.

Every input path (the CSV, --config, --stopwords, --lemmas, a bundle, and
the JSON report) is read by _read_bytes, so a pipe reads like a file; a
path that names nothing exits 2 with "no such file", and any other OS
error (a directory, say) with the OS message. Text goes through
corpus.decode_utf8, so each text input is strict UTF-8 with one leading
byte-order mark skipped.

The program starts at run() (python -m verinews.cli, or the verinews
console script), which calls main, flushes stdout and stderr and ends the
process without interpreter teardown. main returns the exit code and
suits callers in the same process. prep, eval and report write to stdout,
and exit 2 when it is closed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from pathlib import Path
from typing import NoReturn

# Importing numpy starts OpenBLAS's worker pool, one thread per core, and a
# worker then spins on its core for a while. verinews makes no BLAS call
# that OpenBLAS would split across threads, so the pool only costs start-up
# and CPU time. This runs before the first import that loads numpy; a count
# the caller set wins, and a program that loaded numpy first is left alone.
# SGD pool workers inherit the setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .corpus import Label, RawRecord, dataset_stats, decode_utf8, format_csv, parse_csv, to_documents
from .errors import VerinewsError, VocabularyError
from .metrics import render_confusion, render_report, report_from_json, report_to_json
from .models import KIND_NB, TrainConfig
from .persistence import FEATURE_COUNT, FEATURE_TFIDF, load_bundle, write_bundle
from .pipeline import DEFAULT_FEATURES, evaluate_bundle, predict_bundle, train_bundle
from .textprep import PipelineConfig, parse_lemma_exceptions, parse_stopwords, preprocess_corpus

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
        # Only train --model sgd uses the count; prep, eval and predict reject
        # a bad one too, so a config file shared with train fails alike.
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise UsageError(f"thread count must be >= 1, got {args.threads}")
        return args.run(args)
    except (UsageError, VerinewsError, OSError) as exc:
        _print_stderr(f"error: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort internal failure
        _print_stderr(f"internal error: {exc}")
        return 1


def run() -> NoReturn:
    """The program's entry point: main(), then a flush of stdout and stderr
    and os._exit, as mypy's util.hard_exit does.

    Every output file is closed and every SGD pool shut down before main
    returns, so interpreter teardown has nothing left to do but free numpy
    and the loaded modules: 14 ms a call on a 2-core host, the median gap
    between fresh interpreters that import the CLI and the sparse kernel
    and end with sys.exit or os._exit (20 alternated pairs). A stdout flush
    that fails exits 2 with the OS error, unless main already failed; a
    stderr that fails loses its text, not the exit code; the failed stream
    is set to None in sys, so nothing is left to flush at exit. Under a
    tracer or profiler (coverage, cProfile), which write their results at
    exit, run ends with sys.exit instead. cProfile's runner discards that
    SystemExit, so under python -m cProfile the exit code is lost.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help, or a usage error
        code = exc.code
    for name in ("stdout", "stderr"):
        try:
            if getattr(sys, name) is not None:
                getattr(sys, name).flush()
        except OSError as exc:
            setattr(sys, name, None)
            if code == 0 and name == "stdout":
                code = 2
                _print_stderr(f"error: {exc}")
    if _observed():
        sys.exit(code)
    os._exit(code)


def _print_stderr(line: str):
    """Print line to stderr. Python sets sys.stderr to None when it starts
    with file descriptor 2 closed; a closed, full or missing stderr drops
    the line, so the exit code stays the one a working stderr gives."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            print(line, file=sys.stderr)


def _observed() -> bool:
    # Python 3.12's cProfile hooks sys.monitoring instead of sys.setprofile.
    monitoring = getattr(sys, "monitoring", None)
    tools = [monitoring.get_tool(i) for i in range(6)] if monitoring else []
    return bool(sys.gettrace() or sys.getprofile() or any(tools))


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
    # One flag per TrainConfig field, named and typed by it: lr_C is --lr-c.
    for f in dataclasses.fields(TrainConfig):
        key = f.name.lower()
        train.add_argument(f"--{key.replace('_', '-')}", type=type(f.default), dest=key)
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
    _write_text(args.out, format_csv([["public_id", "label", "tokens"], *rows]))
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
            **_given(args, "min_df", "max_df", "max_terms"),
        )
    except VocabularyError as exc:
        raise UsageError(f"--{exc.param.replace('_', '-')}: {exc}") from exc
    write_bundle(bundle, args.out)

    counts = " ".join(f"{label.display_name}={n}" for label, n in dataset_stats(docs).items())
    print(f"trained {model_kind} on {len(docs)} documents ({feature_kind})")
    print(f"class counts: {counts}")
    print(f"vocabulary size: {bundle.vocab.size}")
    if bundle.model_kind != KIND_NB:
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
    _write_text(args.out, text)
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(_read_bytes(args.model))
    docs = to_documents(_read_records(args.input), labeled=False)
    _warn_duplicate_ids([doc.id for doc in docs])
    preds, scores = predict_bundle(bundle, docs)
    rows = [
        [doc.id, label.display_name, *map(repr, row)]
        for doc, label, row in zip(docs, preds, scores.tolist())
    ]
    header = ["public_id", "predicted_label", *(f"score_{label.display_name}" for label in Label)]
    Path(args.out).write_text(format_csv([header, *rows]), encoding="utf-8")
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
        _print_stderr(
            f"warning: {len(repeats)} duplicate public_id value(s), first {repeats[0]!r}; "
            "each row is predicted"
        )


def _cmd_report(args) -> int:
    report = report_from_json(_read_text(args.input))
    _write_text(None, render_report(report) + "\n" + render_confusion(report.confusion))
    return 0


# --- option plumbing ------------------------------------------------------


def _read_records(path: str) -> list[RawRecord]:
    return parse_csv(_read_bytes(path))


def _read_text(path: str) -> str:
    return decode_utf8(_read_bytes(path))


def _read_bytes(path: str) -> bytes:
    try:  # not Path(path), which reads "" as the current directory
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None


def _write_text(path: str | None, text: str):
    """Write text to path, or to stdout when path is None. Python sets
    sys.stdout to None when it starts with file descriptor 1 closed."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    elif sys.stdout is None:
        raise UsageError("standard output is closed")
    else:
        sys.stdout.write(text)


def _load_config_file(path: str | None, keys: set[str]) -> dict[str, str]:
    if not path:
        return {}
    values, line_of = {}, {}
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
        if key in line_of:
            raise UsageError(f"{path}:{i}: config key {key!r} is already set on line {line_of[key]}")
        values[key], line_of[key] = value, i
    return values


def _given(args, *keys: str) -> dict:
    """The keys that a flag or the config file sets, with their values; the
    callee's own defaults cover the rest."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _resolve_train_config(args) -> TrainConfig:
    """TrainConfig fields are set by the key that spells them in lower case
    (lr_C by --lr-c or lr_c=); a bad value raises SettingError."""
    names = {f.name.lower(): f.name for f in dataclasses.fields(TrainConfig)}
    return TrainConfig(**{names[key]: value for key, value in _given(args, *names).items()})


def _resolve_pipeline(args) -> PipelineConfig:
    changes = _given(args, "min_token_len")
    if args.placeholder is not None:
        changes["numeric_placeholder"] = args.placeholder
    if args.stopwords:
        changes["stopword_list"] = parse_stopwords(_read_text(args.stopwords))
    if args.lemmas:
        changes["lemma_exceptions"] = parse_lemma_exceptions(_read_text(args.lemmas))
    return dataclasses.replace(PipelineConfig.default(), **changes)


def _source_date_epoch() -> int | None:
    # Reproducible-builds convention: record a creation time only when the
    # environment pins one, keeping rerun outputs byte-identical. It is
    # checked before training starts, so a bad value exits 2 before any fit.
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
    run()
