"""Traced run: one untraced CLI pass, then the same commands in-process.

Each command is rebuilt from public verinews calls in the order the CLI's
``train`` / ``eval`` / ``predict`` make them (``parse_csv`` ->
``to_documents`` -> ``preprocess_many`` -> ``build_vocabulary`` ->
``fit_idf`` -> transforms -> ``*_fit`` -> ``save_bundle_bytes``, and
``load_bundle`` -> ... -> ``score_matrix`` -> ``predict_labels`` for
scoring). A span records every call into a module: name
``<module>.<operation>``, start, end, parent span and workload. The
``stack`` calls that models and pipeline make internally are traced by
wrapping that one function for the duration of the replay. Spans stay in
memory and are written to ``.bench_work/spans-*.json`` at the end.

The replay's bundles must equal the CLI's byte for byte, and its labels and
scores must equal the CLI's predictions; a mismatch fails the command.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import harness

# name -> unit. Operation times (<module>.<op>_s) include child spans; a
# module's self_s excludes them. Zero means the workload does not reach it.
PER_LAYER = {
    "corpus.parse_s": "s",
    "corpus.rows": "count",
    "corpus.self_s": "s",
    "textprep.clean_s": "s",
    "textprep.tokens": "count",
    "textprep.distinct_token_ratio": "ratio",
    "textprep.self_s": "s",
    "pipeline.preprocess_s": "s",
    "pipeline.pool_speedup": "ratio",
    "pipeline.score_s": "s",
    "pipeline.self_s": "s",
    "features.vocab_s": "s",
    "features.idf_s": "s",
    "features.vocab_size": "count",
    "features.transform_s": "s",
    "features.stack_s": "s",
    "features.nnz": "count",
    "features.oov_token_rate": "ratio",
    "features.all_oov_docs": "count",
    "features.self_s": "s",
    "models.nb_fit_s": "s",
    "models.lr_fit_s": "s",
    "models.lr_converged": "ratio",
    "models.sgd_fit_s": "s",
    "models.sgd_converged": "ratio",
    "models.self_s": "s",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "persistence.bundle_bytes": "bytes",
    "persistence.self_s": "s",
    "metrics.report_s": "s",
    "metrics.self_s": "s",
    "cli.setup_s": "s",
    "cli.wall_s": "s",
    "cli.train_nb_s": "s",
    "cli.train_lr_s": "s",
    "cli.train_sgd_s": "s",
    "cli.eval_s": "s",
    "cli.predict_s": "s",
    "cli.macro_f1_nb": "ratio",
    "cli.macro_f1_lr": "ratio",
    "cli.macro_f1_sgd": "ratio",
    "cli.self_s": "s",
    "trace.command_s": "s",
    "trace.overhead_ratio": "ratio",
}
LAYERS = ("cli", "corpus", "textprep", "pipeline", "features", "models", "persistence", "metrics")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest in the order they open."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, modules, attr: str, name: str):
        """Trace ``module.attr`` calls made from inside ``modules``."""
        originals = [(m, getattr(m, attr)) for m in modules if hasattr(m, attr)]
        for module, fn in originals:
            setattr(module, attr, self.wrap(name, fn))
        try:
            yield
        finally:
            for module, fn in originals:
                setattr(module, attr, fn)

    def totals(self, roots: tuple[str, ...]) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive time per span name, self time per module), over spans
        under a root span whose name starts with one of ``roots``."""
        root_of: dict[int, Span] = {}
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            root_of[span.id] = span if span.parent is None else root_of[span.parent]
            if span.parent is not None:
                child_time[span.parent] += span.duration
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if root_of[span.id].name.startswith(roots):
                inclusive[span.name] += span.duration
                self_time[span.name.split(".")[0]] += span.duration - child_time[span.id]
        return inclusive, self_time


@dataclass
class Counts:
    rows: int = 0
    nnz: int = 0
    vocab_size: int = 0
    scored_tokens: int = 0
    oov_tokens: int = 0
    all_oov_docs: int = 0
    bundle_bytes: int = 0
    lr_converged: list[bool] = field(default_factory=list)
    sgd_converged: list[bool] = field(default_factory=list)
    first_preprocess_s: dict[str, float] = field(default_factory=dict)  # split -> pooled time


class Replay:
    """Rebuilds CLI commands in-process from public verinews calls."""

    def __init__(self, runner: harness.Runner, tracer: Tracer):
        if str(harness.SRC) not in sys.path:
            sys.path.insert(0, str(harness.SRC))
        self.v = {
            name: importlib.import_module(f"verinews.{name}")
            for name in ("corpus", "textprep", "pipeline", "features", "models", "persistence", "metrics")
        }
        self.runner = runner
        self.tracer = tracer
        self.workers = self.v["pipeline"].default_workers()
        self.counts = Counts()

    def command(self, call: harness.Call, cli: harness.CallResult) -> list[str]:
        """Replay one command and compare with the CLI's output."""
        try:
            with self.tracer.patched((self.v["models"], self.v["pipeline"]), "stack", "features.stack"):
                with self.tracer.span(f"cli.{call.command}"):
                    if call.command == "train":
                        return self._train(call, cli)
                    return self._score(call, cli)
        except Exception:  # noqa: BLE001 - one failed replay must not stop the run
            return [f"replay {call.key}: {traceback.format_exc()}"]

    def _documents(self, call: harness.Call, labeled: bool):
        corpus = self.v["corpus"]
        suffix = "csv" if labeled else "unlabeled.csv"
        raw = (self.runner.workdir / f"{call.split}.{suffix}").read_bytes()
        with self.tracer.span("corpus.parse"):
            records = corpus.parse_csv(raw)
        with self.tracer.span("corpus.to_documents"):
            docs = corpus.to_documents(records, labeled=labeled)
        self.counts.rows += len(docs)
        return docs

    def _preprocess(self, call: harness.Call, docs, cfg):
        with self.tracer.span("pipeline.preprocess") as span:
            clean = self.v["pipeline"].preprocess_many(docs, cfg, self.workers)
        self.counts.first_preprocess_s.setdefault(call.split, span.duration)
        return clean

    def _transform(self, clean, vocab, idf):
        features = self.v["features"]
        with self.tracer.span("features.transform"):
            if idf is None:
                vectors = [features.count_transform(d, vocab) for d in clean]
            else:
                vectors = [features.tfidf_transform(d, vocab, idf) for d in clean]
        self.counts.nnz += sum(v.nnz for v in vectors)
        return vectors

    def _train(self, call: harness.Call, cli: harness.CallResult) -> list[str]:
        t, p, f, m = (self.v[k] for k in ("textprep", "pipeline", "features", "models"))
        persistence = self.v["persistence"]
        docs = self._documents(call, labeled=True)
        with self.tracer.span("textprep.default_config"):
            cfg = t.PipelineConfig.default()
        clean = self._preprocess(call, docs, cfg)
        with self.tracer.span("features.vocab"):
            vocab = f.build_vocabulary(clean)
        labels = [d.label for d in clean]
        feature_kind = p.DEFAULT_FEATURES[call.model]
        idf = None
        if feature_kind == persistence.FEATURE_TFIDF:
            with self.tracer.span("features.idf"):
                idf = f.fit_idf(clean, vocab)
        vectors = self._transform(clean, vocab, idf)
        with self.tracer.span(f"models.{call.model}_fit"):
            if call.model == "nb":
                model = m.nb_fit(vectors, labels)
            elif call.model == "lr":
                model = m.lr_fit(vectors, labels, m.TrainConfig())
            else:
                model = m.sgd_fit(vectors, labels, m.TrainConfig())
        if call.model != "nb":
            getattr(self.counts, f"{call.model}_converged").append(bool(model.converged))
        bundle = persistence.ModelBundle(
            pipeline=cfg,
            vocab=vocab,
            idf=idf,
            model=model,
            feature_kind=feature_kind,
            n_train_docs=len(docs),
        )
        with self.tracer.span("corpus.dataset_stats"):
            self.v["corpus"].dataset_stats(docs)
        with self.tracer.span("persistence.save"):
            blob = persistence.save_bundle_bytes(bundle)
        self.counts.vocab_size = max(self.counts.vocab_size, vocab.size)
        self.counts.bundle_bytes += len(blob)
        if blob != cli.output:
            return [f"replay {call.key}: bundle differs from the CLI's"]
        return []

    def _score(self, call: harness.Call, cli: harness.CallResult) -> list[str]:
        p, persistence, metrics = self.v["pipeline"], self.v["persistence"], self.v["metrics"]
        with self.tracer.span("persistence.load"):
            blob = (self.runner.workdir / f"{call.model}.vnb").read_bytes()
            bundle = persistence.load_bundle(blob)
        self.counts.bundle_bytes += len(blob)
        labeled = call.command == "eval"
        docs = self._documents(call, labeled=labeled)
        clean = self._preprocess(call, docs, bundle.pipeline)
        vectors = self._transform(clean, bundle.vocab, bundle.idf)
        with self.tracer.span("pipeline.score"):
            scores = p.score_matrix(bundle, vectors)
            preds = p.predict_labels(scores)
        self._count_oov(clean, bundle.vocab, vectors)
        if labeled:
            with self.tracer.span("metrics.report"):
                report = metrics.classification_report(
                    metrics.confusion_matrix([d.label for d in docs], preds)
                )
                metrics.report_to_json(report)
            if report.macro_f1 != cli.macro_f1:
                return [f"replay {call.key}: macro-F1 {report.macro_f1} != CLI {cli.macro_f1}"]
            return []
        # The CLI's row formatting, so the replay does the work predict does.
        rows = [
            [doc.id, label.display_name, *[repr(float(s)) for s in row]]
            for doc, label, row in zip(docs, preds, scores)
        ]
        ids, codes, cli_scores = harness.read_predictions(cli.output)
        if ids != [r[0] for r in rows] or codes != [int(label) for label in preds]:
            return [f"replay {call.key}: labels differ from the CLI's predictions"]
        if cli_scores != scores.tolist():
            return [f"replay {call.key}: scores differ from the CLI's predictions"]
        return []

    def _count_oov(self, clean, vocab, vectors):
        lookup = vocab.term_to_index
        for doc in clean:
            self.counts.scored_tokens += len(doc.tokens)
            self.counts.oov_tokens += sum(1 for t in doc.tokens if t not in lookup)
        self.counts.all_oov_docs += sum(1 for v in vectors if v.nnz == 0)

    def serial_clean(self, split_names) -> tuple[int, int]:
        """Clean each split serially with preprocess_document, outside any
        command span; returns (tokens, distinct tokens)."""
        corpus, textprep = self.v["corpus"], self.v["textprep"]
        cfg = textprep.PipelineConfig.default()
        tokens = 0
        distinct: set[str] = set()
        for name in split_names:
            docs = corpus.to_documents(
                corpus.parse_csv((self.runner.workdir / f"{name}.csv").read_bytes()), labeled=True
            )
            with self.tracer.span("textprep.clean"):
                clean = [textprep.preprocess_document(d, cfg) for d in docs]
            for doc in clean:
                tokens += len(doc.tokens)
                distinct.update(doc.tokens)
        return tokens, len(distinct)


def run_traced(runner: harness.Runner, name: str, setup_repeats: int) -> tuple[dict, dict, dict]:
    """One CLI pass (untraced) plus its traced replay; per-layer metrics."""
    workload = runner.workload
    runner.start_setup(setup_repeats)
    setup_s, _ = runner.setup_time()
    cli_pass = harness.run_calls(runner, workload.calls)
    harness.run_check(runner)

    tracer = Tracer(name)
    replay = Replay(runner, tracer)
    for call, cli in zip(workload.calls, cli_pass):
        runner.count(replay.command(call, cli) if not cli.failures else ["CLI call failed"])
    splits = list(dict.fromkeys(call.split for call in workload.calls))
    tokens, distinct = replay.serial_clean(splits)
    spans_file = harness.WORK / f"spans-{name}-seed{runner.seed}.json"
    spans_file.write_text(json.dumps([asdict(s) for s in tracer.spans]))

    inclusive, self_time = tracer.totals(("cli.",))
    clean_s = sum(s.duration for s in tracer.spans if s.name == "textprep.clean")
    pooled_s = sum(replay.counts.first_preprocess_s.get(s, 0.0) for s in splits)
    command_s = sum(s.duration for s in tracer.spans if s.parent is None and s.name.startswith("cli."))
    cli_wall = sum(r.wall_s for r in cli_pass)
    c = replay.counts

    def cli_time(command: str, model: str | None = None) -> float:
        return sum(
            r.wall_s
            for r in cli_pass
            if r.call.command == command and model in (None, r.call.model)
        )

    def cli_f1(model: str) -> float:
        return next((r.macro_f1 for r in cli_pass if r.call.model == model and r.macro_f1 is not None), 0.0)

    metrics = {
        "corpus.parse_s": inclusive["corpus.parse"],
        "corpus.rows": c.rows,
        "textprep.clean_s": clean_s,
        "textprep.tokens": tokens,
        "textprep.distinct_token_ratio": distinct / tokens if tokens else 0.0,
        "pipeline.preprocess_s": inclusive["pipeline.preprocess"],
        "pipeline.pool_speedup": clean_s / pooled_s if pooled_s else 0.0,
        "pipeline.score_s": inclusive["pipeline.score"],
        "features.vocab_s": inclusive["features.vocab"],
        "features.idf_s": inclusive["features.idf"],
        "features.vocab_size": c.vocab_size,
        "features.transform_s": inclusive["features.transform"],
        "features.stack_s": inclusive["features.stack"],
        "features.nnz": c.nnz,
        "features.oov_token_rate": c.oov_tokens / c.scored_tokens if c.scored_tokens else 0.0,
        "features.all_oov_docs": c.all_oov_docs,
        "models.nb_fit_s": inclusive["models.nb_fit"],
        "models.lr_fit_s": inclusive["models.lr_fit"],
        "models.lr_converged": sum(c.lr_converged) / len(c.lr_converged) if c.lr_converged else 0.0,
        "models.sgd_fit_s": inclusive["models.sgd_fit"],
        "models.sgd_converged": sum(c.sgd_converged) / len(c.sgd_converged) if c.sgd_converged else 0.0,
        "persistence.save_s": inclusive["persistence.save"],
        "persistence.load_s": inclusive["persistence.load"],
        "persistence.bundle_bytes": c.bundle_bytes,
        "metrics.report_s": inclusive["metrics.report"],
        "cli.setup_s": setup_s,
        "cli.wall_s": cli_wall,
        "cli.train_nb_s": cli_time("train", "nb"),
        "cli.train_lr_s": cli_time("train", "lr"),
        "cli.train_sgd_s": cli_time("train", "sgd"),
        "cli.eval_s": cli_time("eval"),
        "cli.predict_s": cli_time("predict"),
        "cli.macro_f1_nb": cli_f1("nb"),
        "cli.macro_f1_lr": cli_f1("lr"),
        "cli.macro_f1_sgd": cli_f1("sgd"),
        "trace.command_s": command_s,
        "trace.overhead_ratio": command_s / (cli_wall - len(cli_pass) * setup_s),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    metrics = {k: metrics[k] for k in PER_LAYER}
    detail = {"spans_file": spans_file.name, "self_s": dict(self_time), "error_rate": runner.failed / runner.attempted}
    return metrics, PER_LAYER, detail
