"""verinews benchmark: the CLI end to end, and a traced per-layer replay.

``--trace 0`` launches the real CLI (``python -m verinews.cli``) as child
processes, one at a time, on corpora generated from ``--seed``. It runs the
workload's calls in order, and again from the top, until ``--seconds``
have been measured, and reports end-to-end metrics built from the median
of each call's samples. ``--trace 1`` runs the calls once and then the
same commands in-process with a span around each call into a verinews
module (see ``replay.py``), and reports the per-layer metrics and the
tracing overhead.

On a shared host the CPU speed one process gets can drift by up to a
factor of two over minutes, and a whole run can fall in a slow stretch.
So every child process runs between two speed probes, a fixed
pure-Python loop timed in this process, and the end-to-end times are
scaled to a host on which the probe takes ``REFERENCE_PROBE_S``: scaled =
measured x REFERENCE_PROBE_S / (mean of the probes before and after the
call). The probe does not touch verinews, so a change to the program
cannot move it. Unscaled wall-clock figures and each call's speed are
kept in the result file and printed, and the per-layer metrics of
``--trace 1`` are unscaled.

Every CLI call is checked (exit code, byte-identical bundles and
predictions across passes, ids and row order of predictions, confusion
total of eval reports, ``--threads 1`` against the default worker count);
a call that fails a check counts as failed. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Host
context and per-call samples go to ``.bench_work/result-*.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy
from corpus_gen import CorpusGenerator, Split

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3  # set-up probes before the calls; one more starts each later pass
PROBE_STEPS = 1_000_000
REFERENCE_PROBE_S = 0.05  # the probe's time on the host the scaled times refer to
CHECK_ROWS = 612  # documents in the --threads 1 comparison
CHECK_INPUT = "check.unlabeled.csv"
RUN_DEADLINE_S = 170.0
SETUP_SNIPPET = (
    "import verinews\nfrom verinews.textprep import PipelineConfig\nPipelineConfig.default()\n"
)
PREDICT_HEADER = [
    "public_id",
    "predicted_label",
    "score_false",
    "score_true",
    "score_partially_false",
    "score_other",
]
LABEL_NAMES = ("false", "true", "partially_false", "other")

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "score_s": "s",
    "docs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "macro_f1": "ratio",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: train a model kind, or score with its bundle."""

    command: str  # "train", "eval" or "predict"
    model: str  # "nb", "lr" or "sgd"
    split: str  # the generated split it reads

    @property
    def key(self) -> str:
        return f"{self.command}_{self.model}_{self.split}"


@dataclass(frozen=True)
class Workload:
    """A workload's inputs and calls; BENCHMARK.json says why each exists."""

    splits: tuple[tuple[str, int, int, float], ...]  # (name, docs, mean body tokens, signal)
    calls: tuple[Call, ...]  # one pass
    check: Call  # a predict whose output must not depend on --threads


# (mean body tokens, share of class-indicative tokens). The shares keep
# every model's macro-F1 steady across seeds; a claim has a 4-10 token title
# on top of its body.
ARTICLE = (400, 0.08)
CLAIM = (14, 0.2)

WORKLOADS = {
    "paper_train": Workload(
        splits=(("train", 1264, *ARTICLE), ("test", 612, *ARTICLE)),
        calls=(
            Call("train", "nb", "train"),
            Call("train", "lr", "train"),
            Call("train", "sgd", "train"),
            Call("eval", "nb", "test"),
            Call("eval", "lr", "test"),
            Call("eval", "sgd", "test"),
        ),
        check=Call("predict", "nb", "test"),
    ),
    "short_claims": Workload(
        splits=(("train", 12640, *CLAIM), ("test", 6120, *CLAIM)),
        calls=(
            Call("train", "nb", "train"),
            Call("train", "sgd", "train"),
            Call("predict", "sgd", "test"),
        ),
        check=Call("predict", "sgd", "test"),
    ),
}


@dataclass
class CallResult:
    call: Call
    wall_s: float
    cpu_s: float
    rss_mb: float
    speed: float  # host speed during the call, REFERENCE_PROBE_S / probe time
    docs: int
    failures: list[str] = field(default_factory=list)
    macro_f1: float | None = None
    output: bytes = b""  # the bundle, report or predictions the call wrote

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def scaled_cpu_s(self) -> float:
        return self.cpu_s * self.speed


class Children:
    """Runs child processes one at a time, each in its own session, and
    kills the whole session when the run's deadline passes."""

    def __init__(self, cwd: Path, deadline: float):
        self.cwd = cwd
        self.deadline = deadline
        self.env = child_env()
        self._pid: int | None = None

    def run(self, argv: list[str], stdout: Path) -> tuple[int, float, float, float]:
        """(exit code, wall s, user+sys CPU s incl. reaped descendants, max RSS MB)."""
        timeout = max(0.5, self.deadline - time.monotonic())
        previous = signal.signal(signal.SIGALRM, self._kill)
        try:
            with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    argv, cwd=self.cwd, env=self.env, stdout=out, stderr=err, start_new_session=True
                )
                self._pid = proc.pid
                signal.setitimer(signal.ITIMER_REAL, timeout)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    self._pid = None
                wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            signal.signal(signal.SIGALRM, previous)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def _kill(self, signum, frame):
        if self._pid is not None:
            try:
                os.killpg(self._pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def child_env() -> dict[str, str]:
    """The caller's environment with an absolute src path and no overrides
    of the worker count or the bundle timestamp."""
    env = {k: v for k, v in os.environ.items() if k not in ("VERINEWS_THREADS", "SOURCE_DATE_EPOCH")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


class Runner:
    """Generates a workload's inputs and runs its CLI calls with checks."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.children = Children(workdir, deadline)
        gen = CorpusGenerator(seed)
        self.splits: dict[str, Split] = {name: gen.split(name, *shape) for name, *shape in workload.splits}
        for name, split in self.splits.items():
            (workdir / f"{name}.csv").write_bytes(split.csv(labeled=True))
            (workdir / f"{name}.unlabeled.csv").write_bytes(split.csv(labeled=False))
        check = self.splits[workload.check.split]
        (workdir / CHECK_INPUT).write_bytes(check.csv(labeled=False, rows=CHECK_ROWS))
        self.attempted = 0
        self.failed = 0
        self._fingerprints: dict[str, str] = {}
        self._probe_s = calibrate()
        self.setup_samples: list[tuple[float, float]] = []

    def run_child(self, argv: list[str], stdout: Path) -> tuple[int, float, float, float, float]:
        """``Children.run`` followed by a speed probe; appends the host speed
        over the call, from the probes before and after it."""
        code, wall, cpu, rss = self.children.run(argv, stdout)
        after = calibrate()
        speed = 2 * REFERENCE_PROBE_S / (self._probe_s + after)
        self._probe_s = after
        return code, wall, cpu, rss, speed

    def setup_probe(self, keep: bool = True):
        """Time a fresh interpreter that imports verinews and builds the
        default pipeline config; ``keep`` adds the (wall, scaled) time to
        ``setup_samples``."""
        argv = [sys.executable, "-c", SETUP_SNIPPET]
        code, wall, _, _, speed = self.run_child(argv, self.workdir / "setup.out")
        self.count([] if code == 0 else [f"setup probe exited {code}"])
        if keep:
            self.setup_samples.append((wall, wall * speed))

    def start_setup(self, repeats: int):
        """One untimed warm-up probe, then ``repeats`` kept ones."""
        self.setup_probe(keep=False)
        for _ in range(repeats):
            self.setup_probe()

    def setup_time(self) -> tuple[float, float]:
        """(wall, scaled) median of the kept set-up probes."""
        walls, scaled = zip(*self.setup_samples)
        return statistics.median(walls), statistics.median(scaled)

    def call(self, call: Call, threads: int | None = None, check_rows: bool = False) -> CallResult:
        """Run one CLI call and check its output; ``check_rows`` predicts
        the check input instead of the whole split."""
        split = self.splits[call.split]
        bundle = self.workdir / f"{call.model}.vnb"
        rows = min(CHECK_ROWS, len(split.ids)) if check_rows else len(split.ids)
        if call.command == "train":
            args = ["train", "--in", f"{call.split}.csv", "--out", bundle.name, "--model", call.model]
        elif call.command == "eval":
            args = ["eval", "--in", f"{call.split}.csv", "--model", bundle.name, "--format", "json"]
        else:
            source = CHECK_INPUT if check_rows else f"{call.split}.unlabeled.csv"
            args = ["predict", "--in", source, "--model", bundle.name, "--out", "predictions.csv"]
        if threads is not None:
            args += ["--threads", str(threads)]
        stdout = self.workdir / "call.out"
        code, wall, cpu, rss, speed = self.run_child([sys.executable, "-m", "verinews.cli", *args], stdout)
        result = CallResult(call, wall, cpu, rss, speed, rows)
        if code != 0:
            stderr = stdout.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            result.failures.append(f"{call.key}: exit code {code}: {stderr[-1] if stderr else ''}")
        elif call.command == "train":
            result.output = bundle.read_bytes()
        elif call.command == "eval":
            result.output = stdout.read_bytes()
            self._check_report(result, split)
        else:
            result.output = (self.workdir / "predictions.csv").read_bytes()
            self._check_predictions(result, split, rows)
        return result

    def fingerprint(self, result: CallResult, key: str):
        """Fail the call when its output differs from an earlier call's
        output under the same key."""
        if result.failures:
            return
        digest = hashlib.sha256(result.output).hexdigest()
        first = self._fingerprints.setdefault(key, digest)
        if first != digest:
            result.failures.append(f"{key}: output not byte-identical across runs")

    def record(self, result: CallResult) -> CallResult:
        self.count(result.failures)
        return result

    def count(self, failures: list[str]):
        """Count one operation, failed if it has any failures."""
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {failure}", file=sys.stderr)

    def _check_report(self, result: CallResult, split: Split):
        try:
            report = json.loads(result.output)
            totals = (report["total"], sum(map(sum, report["confusion"])))
            result.macro_f1 = float(report["macro_f1"])
        except (ValueError, KeyError, TypeError) as exc:
            result.failures.append(f"{result.call.key}: unreadable eval report ({exc})")
            return
        if totals != (len(split.ids),) * 2:
            result.failures.append(f"{result.call.key}: confusion totals {totals} != {len(split.ids)} rows")

    def _check_predictions(self, result: CallResult, split: Split, rows: int):
        try:
            ids, predicted, _ = read_predictions(result.output)
        except ValueError as exc:
            result.failures.append(f"{result.call.key}: unreadable predictions ({exc})")
            return
        if ids != split.ids[:rows]:
            result.failures.append(f"{result.call.key}: predictions lost input ids or row order")
            return
        result.macro_f1 = macro_f1(split.labels[:rows], predicted)


def read_predictions(data: bytes) -> tuple[list[str], list[int], list[list[float]]]:
    """(ids, label codes, scores) of a predictions CSV; ValueError if malformed."""
    table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not table or table[0] != PREDICT_HEADER:
        raise ValueError("bad header")
    if any(len(row) != len(PREDICT_HEADER) for row in table[1:]):
        raise ValueError("bad row width")
    rows = table[1:]
    return (
        [row[0] for row in rows],
        [LABEL_NAMES.index(row[1]) for row in rows],
        [[float(s) for s in row[2:]] for row in rows],
    )


def macro_f1(truth: list[int], predicted: list[int]) -> float:
    """Mean of the four per-class F1 scores; an empty class scores 0."""
    scores = []
    for c in range(4):
        tp = sum(1 for t, p in zip(truth, predicted) if t == c and p == c)
        n_pred = sum(1 for p in predicted if p == c)
        n_true = sum(1 for t in truth if t == c)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true if n_true else 0.0
        scores.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return sum(scores) / 4


def run_calls(runner: Runner, calls) -> list[CallResult]:
    results = []
    for call in calls:
        result = runner.call(call)
        runner.fingerprint(result, call.key)
        results.append(runner.record(result))
    return results


def run_check(runner: Runner) -> list[CallResult]:
    """Predict the check rows with the default worker count, then with one
    worker; the two prediction files must be byte-identical."""
    check = runner.workload.check
    results = []
    for threads in (None, 1):
        result = runner.call(check, threads=threads, check_rows=True)
        runner.fingerprint(result, f"check_{check.key}")
        results.append(runner.record(result))
    return results


def end_to_end(setup_s: float, results: list[CallResult], scaled: bool = True) -> dict[str, float]:
    """One pass, costed as the sum over its calls of each call's median
    wall (or CPU) time across the run, scaled to the reference host speed
    unless ``scaled`` is false; quality comes from each call's first
    sample."""
    prefix = "scaled_" if scaled else ""
    samples: dict[str, list[CallResult]] = {}
    for r in results:
        samples.setdefault(r.call.key, []).append(r)

    def pass_sum(attr: str, commands: tuple[str, ...]) -> float:
        return sum(
            statistics.median(getattr(r, attr) for r in rs)
            for rs in samples.values()
            if rs[0].call.command in commands
        )

    train_s = pass_sum(prefix + "wall_s", ("train",))
    score_s = pass_sum(prefix + "wall_s", ("eval", "predict"))
    f1 = [rs[0].macro_f1 for rs in samples.values() if rs[0].macro_f1 is not None]
    return {
        "setup_s": setup_s,
        "train_s": train_s,
        "score_s": score_s,
        "docs_per_s": sum(rs[0].docs for rs in samples.values()) / (train_s + score_s),
        "cpu_s": pass_sum(prefix + "cpu_s", ("train", "eval", "predict")),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "macro_f1": sum(f1) / len(f1) if f1 else 0.0,
    }


def run_untraced(runner: Runner, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
    """Cycle through the workload's calls until ``seconds`` have passed and
    every call has run at least once. Set-up probes are spread over the
    run, so that ``setup_s`` sees the same host drift as the calls."""
    runner.start_setup(setup_repeats)
    calls = runner.workload.calls
    results = []
    start = time.perf_counter()
    while len(results) < len(calls) or time.perf_counter() - start < seconds:
        if results and len(results) % len(calls) == 0:
            runner.setup_probe()
        results += run_calls(runner, [calls[len(results) % len(calls)]])
    check = run_check(runner)
    setup_wall_s, setup_s = runner.setup_time()
    detail = {
        "calls": [_sample(r) for r in results + check],
        "macro_f1_by_call": {r.call.key: r.macro_f1 for r in results if r.macro_f1 is not None},
        "error_rate": runner.failed / runner.attempted,
        "setup_samples": runner.setup_samples,
        "median_speed": statistics.median(r.speed for r in results),
        "wall_clock_metrics": end_to_end(setup_wall_s, results, scaled=False),
    }
    return end_to_end(setup_s, results), detail


def _sample(r: CallResult) -> dict:
    return {
        "call": r.call.key,
        "wall_s": r.wall_s,
        "cpu_s": r.cpu_s,
        "rss_mb": r.rss_mb,
        "speed": r.speed,
        "docs": r.docs,
    }


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the host speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i
    return time.perf_counter() - start


def host_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_s": calibrate(),
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(
    name: str,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """One benchmark run; returns the result object (see the module doc)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    host = host_context()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workload, seed, workdir, deadline)
        if trace:
            import replay

            metrics, units, detail = replay.run_traced(runner, name, setup_repeats)
        else:
            metrics, detail = run_untraced(runner, seconds, setup_repeats)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["calibration_end_s"] = calibrate()
    host["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "host": host, **detail, **result}
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    _print_table(name, record)
    return result


def _print_table(name: str, record: dict):
    print(f"workload {name}  seed {record['seed']}  trace {int(record['trace'])}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    for key, metric in record["metrics"].items():
        print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
    if "wall_clock_metrics" in record:
        print(f"  host speed {record['median_speed']:.3g} x reference; unscaled wall-clock figures:")
        for key, value in record["wall_clock_metrics"].items():
            print(f"  {key:<28} {value:>14.6g} {record['metrics'][key]['unit']}")
    print(f"  {'error_rate':<28} {record['failed'] / record['attempted']:>14.6g} ratio"
          f"  ({record['failed']} failed of {record['attempted']} operations)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "verinews" / "cli.py").is_file():
        print(f"error: no verinews sources under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0
