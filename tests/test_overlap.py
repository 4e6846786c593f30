"""train, eval and predict clean their CSV in a child process forked before
numpy loads, while the parent imports numpy and loads the bundle
(cli._overlapped). main() called in this process, where numpy is already
loaded, runs the same steps inline. These tests run the CLI in fresh
interpreters, where it forks, and hold it to the inline run: the same
bytes, the same exit code and error line, and no process left behind.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from verinews import cli
from verinews.corpus import format_csv

from test_persistence import NON_CANONICAL, _edited

GOLDEN = Path(__file__).with_name("golden_claims.csv")
BUNDLES = Path(__file__).with_name("bundles")
HEADER = "public_id,title,text,our_rating\n"


def _articles(rows=300, seed=11) -> bytes:
    """rows labeled articles of 60-180 words over the four ratings, with
    the URLs, emails, tags, digits, non-ASCII text, quotes, inflections and
    stop words that the cleaning rules act on."""
    rng = random.Random(seed)
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    words = ["".join(rng.choice(syllables) for _ in range(3)) for _ in range(2000)]
    noise = ["http://example.com/a?b=1", "mail@example.org", "<b>bold</b>", "café", "1,500", "running",
             "studies", "the", "and", 'said "no"', "U.S.", "2024"]
    ratings = ["false", "true", "partially false", "other"]
    table = [["public_id", "title", "text", "our_rating"]]
    for i in range(rows):
        rating = rng.choices(ratings, weights=(4, 2, 3, 1))[0]
        cues = words[5 * ratings.index(rating) : 5 * ratings.index(rating) + 5]
        body = [
            rng.choice(cues) if r < 0.1 else rng.choice(noise) if r < 0.15 else rng.choice(words)
            for r in (rng.random() for _ in range(rng.randint(60, 180)))
        ]
        table.append([f"g{i}", " ".join(rng.choices(words, k=6)), " ".join(body), rating])
    return format_csv(table).encode("utf-8")


def _forked(argv, cwd, env, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "verinews.cli", *map(str, argv)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300, **kwargs,
    )


def _inline(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def env(child_env, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    return {k: v for k, v in child_env.items() if k != "SOURCE_DATE_EPOCH"}


@pytest.mark.parametrize("threads", [[], ["--threads", "1"]], ids=["default-threads", "threads-1"])
@pytest.mark.parametrize("corpus", ["golden", "articles"])
def test_the_forked_run_writes_the_inline_bytes(tmp_path, env, monkeypatch, capsys, corpus, threads):
    data = GOLDEN.read_bytes() if corpus == "golden" else _articles()
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    for d in (forked, inline):
        d.mkdir()
        (d / "in.csv").write_bytes(data)
    monkeypatch.chdir(inline)
    for model in ("nb", "lr", "sgd"):
        for argv in (
            ["train", "--model", model, "--in", "in.csv", "--out", f"{model}.bundle"],
            ["eval", "--model", f"{model}.bundle", "--in", "in.csv"],
            ["eval", "--model", f"{model}.bundle", "--in", "in.csv", "--format", "json"],
            ["predict", "--model", f"{model}.bundle", "--in", "in.csv", "--out", f"{model}.csv"],
        ):
            result = _forked(argv + threads, forked, env)
            assert (result.returncode, result.stdout, result.stderr) == _inline(argv + threads, capsys), argv
    names = sorted(p.name for p in inline.iterdir())
    assert names == sorted(p.name for p in forked.iterdir()) and len(names) == 7
    for name in names:
        assert (forked / name).read_bytes() == (inline / name).read_bytes(), name


@pytest.mark.parametrize("model", ["nb", "lr", "sgd"])
def test_committed_bundles_predict_their_bytes_through_the_fork(tmp_path, env, model):
    result = _forked(["predict", "--model", BUNDLES / f"{model}.bundle", "--in", GOLDEN, "--out", "p.csv"],
                     tmp_path, env)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "p.csv").read_bytes() == (BUNDLES / f"{model}.predictions.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_the_child_reads_a_piped_input_once(tmp_path, env):
    # The child, not the parent, reads --in, so a pipe is read by the one
    # process that parses it.
    piped = _forked(["predict", "--model", BUNDLES / "sgd.bundle", "--in", "/dev/stdin", "--out", "p.csv"],
                    tmp_path, env, input=GOLDEN.read_text(encoding="utf-8"))
    assert piped.returncode == 0, piped.stderr
    assert (tmp_path / "p.csv").read_bytes() == (BUNDLES / "sgd.predictions.csv").read_bytes()


BAD_CSV = {
    "bad-utf8": HEADER.encode() + b"x1,ab\xffc,d,true\n",
    "missing-column": b"public_id,title,our_rating\nx1,a,true\n",
    "column-named-twice": b"public_id,title,text,Text,our_rating\nx1,a,b,c,true\n",
    "unknown-rating": HEADER.encode() + b"x1,a,b,maybe\n",
    "unterminated-quote": HEADER.encode() + b'x1,"a,b,true\n',
    "header-only": HEADER.encode(),
}
GOOD_CSV = HEADER + "".join(
    f"d{i},Headline {i},{body} report {i},{rating}\n"
    for i, (body, rating) in enumerate(
        [("officials confirmed the vaccine", "true"), ("viral posts claim a hoax", "false"),
         ("mixed facts with invented quotes", "partially false"), ("a review of blenders", "other")] * 3
    )
)


def _bundle_files(tmp_path):
    """A good nb bundle, one with a bad checksum and one whose model
    section holds an alpha of 0 under a valid checksum."""
    assert cli.main(["train", "--model", "nb", "--in", str(tmp_path / "good.csv"), "--out",
                     str(tmp_path / "nb.bundle"), "--threads", "1"]) == 0
    raw = (tmp_path / "nb.bundle").read_bytes()
    (tmp_path / "corrupted.bundle").write_bytes(raw[:-40] + bytes([raw[-40] ^ 1]) + raw[-39:])
    (tmp_path / "zero-alpha.bundle").write_bytes(_edited(raw, NON_CANONICAL["zero-nb-alpha"][1]))


def _fault_files(tmp_path):
    (tmp_path / "good.csv").write_text(GOOD_CSV, encoding="utf-8")
    for name, data in BAD_CSV.items():
        (tmp_path / f"{name}.csv").write_bytes(data)
    _bundle_files(tmp_path)


SINGLE_FAULTS = [
    *(
        pytest.param(command, f"{name}.csv", "nb.bundle", [], id=f"{command}-{name}")
        for name in ("bad-utf8", "missing-column", "column-named-twice", "unterminated-quote")
        for command in ("train", "eval", "predict")
    ),
    pytest.param("train", "unknown-rating.csv", "nb.bundle", [], id="train-unknown-rating"),
    pytest.param("eval", "unknown-rating.csv", "nb.bundle", [], id="eval-unknown-rating"),
    pytest.param("eval", "header-only.csv", "nb.bundle", [], id="eval-header-only"),
    pytest.param("eval", "good.csv", "corrupted.bundle", [], id="eval-corrupted-bundle"),
    pytest.param("predict", "good.csv", "corrupted.bundle", [], id="predict-corrupted-bundle"),
]


@pytest.mark.parametrize("command, csv_name, bundle, extra", SINGLE_FAULTS)
def test_a_fault_exits_and_reads_as_inline(tmp_path, env, monkeypatch, capsys, command, csv_name, bundle, extra):
    _fault_files(tmp_path)
    _compare_fault(tmp_path, env, monkeypatch, capsys, _argv(command, csv_name, bundle, extra))


# Two faults; the expected line is the one that running every step in one
# process prints: eval and predict load the whole bundle before they read
# the CSV, and train reads the CSV before it checks its training settings.
TWO_FAULTS = [
    pytest.param("eval", "unterminated-quote.csv", "corrupted.bundle", [], {},
                 "error: checksum mismatch (corrupted bundle)", id="eval-corrupted-bundle-bad-csv"),
    pytest.param("predict", "bad-utf8.csv", "corrupted.bundle", [], {},
                 "error: checksum mismatch (corrupted bundle)", id="predict-corrupted-bundle-bad-csv"),
    pytest.param("eval", "unterminated-quote.csv", "zero-alpha.bundle", [], {},
                 "error: invalid bundle field 'alpha': 0.0 is not positive and finite", id="eval-bad-model-bad-csv"),
    pytest.param("predict", "missing.csv", "zero-alpha.bundle", [], {},
                 "error: invalid bundle field 'alpha': 0.0 is not positive and finite", id="predict-bad-model-no-csv"),
    pytest.param("train", "unterminated-quote.csv", None, ["--nb-alpha", "0"], {},
                 "error: malformed CSV: unexpected end of data (data row 1)", id="train-bad-csv-zero-alpha"),
    pytest.param("train", "missing-column.csv", None, [], {"SOURCE_DATE_EPOCH": "abc"},
                 "error: missing required column: 'text'", id="train-bad-csv-bad-epoch"),
]


@pytest.mark.parametrize("command, csv_name, bundle, extra, variables, line", TWO_FAULTS)
def test_two_faults_report_the_first_in_command_order(
    tmp_path, env, monkeypatch, capsys, command, csv_name, bundle, extra, variables, line
):
    _fault_files(tmp_path)
    for key, value in variables.items():
        monkeypatch.setenv(key, value)
    argv = _argv(command, csv_name, bundle, extra)
    assert _compare_fault(tmp_path, {**env, **variables}, monkeypatch, capsys, argv) == line


def _argv(command, csv_name, bundle, extra):
    out = {"train": ["--out", "new.bundle"], "predict": ["--out", "p.csv"], "eval": []}[command]
    model = ["--model", "nb"] if command == "train" else ["--model", bundle]
    return [command, *model, "--in", csv_name, *out, "--threads", "1", *extra]


def _compare_fault(tmp_path, env, monkeypatch, capsys, argv):
    """The last stderr line, after checking that a forked and an inline
    run exit 2 with it and write no output file."""
    monkeypatch.chdir(tmp_path)
    code, _, err = _inline(argv, capsys)
    result = _forked(argv, tmp_path, env)
    assert code == result.returncode == 2, (code, result.stderr)
    assert err.splitlines()[-1] == result.stderr.splitlines()[-1]
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "new.bundle").exists() and not (tmp_path / "p.csv").exists()
    return err.splitlines()[-1]


# Runs cli.main on each argv of sys.argv[1] in this fresh interpreter and
# prints, as the last stderr line, the exit codes, whether numpy was loaded
# at each fork, whether numpy is loaded at the end, and whether a child
# process is left (os.waitpid raises ChildProcessError when none is).
_COUNTING = """
import json, os, sys
forks = []
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append("numpy" in sys.modules)
    return pid
os.fork = fork
PRELUDE
from verinews import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
sys.stdout.flush()
print(json.dumps([codes, forks, "numpy" in sys.modules, left]), file=sys.stderr)
"""

_THREAD = "import threading; threading.Thread(target=threading.Event().wait, daemon=True).start()"
_NO_FORK = "def failing(): raise OSError(11, 'Resource temporarily unavailable')\nos.fork = failing"


@pytest.mark.parametrize(
    "steps, prelude, codes, forks, numpy_loaded",
    [
        pytest.param([["prep", "--in", "good.csv"], ["report", "--in", "r.json"]], "", [0, 0], [], False,
                     id="prep-and-report-load-no-numpy"),
        pytest.param([["train", "--model", "lr", "--in", "good.csv", "--out", "x.bundle"]], "", [0], [False], True,
                     id="train"),
        pytest.param([["eval", "--model", "nb.bundle", "--in", "good.csv"]], "", [0], [False], True, id="eval"),
        pytest.param([["predict", "--model", "nb.bundle", "--in", "good.csv", "--out", "p.csv"]], "", [0], [False],
                     True, id="predict"),
        pytest.param([["train", "--model", "nb", "--in", "bad-utf8.csv", "--out", "x.bundle"]], "", [2], [False],
                     True, id="train-fault-in-the-child"),
        pytest.param([["eval", "--model", "zero-alpha.bundle", "--in", "good.csv"]], "", [2], [False], True,
                     id="eval-fault-in-the-parent"),
        pytest.param([["predict", "--model", "nb.bundle", "--in", "missing.csv", "--out", "p.csv"]], "", [2],
                     [False], True, id="predict-fault-in-the-child"),
        pytest.param([["train", "--model", "nb", "--in", "good.csv", "--out", "x.bundle"]], "import numpy", [0], [],
                     True, id="numpy-first-runs-inline"),
        pytest.param([["train", "--model", "nb", "--in", "good.csv", "--out", "x.bundle"]], _THREAD, [0], [], True,
                     id="a-thread-runs-inline"),
        pytest.param([["train", "--model", "nb", "--in", "good.csv", "--out", "x.bundle"]], _NO_FORK, [0], [], True,
                     id="a-failed-fork-runs-inline"),
    ],
)
def test_a_command_forks_at_most_once_before_numpy_and_reaps_its_child(
    tmp_path, env, steps, prelude, codes, forks, numpy_loaded
):
    _fault_files(tmp_path)
    (tmp_path / "r.json").write_text('{"confusion": [[3, 1, 0, 0], [0, 2, 0, 0], [1, 0, 2, 0], [0, 0, 0, 1]]}')
    result = subprocess.run(
        [sys.executable, "-c", _COUNTING.replace("PRELUDE", prelude), json.dumps(steps)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stderr.splitlines()[-1]) == [codes, forks, numpy_loaded, False]


# The parent stalls in its half, so the child fills the pipe and blocks in
# its write; the first stdout line is the child's pid.
_STALLED = """
import os, sys, time
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print(pid, flush=True)
    return pid
os.fork = fork
from verinews import cli
cli._pipeline_module = lambda: time.sleep(300)
cli.main(sys.argv[1:])
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc to see the child's state")
def test_the_child_ends_when_the_parent_is_killed(tmp_path, env):
    (tmp_path / "in.csv").write_bytes(_articles())  # a payload larger than a pipe's buffer
    argv = ["train", "--model", "nb", "--in", "in.csv", "--out", "x.bundle"]
    with subprocess.Popen([sys.executable, "-c", _STALLED, *argv], cwd=tmp_path, env=env, text=True,
                          stdout=subprocess.PIPE) as parent:
        child = int(parent.stdout.readline())
        parent.kill()
        parent.wait(timeout=60)
    deadline = time.monotonic() + 30
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.01)
    running = _running(child)
    if running:
        os.kill(child, signal.SIGKILL)
    assert not running


def _running(pid) -> bool:
    """Whether pid is a live process; an ended child that no init process
    has reaped yet is a zombie ("Z")."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[-1].split()[0] != "Z"
