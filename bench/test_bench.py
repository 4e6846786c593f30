"""Tests of the benchmark itself: input determinism, metric names, the
host-speed scaling, and a tiny end-to-end smoke run of both modes.

Run: python3 -m pytest -q bench
"""

import json
import re
from pathlib import Path

import harness
import replay
from corpus_gen import CorpusGenerator
from harness import Call, Workload

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    splits=(("train", 60, 30, 0.2), ("test", 40, 30, 0.2)),
    calls=(
        Call("train", "nb", "train"),
        Call("train", "lr", "train"),
        Call("train", "sgd", "train"),
        Call("eval", "nb", "test"),
        Call("predict", "lr", "test"),
    ),
    check=Call("predict", "sgd", "test"),
)


def _csv_bytes(seed):
    gen = CorpusGenerator(seed)
    return [gen.split(name, 20, 25, 0.1).csv(labeled=True) for name in ("train", "test")]


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert _csv_bytes(3) == _csv_bytes(3)
    assert _csv_bytes(3) != _csv_bytes(4)


def test_generated_text_fires_every_cleaning_rule():
    text = " ".join(CorpusGenerator(5).split("x", 200, 200, 0.05).bodies)
    for pattern in (r"https://", r"\S@\S", r"<[^<]*>", r"[^\x00-\x7f]", r"\d", r"\w(ies|ed|ing)\b"):
        assert re.search(pattern, text), pattern


def test_metric_names_are_valid_and_match_the_code():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == harness.END_TO_END
    assert layers == replay.PER_LAYER
    names = list(e2e) + list(layers) + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)


def test_smoke_run_reports_every_metric_without_errors():
    for trace, expected in ((False, harness.END_TO_END), (True, replay.PER_LAYER)):
        result = harness.run_workload("tiny", TINY, seed=1, seconds=0, trace=trace, setup_repeats=1)
        assert result["failed"] == 0 and result["correct"]
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name]
            assert isinstance(metric["value"], (int, float))


def test_end_to_end_times_are_scaled_by_host_speed():
    call = Call("train", "nb", "train")
    results = [harness.CallResult(call, w, 2 * w, 1.0, 0.5, 10) for w in (1.0, 3.0, 2.0)]
    raw = harness.end_to_end(1.0, results, scaled=False)
    scaled = harness.end_to_end(0.5, results)
    assert (raw["train_s"], raw["cpu_s"]) == (2.0, 4.0)
    assert (scaled["train_s"], scaled["cpu_s"]) == (1.0, 2.0)
    assert scaled["docs_per_s"] == 2 * raw["docs_per_s"]
