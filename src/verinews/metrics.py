"""Evaluation: confusion matrix, per-class precision/recall/F1, macro-F1,
accuracy, and the text renderings used by the CLI.

The confusion matrix holds plain ints, so this module loads no numpy.
`Confusion` checks its grid once, where it is built, and nothing that
takes a `Confusion` checks it again.

Conventions: a class with an empty prediction column or truth row scores 0
(so macro-F1 stays defined on imbalanced data); grid cells print as
"<count> <pct>%" with two-decimal percentages of the grand total; the grid
footer prints accuracy as a three-decimal percentage; the per-class table
rounds half-up to whole percents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .corpus import Label
from .errors import ReportError


@dataclass(frozen=True)
class Confusion:
    """cells[i][j] = documents with true label i predicted as label j.

    Takes any 4x4 nesting of values that `int` accepts (lists, a numpy
    array) and keeps a tuple of four 4-tuples of ints. Raises ValueError
    unless every cell is at least 0 and the total is from 1 to 2**63-1.
    """

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cells = tuple(tuple(int(cell) for cell in row) for row in self.cells)
        lengths = [len(row) for row in cells]
        if lengths != [len(Label)] * len(Label):
            raise ValueError(f"confusion cells must be 4x4, got row lengths {lengths}")
        if any(cell < 0 for row in cells for cell in row):
            raise ValueError("confusion cells must be non-negative")
        total = sum(map(sum, cells))
        if not 0 < total < 2**63:
            raise ValueError(f"confusion total must be from 1 (not empty) to 2**63-1, got {total}")
        object.__setattr__(self, "cells", cells)

    @property
    def total(self) -> int:
        return sum(map(sum, self.cells))

    def row_sum(self, label: Label) -> int:
        return sum(self.cells[label])

    def column_sum(self, label: Label) -> int:
        return sum(row[label] for row in self.cells)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    confusion: Confusion
    per_class: tuple[ClassMetrics, ...]  # in Label order
    accuracy: float
    macro_f1: float


def confusion_matrix(y_true: list[Label], y_pred: list[Label]) -> Confusion:
    """Exact counts with both axes in fixed label-code order."""
    if len(y_true) != len(y_pred):
        raise ValueError(f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted")
    cells = [[0] * len(Label) for _ in Label]
    for t, p in zip(y_true, y_pred):
        cells[t][p] += 1
    return Confusion(cells=cells)


def class_metrics(conf: Confusion, c: Label) -> ClassMetrics:
    """Precision/recall/F1 for one class; zero divisions score 0."""
    hit = float(conf.cells[c][c])
    col = conf.column_sum(c)
    row = conf.row_sum(c)
    precision = hit / col if col else 0.0
    recall = hit / row if row else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def accuracy(conf: Confusion) -> float:
    return float(sum(conf.cells[c][c] for c in Label)) / conf.total


def macro_average(values) -> float:
    """Unweighted mean, the aggregation behind macro-F1."""
    values = list(values)
    return sum(values) / len(values)


def macro_f1(conf: Confusion) -> float:
    """Mean of the per-class F1 values; zero-support classes count."""
    return classification_report(conf).macro_f1


def classification_report(conf: Confusion) -> EvalReport:
    per_class = tuple(class_metrics(conf, c) for c in Label)
    return EvalReport(
        confusion=conf,
        per_class=per_class,
        accuracy=accuracy(conf),
        macro_f1=macro_average(m.f1 for m in per_class),
    )


def pct_int(fraction: float) -> int:
    """Whole-percent rounding, half away from zero (0.585 -> 59)."""
    return int(math.floor(fraction * 100.0 + 0.5))


def render_confusion(conf: Confusion, title: str = "") -> str:
    """Text grid: true labels down, predicted across, cells "count pct%".

    Percentages are of the grand total with two decimals; the footer line
    is "Accuracy=" followed by the three-decimal accuracy percentage.
    """
    names = [label.display_name for label in Label]
    cells = [[_cell_text(count, conf.total) for count in row] for row in conf.cells]
    widths = [max(len(name), *map(len, column)) for name, column in zip(names, zip(*cells))]
    left = max(len(n) for n in names)

    lines = []
    if title:
        lines.append(title)
    lines.append(" " * left + "  " + "  ".join(n.ljust(w) for n, w in zip(names, widths)))
    for name, row in zip(names, cells):
        lines.append(name.ljust(left) + "  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(f"Accuracy={100.0 * accuracy(conf):.3f}")
    return "\n".join(lines) + "\n"


def render_report(report: EvalReport) -> str:
    """Per-class table in whole percents plus the aggregate lines."""
    header = f"{'class':<16}{'precision':>10}{'recall':>8}{'f1':>6}"
    lines = [header]
    for label, m in zip(Label, report.per_class):
        lines.append(
            f"{label.display_name:<16}"
            f"{pct_int(m.precision):>9}%{pct_int(m.recall):>7}%{pct_int(m.f1):>5}%"
        )
    lines.append("")
    lines.append(f"accuracy: {pct_int(report.accuracy)}%")
    lines.append(f"macro F1: {pct_int(report.macro_f1)}%")
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport) -> str:
    """Machine-readable report: confusion cells, full-precision metrics."""
    payload = {
        "labels": [label.display_name for label in Label],
        "confusion": report.confusion.cells,
        "total": report.confusion.total,
        "per_class": {
            label.display_name: {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
            }
            for label, m in zip(Label, report.per_class)
        },
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> EvalReport:
    """Rebuild an EvalReport from its JSON form (metrics recomputed from
    the confusion cells, which are the ground truth of the format).

    Raises ReportError unless the text is a JSON object whose "confusion"
    is a list of lists of integers that `Confusion` accepts.
    """
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ReportError(f"not a JSON report: {exc}") from exc
    grid = payload.get("confusion") if isinstance(payload, dict) else None
    # type() rather than isinstance(), which would let booleans through.
    if not (isinstance(grid, list) and all(isinstance(row, list) and all(type(c) is int for c in row) for row in grid)):
        raise ReportError("a report needs a 'confusion' key holding a 4x4 grid of integers")
    try:
        conf = Confusion(cells=grid)
    except ValueError as exc:
        raise ReportError(str(exc)) from exc
    return classification_report(conf)


def _cell_text(count: int, total: int) -> str:
    return f"{count} {100.0 * count / total:.2f}%"
