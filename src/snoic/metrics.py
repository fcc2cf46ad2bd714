"""Confusion accounting and open-set evaluation metrics.

Class ids are 1-based throughout: known classes are 1..M and the open
class is M+1. ``f1_known`` averages over the M known classes, ``f1_open``
is the F1 of the open class alone, and ``f1_all`` averages over all M+1
classes, so (M * f1_known + f1_open) / (M + 1) == f1_all by construction.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


@dataclass
class ConfusionCounts:
    """Per-class true/false positive and false negative counts."""

    num_classes: int
    tp: list[int]
    fp: list[int]
    fn: list[int]
    total: int

    def for_class(self, class_id: int) -> tuple[int, int, int]:
        if not 1 <= class_id <= self.num_classes:
            raise ValueError(f"class id {class_id} out of range 1..{self.num_classes}")
        return self.tp[class_id - 1], self.fp[class_id - 1], self.fn[class_id - 1]


@dataclass
class MetricsReport:
    accuracy: float
    f1_all: float
    f1_known: float
    f1_open: float
    per_class: list[dict]
    M: int
    count: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _class_ids(ids: Sequence[int], role: str, num_classes: int) -> np.ndarray:
    """0-based indices of 1-based integer class ids; a float id is rejected, never truncated."""
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{role} ids must be integers, got dtype {ids.dtype}")
    bad = (ids < 1) | (ids > num_classes)
    if bad.any():
        raise ValueError(f"{role} id {ids[bad][0]} out of range 1..{num_classes}")
    return ids.astype(np.intp) - 1


def confusion(preds: Sequence[int], golds: Sequence[int], num_classes: int) -> ConfusionCounts:
    """Count per-class TP/FP/FN for 1-based class ids."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    p = _class_ids(preds, "predicted", num_classes)
    g = _class_ids(golds, "gold", num_classes)
    hit = p == g
    tp, fp, fn = (np.bincount(ids, minlength=num_classes).tolist() for ids in (p[hit], p[~hit], g[~hit]))
    return ConfusionCounts(num_classes=num_classes, tp=tp, fp=fp, fn=fn, total=len(preds))


def precision_recall(counts: ConfusionCounts, class_id: int) -> tuple[float, float]:
    """Precision and recall for one class; zero denominators yield 0."""
    tp, fp, fn = counts.for_class(class_id)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return precision, recall


def _f1(precision: float, recall: float) -> float:
    return 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def accuracy(counts: ConfusionCounts) -> float:
    return sum(counts.tp) / counts.total if counts.total > 0 else 0.0


def _known_count(counts: ConfusionCounts) -> int:
    m = counts.num_classes - 1
    if m < 1:
        raise ValueError("need at least one known class")
    return m


def evaluate(preds: Sequence[int], golds: Sequence[int], num_classes: int) -> MetricsReport:
    """Full metrics report; each class's F1 is computed once, and the macro
    figures ``f1_all``, ``f1_known`` and ``f1_open`` are taken from those."""
    counts = confusion(preds, golds, num_classes)
    m = _known_count(counts)
    per_class = []
    for c in range(1, num_classes + 1):
        p, r = precision_recall(counts, c)
        per_class.append({"class": c, "precision": p, "recall": r, "f1": _f1(p, r)})
    f1s = [row["f1"] for row in per_class]
    return MetricsReport(
        accuracy=accuracy(counts),
        f1_all=sum(f1s) / num_classes,
        f1_known=sum(f1s[:m]) / m,
        f1_open=f1s[m],
        per_class=per_class,
        M=m,
        count=counts.total,
    )
