"""Confusion accounting and open-set evaluation metrics.

Class ids are 1-based throughout: known classes are 1..M and the open
class is M+1. ``f1_known`` averages over the M known classes, ``f1_open``
is the F1 of the open class alone, and ``f1_all`` averages over all M+1
classes, so (M * f1_known + f1_open) / (M + 1) == f1_all by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np


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


def _class_ids(ids: Sequence[int], role: str, num_classes: int) -> np.ndarray:
    """0-based indices of 1-based integer class ids; a float id is rejected, never truncated."""
    ids = np.asarray(ids)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{role} ids must be integers, got dtype {ids.dtype}")
    bad = (ids < 1) | (ids > num_classes)
    if bad.any():
        raise ValueError(f"{role} id {ids[bad][0]} out of range 1..{num_classes}")
    return ids.astype(np.intp) - 1


def confusion(preds: Sequence[int], golds: Sequence[int], num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts of 1-based class ids: entry
    [g - 1, p - 1] is the number of gold-g examples predicted p."""
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(golds)} golds")
    p = _class_ids(preds, "predicted", num_classes)
    g = _class_ids(golds, "gold", num_classes)
    return np.bincount(g * num_classes + p, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den element-wise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(num)), where=den > 0)


def evaluate(preds: Sequence[int], golds: Sequence[int], num_classes: int) -> MetricsReport:
    """Full metrics report from the :func:`confusion` matrix: per-class
    precision, recall and F1 (zero denominators score 0), and the macro
    figures ``f1_all``, ``f1_known`` and ``f1_open`` taken from those."""
    counts = confusion(preds, golds, num_classes)
    m = num_classes - 1
    if m < 1:
        raise ValueError("need at least one known class")
    tp = np.diagonal(counts)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, counts.sum(axis=1))
    f1 = _ratio(2.0 * precision * recall, precision + recall).tolist()
    rows = zip(range(1, num_classes + 1), precision.tolist(), recall.tolist(), f1)
    per_class = [{"class": c, "precision": p, "recall": r, "f1": f} for c, p, r, f in rows]
    total = len(preds)
    return MetricsReport(
        accuracy=int(tp.sum()) / total if total > 0 else 0.0,
        f1_all=sum(f1) / num_classes,
        f1_known=sum(f1[:m]) / m,
        f1_open=f1[m],
        per_class=per_class,
        M=m,
        count=total,
    )
