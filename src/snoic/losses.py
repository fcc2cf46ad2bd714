"""Training objectives; each returns (value, d value / d logits).

Stage one uses cross-entropy normalized over the first M logits only,
so the open-class column receives no gradient. Stage two blends a KL
term that pulls predictions toward relocated soft targets with a
cross-entropy term that pushes mixed pseudo-representations toward the
open class:

    total = gamma * kl + (1 - gamma) * open_ce
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

LOG_FLOOR = 1e-12


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax over the last axis, written to ``out``
    when given (``out=x`` overwrites the input)."""
    z = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _check_logits(logits: np.ndarray) -> None:
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise DataError(f"logits must be (batch, M+1) with M >= 1, got {logits.shape}")


def pretrain_loss(logits: np.ndarray, labels: np.ndarray, M: int) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the first M columns; open column inert.

    labels are 1-based known-class ids. The returned gradient has the
    full (batch, M+1) shape with zeros in the open column.
    """
    _check_logits(logits)
    if logits.shape[1] != M + 1:
        raise DataError(f"logits width {logits.shape[1]} does not match M+1={M + 1}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise DataError(f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if labels.size and (labels.min() < 1 or labels.max() > M):
        raise DataError(f"labels must be in 1..{M}")
    b = logits.shape[0]
    known = logits[:, :M]
    z = known - known.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    idx = labels - 1
    value = float(np.mean(log_norm - z[np.arange(b), idx]))
    dlogits = np.zeros_like(logits)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    probs[np.arange(b), idx] -= 1.0
    dlogits[:, :M] = probs / b
    return value, dlogits


def soft_target(label: int, M: int, rho: float) -> np.ndarray:
    """Relocated target: 1 - rho on the gold class, rho on the open class."""
    return soft_targets(np.array([label]), M, rho)[0]


def soft_targets(labels: np.ndarray, M: int, rho: float) -> np.ndarray:
    """One soft_target row per 1-based label."""
    if not 0.0 <= rho < 1.0:
        raise DataError(f"relocation mass must be in [0, 1), got {rho}")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 1 or labels.max() > M):
        raise DataError(f"labels must be in 1..{M}")
    t = np.zeros((labels.shape[0], M + 1))
    t[np.arange(labels.shape[0]), labels - 1] = 1.0 - rho
    t[:, M] = rho
    return t


def kl_loss(targets: np.ndarray, logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean KL(targets || softmax(logits)), floored inside the log.

    Model probabilities are clamped below at 1e-12 before the log; the
    gradient is exact for the clamped objective, and reduces to
    (softmax - targets) / batch wherever the clamp is inactive. Targets
    are cast to the logits' dtype, so the gradient comes back in it.
    """
    _check_logits(logits)
    if targets.shape != logits.shape:
        raise DataError(f"target shape {targets.shape} does not match logits {logits.shape}")
    targets = targets.astype(logits.dtype, copy=False)
    b = logits.shape[0]
    q = softmax(logits)
    qf = np.maximum(q, LOG_FLOOR)
    terms = np.where(targets > 0, targets * (np.log(np.maximum(targets, LOG_FLOOR)) - np.log(qf)), 0.0)
    value = float(terms.sum() / b)
    g = np.where(q > LOG_FLOOR, -targets / qf, 0.0)
    dlogits = q * (g - (g * q).sum(axis=1, keepdims=True)) / b
    return value, dlogits


def mixup_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy pushing every row toward the open class."""
    _check_logits(logits)
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    value = float(np.mean(log_norm - z[:, -1]))
    dlogits = softmax(logits)
    dlogits[:, -1] -= 1.0
    return value, dlogits / b


def total_loss(kl_value: float, open_value: float, gamma: float) -> float:
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {gamma}")
    return gamma * kl_value + (1.0 - gamma) * open_value
