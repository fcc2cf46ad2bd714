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


def rowmax(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, NaN included, as a loop of
    ``np.maximum`` over the columns: numpy reduces a short contiguous axis
    row by row, which costs several times more. Max is order-free, so the
    loop gives the same values."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j : j + 1], out=m)
    return m


_ONES: dict = {}  # dtype -> one read-only vector of ones, grown as needed


def _ones(n: int, dtype) -> np.ndarray:
    """n ones of ``dtype``, a read-only view of one vector per dtype that
    grows to the next power of two: the sums below take their ones without
    allocating them."""
    ones = _ONES.get(dtype)
    if ones is None or ones.size < n:
        ones = _ONES[dtype] = np.ones(1 << (n - 1).bit_length(), dtype)
        ones.flags.writeable = False
    return ones[:n]


def rowsum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis: one matrix-vector
    product with a ones vector, which BLAS runs faster than numpy's
    reduction over a short axis."""
    w = x.shape[-1]
    return np.matmul(x.reshape(-1, w), _ones(w, x.dtype)).reshape(x.shape[:-1] + (1,))


def colsum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, written to ``out``: one
    vector-matrix product with a ones vector. A C-contiguous ``x`` is read
    in place, so nothing of its size is allocated."""
    w = x.shape[-1]
    return np.matmul(_ones(x.size // w, x.dtype), x.reshape(-1, w), out=out)


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax over the last axis, written to ``out``
    when given (``out=x`` overwrites the input). The row maximum is exact
    (:func:`rowmax`); the normalizer is a :func:`rowsum`."""
    z = np.subtract(x, rowmax(x), out=out)
    np.exp(z, out=z)
    z /= rowsum(z)
    return z


def _check_logits(logits: np.ndarray) -> None:
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise DataError(f"logits must be (batch, M+1) with M >= 1, got {logits.shape}")


def _log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log q, q) for q the row-wise softmax of (batch, width) logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    q = np.exp(z)
    norm = q.sum(axis=1, keepdims=True)
    q /= norm
    return z - np.log(norm), q


def _cross_entropy(logits: np.ndarray, cols) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of row i against hard target column ``cols[i]``
    (or ``cols`` for every row) and its gradient, (softmax - onehot) / batch."""
    rows = np.arange(logits.shape[0])
    logq, q = _log_softmax(logits)
    value = -float(np.mean(logq[rows, cols]))
    q[rows, cols] -= 1.0
    q /= logits.shape[0]
    return value, q


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
    dlogits = np.zeros_like(logits)
    value, dlogits[:, :M] = _cross_entropy(logits[:, :M], labels - 1)
    return value, dlogits


def soft_targets(labels: np.ndarray, M: int, rho: float) -> np.ndarray:
    """Relocated targets per 1-based label: 1 - rho on the gold class, rho on the open class."""
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
    """Batch-mean KL(targets || softmax(logits)), with log q from the
    log-softmax and no floor, and its gradient (softmax - targets) / batch.
    Targets are cast to the logits' dtype, so the gradient comes back in it."""
    _check_logits(logits)
    if targets.shape != logits.shape:
        raise DataError(f"target shape {targets.shape} does not match logits {logits.shape}")
    targets = targets.astype(logits.dtype, copy=False)
    b = logits.shape[0]
    logq, q = _log_softmax(logits)
    value = float(np.sum(targets * (np.log(np.where(targets > 0, targets, 1)) - logq)) / b)
    q -= targets
    q /= b
    return value, q


def mixup_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy pushing every row toward the open class."""
    _check_logits(logits)
    return _cross_entropy(logits, logits.shape[1] - 1)


def total_loss(kl_value: float, open_value: float, gamma: float) -> float:
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {gamma}")
    return gamma * kl_value + (1.0 - gamma) * open_value
