"""Training objectives; each returns (value, d value / d logits).

All three are the batch-mean KL(targets || softmax(logits)) of one
log-softmax (:func:`_cross_entropy`), a cross-entropy when the targets
are one-hot. Stage one takes it over the first M logits toward the gold
class, so the open-class column receives no gradient. Stage two blends
the KL toward relocated soft targets with the cross-entropy that pushes
mixed pseudo-representations toward the open class:

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


class _Ones(dict):
    """(dtype, n) -> a read-only (n, 1) column of ones, which the sums below
    take without allocating; :func:`colsum` asks only for powers of two."""

    def __missing__(self, key) -> np.ndarray:
        ones = self[key] = np.ones((key[1], 1), key[0])
        ones.flags.writeable = False
        return ones


_ONES = _Ones()


def rowsum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as a length-1 axis: one matrix-vector
    product over all rows with a ones column, which BLAS runs faster than
    numpy's reduction over a short axis."""
    w = x.shape[-1]
    ones = _ONES[x.dtype, w]
    if x.ndim == 2:
        return np.matmul(x, ones)
    return np.matmul(x.reshape(-1, w), ones).reshape(x.shape[:-1] + (1,))


def colsum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last, written to ``out``: one
    vector-matrix product with a ones vector. A C-contiguous ``x`` is read
    in place, so nothing of its size is allocated."""
    w = x.shape[-1]
    n = x.size // w
    return np.matmul(_ONES[x.dtype, 1 << n.bit_length()][:n, 0], x if x.ndim == 2 else x.reshape(-1, w), out=out)


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


def _cross_entropy(logits: np.ndarray, targets: np.ndarray, out: np.ndarray) -> float:
    """Batch-mean KL(targets || softmax(logits)), log q from the log-softmax
    with no floor; targets are cast to the logits' dtype. Writes the gradient
    (softmax - targets) / batch to ``out``."""
    targets = targets.astype(logits.dtype, copy=False)
    b = logits.shape[0]
    logq = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    q = np.exp(logq, out=out)
    norm = np.add.reduce(q, axis=1, keepdims=True)
    q /= norm
    logq -= np.log(norm)
    value = float(np.add.reduce(targets * (np.log(np.where(targets > 0, targets, 1)) - logq), axis=None) / b)
    q -= targets
    q /= b
    return value


def pretrain_loss(logits: np.ndarray, labels: np.ndarray, M: int) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the first M columns; open column inert.

    labels are 1-based known-class ids. The returned gradient has the
    full (batch, M+1) shape with zeros in the open column.
    """
    _check_logits(logits)
    if logits.shape[1] != M + 1:
        raise DataError(f"logits width {logits.shape[1]} does not match M+1={M + 1}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:1]:
        raise DataError(f"labels shape {labels.shape} does not match batch {len(logits)}")
    dlogits = np.zeros(logits.shape, logits.dtype)
    return _cross_entropy(logits[:, :M], soft_targets(labels, M, 0.0)[:, :M], dlogits[:, :M]), dlogits


def soft_targets(labels: np.ndarray, M: int, rho: float) -> np.ndarray:
    """Relocated targets per 1-based label: 1 - rho on the gold class, rho on the open class."""
    if not 0.0 <= rho < 1.0:
        raise DataError(f"relocation mass must be in [0, 1), got {rho}")
    labels = np.asarray(labels)
    if labels.size and (np.minimum.reduce(labels) < 1 or np.maximum.reduce(labels) > M):
        raise DataError(f"labels must be in 1..{M}")
    t = np.zeros((labels.shape[0], M + 1))
    t[np.arange(labels.shape[0]), labels - 1] = 1.0 - rho
    t[:, M] = rho
    return t


def kl_loss(targets: np.ndarray, logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean KL(targets || softmax(logits)) and its gradient
    (softmax - targets) / batch, in the logits' dtype."""
    _check_logits(logits)
    if targets.shape != logits.shape:
        raise DataError(f"target shape {targets.shape} does not match logits {logits.shape}")
    dlogits = np.empty_like(logits)
    return _cross_entropy(logits, targets, dlogits), dlogits


def mixup_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy pushing every row toward the open class."""
    _check_logits(logits)
    targets = np.zeros(logits.shape, logits.dtype)
    targets[:, -1] = 1.0
    dlogits = np.empty_like(logits)
    return _cross_entropy(logits, targets, dlogits), dlogits


def total_loss(kl_value: float, open_value: float, gamma: float) -> float:
    if not 0.0 <= gamma <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {gamma}")
    return gamma * kl_value + (1.0 - gamma) * open_value
