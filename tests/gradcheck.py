"""Finite-difference gradient verification infrastructure.

Every case pairs an analytic gradient (from the recorded reverse pass)
with a central-difference probe of the same scalar loss at randomly
sampled parameter coordinates. All checks run in float64 so the probe
noise floor sits far below the tolerance.
"""

import itertools
import time

import numpy as np
import pytest

from snoic.augment import NoisyMixupPass
from snoic.corpus import Batch, PairedBatch
from snoic.encoder import EncoderConfig, Packing, TapedForward, init_params
from snoic.losses import kl_loss, mixup_loss, pretrain_loss, soft_targets
from snoic.trainer import TrainConfig

TINY = dict(vocab_size=24, hidden=8, num_layers=2, ffn=16, dim=8, max_len=6)
TINY_M = 3

REL_TOL = 1e-4
# Coordinates whose analytic and probed gradients are both below this are
# compared absolutely; the probe cannot resolve relative error down there.
SMALL_GRAD = 1e-6
SMALL_ABS_TOL = 1e-8


def attention_on(id=None):
    """Parametrize a test by ``attention`` at True, its one value.

    The encoder always attends. Tests that once ran with attention on and
    off keep the parameter so that their ids stay those of the attention
    runs: ``id`` names the case, and without it pytest writes ``True``.
    """
    return pytest.mark.parametrize("attention", [True], ids=None if id is None else [id])


def tiny_params(seed=0, dtype=np.float64, jitter=0.05):
    """Small float64 model with jittered tensors so no gradient path is dead."""
    cfg = EncoderConfig(**TINY)
    p = init_params(cfg, TINY_M, seed).astype(dtype)
    rng = np.random.default_rng(seed + 1000)
    for name in p.names():
        t = p.tensors[name]
        t += jitter * rng.standard_normal(t.shape)
    return p


def tiny_batch(seed, size=4, m=TINY_M):
    rng = np.random.default_rng(seed)
    max_len = TINY["max_len"]
    lengths = rng.integers(2, max_len + 1, size=size).astype(np.int32)
    tokens = np.zeros((size, max_len), dtype=np.int32)
    for i, ln in enumerate(lengths):
        tokens[i, 0] = 2
        tokens[i, 1:ln] = rng.integers(3, TINY["vocab_size"], size=ln - 1)
    labels = rng.integers(1, m + 1, size=size).astype(np.int32)
    return Batch(tokens=tokens, lengths=lengths, class_ids=labels)


def seed_for_layer(layer, depth=TINY["num_layers"], start=0):
    """The first RNG seed from ``start`` on whose first draw, the mix layer
    of a NoisyMixupPass over ``depth`` blocks, is ``layer``."""
    return next(s for s in itertools.count(start) if np.random.default_rng(s).integers(1, depth + 1) == layer)


def tiny_pair(seed, size=4, m=TINY_M):
    first = tiny_batch(seed, size=size, m=m)
    second = tiny_batch(seed + 1, size=size, m=m)
    second.class_ids = (first.class_ids % m + 1).astype(np.int32)
    return PairedBatch(first=first, second=second)


def prefix_mask(lengths, width):
    """(n, width) bool reference of real positions: the first ``lengths[i]`` of row i."""
    return np.arange(width) < np.asarray(lengths)[:, None]


def real_of(batch):
    """:func:`prefix_mask` of a batch's lengths at its width."""
    return prefix_mask(batch.lengths, batch.tokens.shape[1])


def packing(batch, dtype=np.float64):
    """The packing of a batch's lengths at its width."""
    return Packing(batch.lengths, batch.tokens.shape[1], dtype)


def unpacked(rows, real):
    """Packed ``rows``, one per True position of ``real`` in row-major
    order, laid out as (n, t, H) with zeros at padding."""
    out = np.zeros(real.shape + rows.shape[1:], rows.dtype)
    out[real] = rows
    return out


def zero_topped(rows):
    """``rows`` below one zero row, as the backward runners pass gradients."""
    return np.concatenate([np.zeros((1,) + rows.shape[1:], rows.dtype), rows])


def max_rel_err(p, value_fn, grads, n_coords, seed, eps=1e-5):
    """Worst relative disagreement over sampled parameter coordinates."""
    rng = np.random.default_rng(seed)
    names = p.names()
    sizes = np.array([p[n].size for n in names])
    bounds = np.cumsum(sizes)
    picks = rng.choice(int(bounds[-1]), size=min(n_coords, int(bounds[-1])), replace=False)
    worst = 0.0
    checked = 0
    for flat in picks:
        ti = int(np.searchsorted(bounds, flat, side="right"))
        offset = int(flat) - (int(bounds[ti - 1]) if ti else 0)
        name = names[ti]
        t = p.tensors[name]
        idx = np.unravel_index(offset, t.shape)
        orig = t[idx]
        t[idx] = orig + eps
        f_plus = value_fn(p)
        t[idx] = orig - eps
        f_minus = value_fn(p)
        t[idx] = orig
        fd = (f_plus - f_minus) / (2.0 * eps)
        an = float(grads[name][idx])
        denom = max(abs(fd), abs(an))
        if denom < SMALL_GRAD:
            err = 0.0 if abs(fd - an) <= SMALL_ABS_TOL else abs(fd - an) / SMALL_GRAD
        else:
            err = abs(fd - an) / denom
        worst = max(worst, err)
        checked += 1
    return worst, checked


def build_cases(p, batch, pair, mix_seed=777, rho=0.3, gamma=0.6):
    """(name, value_fn, analytic grads) triples for every training loss.

    The stage-two cases go through NoisyMixupPass: soft_kl with a zero
    open-row gradient, open_ce with a zero soft-row gradient, and blended
    (on another mixing draw) with both.
    """
    m = p.M
    mix_cfg = TrainConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
    targets = soft_targets(batch.class_ids, m, rho)

    def pretrain_value(q):
        return pretrain_loss(TapedForward(q, batch).logits, batch.class_ids, m)[0]

    tape = TapedForward(p, batch)
    _, dpre = pretrain_loss(tape.logits, batch.class_ids, m)
    pretrain_grads = tape.backward(dpre)

    def stage_two(q, seed=mix_seed):
        mp = NoisyMixupPass(q, batch, pair, mix_cfg, np.random.default_rng(seed))
        return mp, kl_loss(targets, mp.soft_logits), mixup_loss(mp.logits)

    def kl_value(q):
        return stage_two(q)[1][0]

    def open_value(q):
        return stage_two(q)[2][0]

    def blended_value(q):
        _, (kl, _), (ce, _) = stage_two(q, mix_seed + 1)
        return gamma * kl + (1.0 - gamma) * ce

    mp, (_, dkl), (_, dopen) = stage_two(p)
    kl_grads = mp.backward(dkl, np.zeros_like(dopen))
    open_grads = mp.backward(np.zeros_like(dkl), dopen)
    mp, (_, dkl), (_, dopen) = stage_two(p, mix_seed + 1)
    blended_grads = mp.backward(gamma * dkl, (1.0 - gamma) * dopen)

    return [
        ("pretrain_ce", pretrain_value, pretrain_grads),
        ("soft_kl", kl_value, kl_grads),
        ("open_ce", open_value, open_grads),
        ("blended", blended_value, blended_grads),
    ]


def run_gradient_suite(n_coords=220, coord_seed=5):
    """FD-check every loss.

    Returns (results, elapsed_sec) where each result row is
    (case_name, max_rel_err, coordinates_checked).
    """
    started = time.monotonic()
    p = tiny_params(seed=3)
    results = []
    for name, value_fn, grads in build_cases(p, tiny_batch(11), tiny_pair(12)):
        err, checked = max_rel_err(p, value_fn, grads, n_coords, coord_seed)
        results.append((name, err, checked))
    return results, time.monotonic() - started
