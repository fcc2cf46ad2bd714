"""Pseudo open-class data: noisy convex mixing of paired hidden states.

Each training step draws one mix layer rl (uniform over the encoder
blocks) and one mixing weight lambda (Beta(alpha, alpha), realized as
g1 / (g1 + g2) from two Gamma(alpha, 1) draws), shared by the whole
batch. The paired sequences' token-level hidden states at block rl are
combined as lam * h1 + (1 - lam) * h2 under the union of the padding
masks, and element-wise noise is injected:

    noisy = (1 + delta_mul * xi_mul) * mixed + delta_add * xi_add

with xi_mul and xi_add i.i.d. standard normal in the state's dtype, drawn
in that order as one (2, B, T, H) field, T being the width of the mixed
state, which is the width of the stacked batch (see below). How many
normals a step draws thus depends on that width, never on the noise
settings: the noise is drawn even when a delta is zero, so the paper's
SNOiC-AN and SNOiC-MN ablations (delta_add = 0 and delta_mul = 0)
consume the same stream as the full method. Padded positions are
re-zeroed afterward. Noise draws act as constants for gradient purposes.

:class:`NoisyMixupPass` records a whole open-training step as one pass:
the soft-target rows and both pair halves share the encoder up to block
rl as one stacked batch, and the soft rows and the noisy mixed rows share
the rest of it (the manifold mixup cut of Verma et al., ICML 2019). The
stacked batch is as wide as the widest of its three parts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .corpus import PAD_ID, Batch, PairedBatch
from .encoder import (
    FRESH,
    EncoderParams,
    Workspace,
    backward_to_layer,
    backward_from_layer,
    head_backward,
    head_logits,
    run_from_layer,
    run_to_layer,
)
from .errors import DataError

if TYPE_CHECKING:
    from .trainer import TrainConfig


def sample_lambda(rng: np.random.Generator, alpha: float) -> float:
    """Beta(alpha, alpha) via the two-gamma construction."""
    if not alpha > 0:
        raise DataError(f"alpha must be positive, got {alpha}")
    g1 = rng.standard_gamma(alpha)
    g2 = rng.standard_gamma(alpha)
    total = g1 + g2
    if total == 0.0:
        return 0.5
    return float(g1 / total)


def mixup(
    h1: np.ndarray, mask1: np.ndarray, h2: np.ndarray, mask2: np.ndarray, lam: float, ws: Workspace = FRESH
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of hidden states under the union padding mask."""
    if h1.shape != h2.shape:
        raise DataError(f"hidden state shapes differ: {h1.shape} vs {h2.shape}")
    if mask1.shape != mask2.shape or mask1.shape != h1.shape[:2]:
        raise DataError("mask shapes do not match hidden states")
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"mixing weight must be in [0, 1], got {lam}")
    mixed = np.multiply(h1, lam, out=ws.take("mix.mixed", h1.shape, h1.dtype))
    mixed += np.multiply(h2, 1.0 - lam, out=ws.take("tmp", h2.shape, h2.dtype))
    union = np.maximum(mask1, mask2)
    mixed *= union[:, :, None]
    return mixed, union


def inject_noise(
    mixed: np.ndarray,
    mask: np.ndarray,
    rng: np.random.Generator,
    delta_add: float,
    delta_mul: float,
    ws: Workspace = FRESH,
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative-then-additive Gaussian noise, re-zeroed off-mask.

    Returns the noisy state and the multiplicative factor (1 + delta_mul
    * xi_mul), which is the local derivative of the output with respect
    to the mixed input. Both fields come from one standard-normal draw of
    shape (2,) + mixed.shape in the state's dtype: xi_mul is its first
    half and xi_add its second. They are drawn even when a delta is zero.
    """
    shape, dt = mixed.shape, mixed.dtype
    scale, add = rng.standard_normal(out=ws.take("mix.xi", (2,) + shape, dt), dtype=dt)  # xi_mul, xi_add
    scale *= delta_mul
    scale += 1.0
    add *= delta_add
    noisy = np.multiply(scale, mixed, out=ws.take("mix.noisy", shape, dt))
    noisy += add
    noisy *= mask[:, :, None].astype(dt, copy=False)
    return noisy, scale


class NoisyMixupPass:
    """The one recorded pass of an open-training step.

    The soft-target batch and both halves of the pair run through the
    embeddings and blocks 1..layer as one stacked batch, PAD-filled to the
    width of the widest of the three. The pair halves are then mixed and
    noised, and the soft rows and the noisy rows resume together through
    the remaining blocks, pooling, dense layer and head.
    ``soft_logits`` and ``logits`` are the two halves of that head output.
    The pass's arrays live in ``ws``: pass the stage's workspace so that
    every step reuses one set of buffers; as a ``TapedForward``'s, its
    backward raises TrainingError once another pass is recorded there.

    ``cfg`` is the stage's TrainConfig, read for alpha, delta_add and
    delta_mul. Draw order per step: mix layer (uniform over blocks 1..L),
    lambda (two gammas), xi_mul, xi_add.
    backward(dsoft, dmix) runs one reverse pass; at the cut it scales the
    mixed rows' gradient by the noise factor and splits it between the
    pair halves by lam / (1 - lam).
    """

    def __init__(
        self,
        p: EncoderParams,
        batch: Batch,
        pair: PairedBatch,
        cfg: TrainConfig,
        rng: np.random.Generator,
        ws: Workspace = FRESH,
    ):
        self.p = p
        self.ws = ws
        self.generation = ws.record()
        self.layer = int(rng.integers(1, p.cfg.num_layers + 1))
        self.lam = sample_lambda(rng, cfg.alpha)
        parts = (batch, pair.first, pair.second)
        b = self.soft_rows = len(batch)
        n = len(pair.first)
        rows = b + 2 * n
        t = max(part.tokens.shape[1] for part in parts)
        tokens = ws.take("mix.tokens", (rows, t), batch.tokens.dtype)
        tokens.fill(PAD_ID)
        mask = ws.take("mix.mask", (rows, t), p["token_embedding"].dtype)
        mask.fill(0)
        for start, part in zip((0, b, b + n), parts):
            width = part.tokens.shape[1]
            tokens[start : start + len(part), :width] = part.tokens
            mask[start : start + len(part), :width] = part.mask
        self.to_cache: dict = {}
        h = run_to_layer(p, tokens, mask, self.layer, cache=self.to_cache, ws=ws)
        mixed, self.union = mixup(h[b : b + n], mask[b : b + n], h[b + n :], mask[b + n :], self.lam, ws)
        noisy, self.scale = inject_noise(mixed, self.union, rng, cfg.delta_add, cfg.delta_mul, ws)
        self.from_cache: dict = {}
        self.e = run_from_layer(
            p,
            np.concatenate([h[:b], noisy], out=ws.take("mix.h", (b + n,) + h.shape[1:], h.dtype)),
            np.concatenate([mask[:b], self.union], out=ws.take("mix.from_mask", (b + n, t), mask.dtype)),
            self.layer,
            cache=self.from_cache,
            ws=ws,
        )
        logits = head_logits(p, self.e)
        self.soft_logits, self.logits = logits[:b], logits[b:]

    def backward(self, dsoft: np.ndarray, dmix: np.ndarray) -> EncoderParams:
        grads = self.ws.grads(self.p, self.generation)
        de = head_backward(self.p, self.e, np.concatenate([dsoft, dmix]), grads)
        dh = backward_from_layer(self.p, self.from_cache, de, grads, self.ws)
        b = self.soft_rows
        n = len(dh) - b
        # dh is exactly zero off the union mask, so the noise factor there needs no masking
        dmixed = np.multiply(dh[b:], self.scale, out=self.ws.take("tmp", dh[b:].shape, dh.dtype))
        # [dh_soft, lam * dmixed, (1 - lam) * dmixed], the gradient of the stacked batch at the cut
        dstack = self.ws.take("mix.dh", (b + 2 * n,) + dh.shape[1:], dh.dtype)
        dstack[:b] = dh[:b]
        np.multiply(dmixed, self.lam, out=dstack[b : b + n])
        np.multiply(dmixed, 1.0 - self.lam, out=dstack[b + n :])
        backward_to_layer(self.p, self.to_cache, dstack, grads, self.ws)
        return grads
