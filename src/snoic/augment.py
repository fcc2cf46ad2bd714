"""Pseudo open-class data: noisy convex mixing of paired hidden states.

Each training step draws one mix layer rl (uniform over the encoder
blocks) and one mixing weight lambda (Beta(alpha, alpha), realized as
g1 / (g1 + g2) from two Gamma(alpha, 1) draws), shared by the whole
batch. The paired sequences' token-level hidden states at block rl are
combined as lam * h1 + (1 - lam) * h2 under the union of the padding
masks, and element-wise noise is injected:

    noisy = (1 + delta_mul * xi_mul) * mixed + delta_add * xi_add

with xi_mul and xi_add i.i.d. standard normal, drawn in that order and
always drawn even when a delta is zero, so RNG consumption does not
depend on the noise settings. Padded positions are re-zeroed afterward.
Noise draws act as constants for gradient purposes.

:class:`NoisyMixupPass` records a whole open-training step as one pass:
the soft-target rows and both pair halves share the encoder up to block
rl as one stacked batch, and the soft rows and the noisy mixed rows share
the rest of it (the manifold mixup cut of Verma et al., ICML 2019).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Batch, PairedBatch
from .encoder import (
    FRESH,
    EncoderParams,
    Grads,
    Workspace,
    backward_to_layer,
    backward_from_layer,
    head_backward,
    head_logits,
    run_from_layer,
    run_to_layer,
)
from .errors import DataError


@dataclass
class MixupConfig:
    alpha: float = 2.0
    delta_add: float = 0.4
    delta_mul: float = 0.2
    layer_range: tuple[int, int] | None = None  # defaults to all blocks 1..L

    def __post_init__(self):
        if not self.alpha > 0:
            raise DataError(f"alpha must be positive, got {self.alpha}")
        if self.delta_add < 0 or self.delta_mul < 0:
            raise DataError("noise magnitudes must be non-negative")
        if self.layer_range is not None:
            low, high = self.layer_range
            if not 1 <= low <= high:
                raise DataError(f"invalid mix layer range {self.layer_range}")


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


def select_mix_layer(rng: np.random.Generator, low: int, high: int) -> int:
    """Uniform draw from blocks low..high inclusive."""
    if not 1 <= low <= high:
        raise DataError(f"invalid mix layer range ({low}, {high})")
    return int(rng.integers(low, high + 1))


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
    to the mixed input. Both draws are float64, made in one buffer, and
    are rounded to the state's dtype before they are scaled.
    """
    shape, dt = mixed.shape, mixed.dtype
    xi = ws.take("mix.xi", shape, np.float64)
    scale = ws.take("mix.scale", shape, dt)
    scale[...] = rng.standard_normal(out=xi)  # xi_mul
    scale *= delta_mul
    scale += 1.0
    add = ws.take("tmp", shape, dt)
    add[...] = rng.standard_normal(out=xi)  # xi_add
    add *= delta_add
    noisy = np.multiply(scale, mixed, out=ws.take("mix.noisy", shape, dt))
    noisy += add
    noisy *= mask[:, :, None].astype(dt)
    return noisy, scale


class NoisyMixupPass:
    """The one recorded pass of an open-training step.

    The soft-target batch and both halves of the pair run through the
    embeddings and blocks 1..layer as one stacked batch. The pair halves
    are then mixed and noised, and the soft rows and the noisy rows resume
    together through the remaining blocks, pooling, dense layer and head.
    ``soft_logits`` and ``logits`` are the two halves of that head output.
    The pass's arrays live in ``ws``: pass the stage's workspace so that
    every step reuses one set of buffers.

    Draw order per step: mix layer, lambda (two gammas), xi_mul, xi_add.
    backward(dsoft, dmix) runs one reverse pass; at the cut it scales the
    mixed rows' gradient by the noise factor and splits it between the
    pair halves by lam / (1 - lam).
    """

    def __init__(
        self,
        p: EncoderParams,
        batch: Batch,
        pair: PairedBatch,
        mix_cfg: MixupConfig,
        rng: np.random.Generator,
        ws: Workspace = FRESH,
    ):
        self.p = p
        self.ws = ws
        low, high = mix_cfg.layer_range or (1, p.cfg.num_layers)
        if high > p.cfg.num_layers:
            raise DataError(
                f"mix layer range ({low}, {high}) exceeds encoder depth {p.cfg.num_layers}"
            )
        self.layer = select_mix_layer(rng, low, high)
        self.lam = sample_lambda(rng, mix_cfg.alpha)
        parts = (batch, pair.first, pair.second)
        b = self.soft_rows = len(batch)
        n = len(pair.first)
        t = batch.tokens.shape[1]
        tokens = np.concatenate(
            [part.tokens for part in parts], out=ws.take("mix.tokens", (b + 2 * n, t), batch.tokens.dtype)
        )
        mask = np.concatenate([part.mask for part in parts]).astype(p["token_embedding"].dtype)
        self.to_cache: dict = {}
        h = run_to_layer(p, tokens, mask, self.layer, cache=self.to_cache, ws=ws)
        mixed, self.union = mixup(h[b : b + n], mask[b : b + n], h[b + n :], mask[b + n :], self.lam, ws)
        noisy, self.scale = inject_noise(mixed, self.union, rng, mix_cfg.delta_add, mix_cfg.delta_mul, ws)
        self.from_cache: dict = {}
        self.e = run_from_layer(
            p,
            np.concatenate([h[:b], noisy], out=ws.take("mix.h", (b + n,) + h.shape[1:], h.dtype)),
            np.concatenate([mask[:b], self.union]),
            self.layer,
            cache=self.from_cache,
            ws=ws,
        )
        logits = head_logits(p, self.e)
        self.soft_logits, self.logits = logits[:b], logits[b:]

    def backward(self, dsoft: np.ndarray, dmix: np.ndarray) -> Grads:
        grads = Grads(self.p, self.ws)
        de = head_backward(self.p, self.e, np.concatenate([dsoft, dmix]), grads)
        dh = backward_from_layer(self.p, self.from_cache, de, grads, self.ws)
        b = self.soft_rows
        n = len(dh) - b
        dmixed = np.multiply(dh[b:], self.union[:, :, None], out=self.ws.take("tmp", dh[b:].shape, dh.dtype))
        dmixed *= self.scale
        # [dh_soft, lam * dmixed, (1 - lam) * dmixed], the gradient of the stacked batch at the cut
        dstack = self.ws.take("mix.dh", (b + 2 * n,) + dh.shape[1:], dh.dtype)
        dstack[:b] = dh[:b]
        np.multiply(dmixed, self.lam, out=dstack[b : b + n])
        np.multiply(dmixed, 1.0 - self.lam, out=dstack[b + n :])
        backward_to_layer(self.p, self.to_cache, dstack, grads, self.ws)
        return grads
