"""Pseudo open-class data: noisy convex mixing of paired hidden states.

Each training step draws one mix layer rl (uniform over the encoder
blocks) and one mixing weight lambda (Beta(alpha, alpha), realized as
g1 / (g1 + g2) from two Gamma(alpha, 1) draws), shared by the whole
batch. The paired sequences' token-level hidden states at block rl are
combined as lam * h1 + (1 - lam) * h2 at each position real in either of
them (a position real in one only mixes against zero), and element-wise
noise is injected:

    noisy = (1 + delta_mul * xi_mul) * mixed + delta_add * xi_add

with xi_mul and xi_add i.i.d. standard normal in the state's dtype, drawn
in that order as one (2, U, H) field, U being the number of those union
positions over the batch: a row's real positions are its first ones, so
U sums the larger length of each pair. How many normals a step draws
thus depends on the pairs' lengths, never on the batch width or the
noise settings: the noise is drawn even when a delta is zero, so the
paper's SNOiC-AN and SNOiC-MN ablations (delta_add = 0 and
delta_mul = 0) consume the same stream as the full method. Noise draws act as constants for gradient
purposes. :func:`mixup` and :func:`inject_noise` are elementwise: the
pass hands them the union positions' packed rows, so no padded position
is mixed, drawn for or zeroed.

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
    Packing,
    Workspace,
    backward_from_layer,
    backward_to_layer,
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
    h1: np.ndarray, h2: np.ndarray, lam: float, ws: Workspace = FRESH, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise convex combination lam * h1 + (1 - lam) * h2, written to
    ``out`` (which may be ``h1``) when given."""
    if h1.shape != h2.shape:
        raise DataError(f"hidden state shapes differ: {h1.shape} vs {h2.shape}")
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"mixing weight must be in [0, 1], got {lam}")
    mixed = np.multiply(h1, lam, out=out)
    mixed += np.multiply(h2, 1.0 - lam, out=ws.take("tmp", h2.shape, h2.dtype))
    return mixed


def inject_noise(
    x: np.ndarray,
    rng: np.random.Generator,
    delta_add: float,
    delta_mul: float,
    ws: Workspace = FRESH,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise multiplicative-then-additive Gaussian noise.

    Returns the noisy state, written to ``out`` (which may be ``x``) when
    given, and the multiplicative factor (1 + delta_mul * xi_mul), which is
    the local derivative of the output with respect to ``x``. Both fields
    come from one standard-normal draw of shape (2,) + x.shape in the
    state's dtype: xi_mul is its first half and xi_add its second. They are
    drawn even when a delta is zero.
    """
    shape, dt = x.shape, x.dtype
    scale, add = rng.standard_normal(out=ws.take("mix.xi", (2,) + shape, dt), dtype=dt)  # xi_mul, xi_add
    scale *= delta_mul
    scale += 1.0
    add *= delta_add
    noisy = np.multiply(scale, x, out=out)
    noisy += add
    return noisy, scale


class NoisyMixupPass:
    """The one recorded pass of an open-training step.

    The soft-target batch and both halves of the pair run through the
    embeddings and blocks 1..layer as one stacked (b + 2n, t) batch,
    PAD-filled to the width of the widest of the three and packed from
    their lengths. The soft rows and the noisy mixed rows then resume
    together through the remaining blocks, pooling, dense layer and head,
    as one (b + n, t) layout packed from the soft rows' lengths and
    ``union``, each pair's larger length: a mixed row's real positions
    are the union of its halves'. The mixed row at flat position q of
    that layout mixes the stacked packing's rows ``pos[q]`` and
    ``pos[q + n t]``, gathered from the zero-topped packed rows at the
    cut, where row 0 stands for a half that is padding there.
    ``soft_logits`` and ``logits`` are the two halves of the head output.
    Both packings are built on ``ws``, and the pass's arrays live there:
    pass the stage's workspace so that every step reuses one set of
    buffers; as a ``TapedForward``'s, its backward raises TrainingError
    once another pass is recorded there.

    ``cfg`` is the stage's TrainConfig, read for alpha, delta_add and
    delta_mul. Draw order per step: mix layer (uniform over blocks 1..L),
    lambda (two gammas), xi_mul, xi_add.
    backward(dsoft, dmix) runs one reverse pass; at the cut it scales the
    mixed rows' gradient by the noise factor and gathers it back to the
    pair halves' rows, times lam for the first and 1 - lam for the second.
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
        b, n = len(batch), len(pair.first)
        t = max(part.tokens.shape[1] for part in parts)
        hd, dt = p.cfg.hidden, p.flat.dtype
        tokens = ws.take("mix.tokens", (b + 2 * n, t), batch.tokens.dtype)
        tokens.fill(PAD_ID)
        for start, part in zip((0, b, b + n), parts):
            tokens[start : start + len(part), : part.tokens.shape[1]] = part.tokens
        self.union = np.maximum(pair.first.lengths, pair.second.lengths)
        pk = Packing(np.concatenate([part.lengths for part in parts]), t, dt, ws, "to")
        fk = Packing(np.concatenate((batch.lengths, self.union)), t, dt, ws, "from")
        # the packed rows of the soft batch end at soft, those of the first halves at halves
        soft = self.soft = int(batch.lengths.sum())
        self.halves = soft + int(pair.first.lengths.sum())
        # the noise of the union's rows at the padded size, as packed rows are: a step
        # with more of them than any step before allocates nothing
        ws.take("mix.xi", (2 * n * t, hd), dt)

        self.tape: dict = {}
        cut = run_to_layer(p, tokens, pk, self.layer, self.tape)
        to_rows = pk.zero_topped("rows", hd, dt)
        to_rows[1:] = cut
        # the soft rows and the first halves, then the second halves, n rows further down
        src = pk.pos.take(fk.idx, out=fk.buf["mix.src", None, np.intp][: fk.rows], mode="clip")
        h = to_rows.take(src, axis=0, out=fk.buf["mix.h", hd, dt][: fk.rows], mode="clip")
        pk.pos[n * t :].take(fk.idx[soft:], out=src[soft:], mode="clip")
        h2 = to_rows.take(src[soft:], axis=0, out=fk.buf["mix.h2", hd, dt][soft : fk.rows], mode="clip")
        # the mixed rows, then the noisy ones, overwrite the first halves in h
        mixed = mixup(h[soft:], h2, self.lam, ws, out=h[soft:])
        _, self.scale = inject_noise(mixed, rng, cfg.delta_add, cfg.delta_mul, ws, out=mixed)
        self.e = run_from_layer(p, h, fk, self.layer, self.tape)
        logits = head_logits(p, self.e)
        self.soft_logits, self.logits = logits[:b], logits[b:]

    def backward(self, dsoft: np.ndarray, dmix: np.ndarray) -> EncoderParams:
        ws, soft, halves = self.ws, self.soft, self.halves
        grads = ws.grads(self.p, self.generation)
        de = head_backward(self.p, self.e, np.concatenate([dsoft, dmix]), grads)
        dh = backward_from_layer(self.p, self.tape, de, grads)
        dh[1 + soft :] *= self.scale
        (pk, _), (fk, _) = self.tape["to"], self.tape["from"]
        # each stacked position's row in the from-packing: a second half's is its union's
        union_pos = fk.pos[len(self.soft_logits) * fk.shape[1] :]
        from_pos = np.concatenate((fk.pos, union_pos), out=pk.buf["mix.from_pos", None, np.intp][: pk.positions])
        back = from_pos.take(pk.idx, out=pk.buf["mix.back", None, np.intp][: pk.rows], mode="clip")
        dstack = pk.zero_topped("mix.dh", dh.shape[1], dh.dtype)
        dh.take(back, axis=0, out=dstack[1:], mode="clip")
        dstack[1 + soft : 1 + halves] *= self.lam
        dstack[1 + halves :] *= 1.0 - self.lam
        backward_to_layer(self.p, self.tape, dstack, grads)
        return grads
