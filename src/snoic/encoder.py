"""Compact transformer-style text encoder with a layer-resumable forward pass.

The encoder embeds token ids, applies ``num_layers`` blocks (single-head
scaled dot-product attention plus a feed-forward sublayer, each with a
residual connection and layer normalization; attention can be disabled for
a pure token-wise variant), mean-pools the real-token vectors, and maps
the pooled vector through a ReLU dense layer to the intent representation.
A linear head produces M+1 logits.

The pass is built from two segment runners that meet at a block boundary:
:func:`run_to_layer` runs the embeddings and blocks 1..rl, and
:func:`run_from_layer` resumes from block rl+1 to the intent
representation. Between them the hidden state may be modified externally,
which is the mixup injection point.

The optional ``cache`` argument of the runners decides what a pass keeps.
With a cache dict (a tape), each sublayer stores in it exactly what its
backward reads (the inputs of its matmuls, the attention weights, the ReLU
outputs, the normalized activations and their inverse deviations), and
the ``backward_*`` counterpart consumes it, so one recorded pass yields
every parameter gradient. Without one, as in :func:`forward`, the
sublayers store nothing and drop each intermediate as soon as it is
consumed. Both passes run the same blocks: bias adds, ReLU, softmax,
residual adds and layer-norm arithmetic work in place on arrays the pass
itself allocated, in one operation order, so taped and untaped logits are
bit-identical. The runners never write into arrays passed to them. All
math is dtype-generic; training runs in float32 while gradient checks
rerun the same code in float64.

Every per-token array a pass writes comes from its :class:`Workspace`
through ``out=``, and so does the gradient buffer; per-row vectors and
each parameter gradient's product are allocated per pass. A training
stage creates one workspace and records each step's tape into it, so the
tape, the backward gradients and the scratch arrays reuse the same
buffers step after step instead of being allocated, freed and faulted
back in. The default, :data:`FRESH`, hands out new arrays,
which is what untaped passes use.

Parameters live in one flat, C-contiguous buffer: :class:`EncoderParams`
keys reshaped views into it by name, back to back in canonical
:func:`param_spec` order, which is also the checkpoint layout, so a
checkpoint is that buffer written out. A backward pass accumulates into a
:class:`Grads` buffer laid out the same way, taken from the pass's
workspace, so the optimizer updates every parameter with a handful of
whole-buffer operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Batch
from .errors import CheckpointError, DataError
from .losses import softmax

LN_EPS = 1e-5
ATTN_MASK_VALUE = -1e9

CHECKPOINT_DTYPE = np.dtype("<f4")


@dataclass
class EncoderConfig:
    vocab_size: int
    hidden: int = 64
    num_layers: int = 4
    ffn: int = 128
    dim: int = 64
    max_len: int = 32
    attention: bool = True

    def __post_init__(self):
        if self.vocab_size < 3:
            raise DataError(f"vocab_size must be >= 3, got {self.vocab_size}")
        if self.num_layers < 1:
            raise DataError(f"num_layers must be >= 1, got {self.num_layers}")
        for name in ("hidden", "ffn", "dim"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_len < 2:
            raise DataError(f"max_len must be >= 2, got {self.max_len}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EncoderConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DataError(f"unknown encoder config keys: {sorted(extra)}")
        missing = {"vocab_size"} - set(obj)
        if missing:
            raise DataError(f"encoder config missing keys: {sorted(missing)}")
        return cls(**obj)


def param_spec(cfg: EncoderConfig, M: int) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, kind) listing; kind is weight, bias, or gain."""
    if M < 1:
        raise DataError(f"M must be >= 1, got {M}")
    h, f, d = cfg.hidden, cfg.ffn, cfg.dim
    spec: list[tuple[str, tuple[int, ...], str]] = [
        ("token_embedding", (cfg.vocab_size, h), "weight"),
        ("position_embedding", (cfg.max_len, h), "weight"),
    ]
    for i in range(cfg.num_layers):
        pre = f"layers.{i}."
        if cfg.attention:
            spec += [
                (pre + "attn_q", (h, h), "weight"),
                (pre + "attn_k", (h, h), "weight"),
                (pre + "attn_v", (h, h), "weight"),
                (pre + "attn_out", (h, h), "weight"),
                (pre + "norm1_gain", (h,), "gain"),
                (pre + "norm1_bias", (h,), "bias"),
            ]
        spec += [
            (pre + "ffn_w1", (h, f), "weight"),
            (pre + "ffn_b1", (f,), "bias"),
            (pre + "ffn_w2", (f, h), "weight"),
            (pre + "ffn_b2", (h,), "bias"),
            (pre + "norm2_gain", (h,), "gain"),
            (pre + "norm2_bias", (h,), "bias"),
        ]
    spec += [
        ("dense_w", (h, d), "weight"),
        ("dense_b", (d,), "bias"),
        ("head_w", (d, M + 1), "weight"),
        ("head_b", (M + 1,), "bias"),
    ]
    return spec


def _layout(shapes: dict[str, tuple[int, ...]]) -> dict[str, tuple[int, int, tuple[int, ...]]]:
    """name -> (start, stop, shape) of tensors stored back to back."""
    layout, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        layout[name] = (start, stop, tuple(shape))
        start = stop
    return layout


def _views(flat: np.ndarray, layout: dict) -> dict[str, np.ndarray]:
    return {name: flat[start:stop].reshape(shape) for name, (start, stop, shape) in layout.items()}


class EncoderParams:
    """All trainable tensors, keyed by canonical name, as reshaped views
    into one flat buffer.

    ``flat`` is C-contiguous and holds the tensors back to back in the
    order of ``tensors`` (param_spec order for every model built here);
    ``layout`` maps each name to its (start, stop, shape) in it. The
    constructor packs the arrays it is given into a new buffer of their
    common dtype. Write tensors in place: rebinding an entry of
    ``tensors`` would detach it from ``flat``.
    """

    def __init__(self, cfg: EncoderConfig, M: int, tensors: dict[str, np.ndarray]):
        flat = np.concatenate([np.ravel(t) for t in tensors.values()])
        self._bind(cfg, M, flat, _layout({name: np.shape(t) for name, t in tensors.items()}))

    def _bind(self, cfg: EncoderConfig, M: int, flat: np.ndarray, layout: dict) -> "EncoderParams":
        self.cfg, self.M, self.flat, self.layout = cfg, M, flat, layout
        self.tensors = _views(flat, layout)
        return self

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def owner(self, index: int) -> str:
        """Name of the tensor that holds entry ``index`` of ``flat``."""
        return next(name for name, (start, stop, _) in self.layout.items() if start <= index < stop)

    def _with_flat(self, flat: np.ndarray) -> "EncoderParams":
        return EncoderParams.__new__(EncoderParams)._bind(self.cfg, self.M, flat, self.layout)

    def copy(self) -> "EncoderParams":
        return self._with_flat(self.flat.copy())

    def astype(self, dtype) -> "EncoderParams":
        return self._with_flat(self.flat.astype(dtype))


def init_params(cfg: EncoderConfig, M: int, seed: int) -> EncoderParams:
    """Seeded Glorot-uniform weights, zero biases, unit normalization gains."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape, kind in param_spec(cfg, M):
        if kind == "weight":
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif kind == "gain":
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:
            tensors[name] = np.zeros(shape, dtype=np.float32)
    return EncoderParams(cfg=cfg, M=M, tensors=tensors)


class Workspace:
    """Grow-only storage for the arrays of taped passes, kept for a stage.

    ``take(key, shape, dtype)`` returns a C-contiguous ``shape`` view of
    the flat buffer kept under ``key``. A buffer is replaced only when a
    request outgrows it or changes its dtype, so a stage that records one
    pass per step allocates its working set in its first steps and then
    reuses it. A pass overwrites whatever an earlier pass wrote under the
    keys it takes: a workspace serves one pass at a time, and a tape
    recorded into it is valid only until the next pass is recorded.

    Keys name what an array holds. Arrays a tape keeps are keyed by block
    and name (``(i, "q")``), so no two of them share storage. Backward
    gradients are keyed by name alone and shared by every block. ``"tmp"``
    is scratch of any shape that no function keeps past its return.
    """

    def __init__(self):
        self._views: dict = {}
        self._flat: dict = {}

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        view = self._views.get(key)
        if view is None or view.shape != shape or view.dtype != dtype:
            n = math.prod(shape)
            flat = self._flat.get(key)
            if flat is None or flat.size < n or flat.dtype != dtype:
                flat = self._flat[key] = np.empty(n, dtype)
            view = self._views[key] = flat[:n].reshape(shape)
        return view


class _FreshArrays(Workspace):
    """The workspace of a pass that keeps nothing between passes."""

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.empty(shape, dtype)


FRESH = _FreshArrays()
"""Default workspace: every array a pass asks for is a new one."""


class Grads(dict):
    """Parameter gradients in one zeroed buffer laid out like ``p.flat``.

    ``flat`` is taken from ``ws`` under "grads". ``add`` sums a
    contribution into the named view of it in place; the mapping holds the
    views of the names that received one, and every other parameter's
    range stays exactly zero.
    """

    def __init__(self, p: EncoderParams, ws: Workspace = FRESH):
        super().__init__()
        self.layout = p.layout
        self.flat = ws.take("grads", p.flat.shape, p.flat.dtype)
        self.flat.fill(0)

    def add(self, name: str, value: np.ndarray) -> None:
        view = self.get(name)
        if view is None:
            start, stop, shape = self.layout[name]
            view = self[name] = self.flat[start:stop].reshape(shape)
        view += value


# ---------------------------------------------------------------------------
# forward / backward building blocks


def _embed_forward(p: EncoderParams, tokens: np.ndarray, mask: np.ndarray, ws: Workspace) -> np.ndarray:
    n, t = tokens.shape
    if t > p.cfg.max_len:
        raise DataError(f"sequence length {t} exceeds configured max_len {p.cfg.max_len}")
    table = p["token_embedding"]
    if tokens.size and (tokens.min() < 0 or tokens.max() >= len(table)):
        raise DataError(f"token ids must lie in 0..{len(table) - 1}")
    # mode="raise" would gather through a temporary; the ids are checked above
    h = np.take(table, tokens, axis=0, out=ws.take("embed", (n, t, table.shape[1]), table.dtype), mode="clip")
    h += p["position_embedding"][None, :t, :]
    h *= mask[:, :, None]
    return h


def _embed_backward(
    p: EncoderParams, tokens: np.ndarray, mask: np.ndarray, dh: np.ndarray, grads: Grads, ws: Workspace
) -> None:
    t = tokens.shape[1]
    dh = np.multiply(dh, mask[:, :, None], out=ws.take("dh", dh.shape, dh.dtype))
    dtok = np.zeros_like(p["token_embedding"])
    np.add.at(dtok, tokens.reshape(-1), dh.reshape(-1, dh.shape[-1]))
    grads.add("token_embedding", dtok)
    dpos = np.zeros_like(p["position_embedding"])
    dpos[:t] = dh.sum(axis=0)
    grads.add("position_embedding", dpos)


def _subcache(cache: dict | None, key: str | int) -> dict | None:
    """The tape entry ``key`` of ``cache``, or None on an untaped pass."""
    return None if cache is None else cache.setdefault(key, {})


def _layernorm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, cache: dict | None, ws: Workspace, key
) -> np.ndarray:
    """Normalize the last axis. ``x`` is a sum the caller no longer needs:
    it is overwritten. A taped pass writes the output under ``key``."""
    h = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= h
    xc = np.subtract(x, mu, out=x)
    var = np.add.reduce(np.multiply(xc, xc, out=ws.take("tmp", x.shape, x.dtype)), axis=-1, keepdims=True)
    var /= h
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = np.multiply(xc, inv, out=xc)
    if cache is None:
        y = np.multiply(xhat, gain, out=xhat)
    else:
        cache["xhat"], cache["inv"] = xhat, inv
        y = np.multiply(xhat, gain, out=ws.take(key, x.shape, x.dtype))
    y += bias
    return y


def _layernorm_backward(
    dy: np.ndarray, cache: dict, gain: np.ndarray, ws: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overwrites ``dy`` with the input gradient it returns."""
    xhat, inv = cache["xhat"], cache["inv"]
    tmp = np.multiply(dy, xhat, out=ws.take("tmp", dy.shape, dy.dtype))
    dgain = tmp.sum(axis=(0, 1))
    dbias = dy.sum(axis=(0, 1))
    h = dy.shape[-1]
    dxhat = np.multiply(dy, gain, out=dy)
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= h
    m2 = np.add.reduce(np.multiply(dxhat, xhat, out=tmp), axis=-1, keepdims=True)
    m2 /= h
    # inv * (dxhat - m1 - xhat * m2), in that order
    dx = np.subtract(dxhat, m1, out=dxhat)
    dx -= np.multiply(xhat, m2, out=tmp)
    return np.multiply(inv, dx, out=dx), dgain, dbias


def _attention_forward(
    p: EncoderParams, i: int, h: np.ndarray, mask: np.ndarray, cache: dict | None, ws: Workspace
) -> np.ndarray:
    pre = f"layers.{i}."
    n, t, _ = shape = h.shape
    dt = h.dtype
    q = np.matmul(h, p[pre + "attn_q"], out=ws.take((i, "q"), shape, dt))
    k = np.matmul(h, p[pre + "attn_k"], out=ws.take((i, "k"), shape, dt))
    scale = 1.0 / math.sqrt(p.cfg.hidden)
    scores = np.matmul(q, k.swapaxes(1, 2), out=ws.take((i, "att"), (n, t, t), dt))
    if cache is not None:
        cache.update(h=h, q=q, k=k, scale=scale)
    del q, k
    scores *= scale
    scores += (1.0 - mask)[:, None, :] * ATTN_MASK_VALUE
    att = softmax(scores, out=scores)
    v = np.matmul(h, p[pre + "attn_v"], out=ws.take((i, "v"), shape, dt))
    ctx = np.matmul(att, v, out=ws.take((i, "ctx"), shape, dt))
    if cache is not None:
        cache.update(v=v, att=att, ctx=ctx)
    del v, att
    return np.matmul(ctx, p[pre + "attn_out"], out=ws.take((i, "s1"), shape, dt))


def _attention_backward(
    p: EncoderParams, i: int, cache: dict, dout: np.ndarray, grads: Grads, ws: Workspace
) -> np.ndarray:
    pre = f"layers.{i}."
    h, q, k, v, att, ctx, scale = (
        cache["h"], cache["q"], cache["k"], cache["v"], cache["att"], cache["ctx"], cache["scale"],
    )
    shape, dt = h.shape, h.dtype
    hd = shape[-1]
    grads.add(pre + "attn_out", ctx.reshape(-1, hd).T @ dout.reshape(-1, hd))
    dctx = np.matmul(dout, p[pre + "attn_out"].T, out=ws.take("attn.dctx", shape, dt))
    datt = np.matmul(dctx, v.swapaxes(1, 2), out=ws.take("attn.datt", att.shape, dt))
    dv = np.matmul(att.swapaxes(1, 2), dctx, out=ws.take("attn.dv", shape, dt))
    # dscores = att * (datt - rowsum(datt * att)), written over datt
    datt -= np.multiply(datt, att, out=ws.take("tmp", att.shape, dt)).sum(axis=-1, keepdims=True)
    dscores = np.multiply(att, datt, out=datt)
    dq = np.matmul(dscores, k, out=dctx)  # dctx is spent
    dq *= scale
    dk = np.matmul(dscores.swapaxes(1, 2), q, out=ws.take("tmp", shape, dt))
    dk *= scale
    h2 = h.reshape(-1, hd)
    grads.add(pre + "attn_q", h2.T @ dq.reshape(-1, hd))
    grads.add(pre + "attn_k", h2.T @ dk.reshape(-1, hd))
    grads.add(pre + "attn_v", h2.T @ dv.reshape(-1, hd))
    # dq @ Wq.T + dk @ Wk.T + dv @ Wv.T, the last two products going through dq's storage
    dx = np.matmul(dq, p[pre + "attn_q"].T, out=ws.take("dx", shape, dt))
    dx += np.matmul(dk, p[pre + "attn_k"].T, out=dq)
    dx += np.matmul(dv, p[pre + "attn_v"].T, out=dq)
    return dx


def _ffn_forward(p: EncoderParams, i: int, x: np.ndarray, cache: dict | None, ws: Workspace) -> np.ndarray:
    pre = f"layers.{i}."
    w1 = p[pre + "ffn_w1"]
    u = np.matmul(x, w1, out=ws.take((i, "r"), x.shape[:2] + w1.shape[1:], x.dtype))
    u += p[pre + "ffn_b1"]
    r = np.maximum(u, 0.0, out=u)
    if cache is not None:
        cache.update(x=x, r=r)
    out = np.matmul(r, p[pre + "ffn_w2"], out=ws.take((i, "s2"), x.shape, x.dtype))
    out += p[pre + "ffn_b2"]
    return out


def _ffn_backward(
    p: EncoderParams, i: int, cache: dict, dout: np.ndarray, grads: Grads, ws: Workspace
) -> np.ndarray:
    pre = f"layers.{i}."
    x, r = cache["x"], cache["r"]
    fd = r.shape[-1]
    hd = x.shape[-1]
    grads.add(pre + "ffn_w2", r.reshape(-1, fd).T @ dout.reshape(-1, hd))
    grads.add(pre + "ffn_b2", dout.sum(axis=(0, 1)))
    du = np.matmul(dout, p[pre + "ffn_w2"].T, out=ws.take("ffn.du", r.shape, r.dtype))
    du *= np.greater(r, 0, out=ws.take("ffn.on", r.shape, bool))
    grads.add(pre + "ffn_w1", x.reshape(-1, hd).T @ du.reshape(-1, fd))
    grads.add(pre + "ffn_b1", du.sum(axis=(0, 1)))
    return np.matmul(du, p[pre + "ffn_w1"].T, out=ws.take("dx", x.shape, x.dtype))


def _block_forward(
    p: EncoderParams, block: int, h: np.ndarray, mask: np.ndarray, cache: dict | None, ws: Workspace
) -> np.ndarray:
    """Apply block ``block`` (1-based); padded positions are re-zeroed.

    ``h`` is only read. Residual sums are formed in the sublayer outputs,
    which the layer norms then overwrite.
    """
    i = block - 1
    pre = f"layers.{i}."
    if p.cfg.attention:
        s1 = _attention_forward(p, i, h, mask, _subcache(cache, "attn"), ws)
        s1 += h
        n1 = _layernorm_forward(
            s1, p[pre + "norm1_gain"], p[pre + "norm1_bias"], _subcache(cache, "ln1"), ws, (i, "n1")
        )
    else:
        n1 = h
    s2 = _ffn_forward(p, i, n1, _subcache(cache, "ffn"), ws)
    s2 += n1
    n2 = _layernorm_forward(
        s2, p[pre + "norm2_gain"], p[pre + "norm2_bias"], _subcache(cache, "ln2"), ws, (i, "n2")
    )
    if cache is not None:
        cache["mask"] = mask
    n2 *= mask[:, :, None]
    return n2


def _block_backward(
    p: EncoderParams, block: int, cache: dict, dh_out: np.ndarray, grads: Grads, ws: Workspace
) -> np.ndarray:
    """Reverse of one block. ``dh_out`` is only read before the gradient
    that flows on is written; the result lives in the workspace's "dh"."""
    i = block - 1
    mask = cache["mask"]
    dn2 = np.multiply(dh_out, mask[:, :, None], out=ws.take("dh", dh_out.shape, dh_out.dtype))
    ds2, dg2, db2 = _layernorm_backward(dn2, cache["ln2"], p[f"layers.{i}.norm2_gain"], ws)
    grads.add(f"layers.{i}.norm2_gain", dg2)
    grads.add(f"layers.{i}.norm2_bias", db2)
    dn1 = np.add(ds2, _ffn_backward(p, i, cache["ffn"], ds2, grads, ws), out=ds2)
    if not p.cfg.attention:
        return dn1
    ds1, dg1, db1 = _layernorm_backward(dn1, cache["ln1"], p[f"layers.{i}.norm1_gain"], ws)
    grads.add(f"layers.{i}.norm1_gain", dg1)
    grads.add(f"layers.{i}.norm1_bias", db1)
    return np.add(ds1, _attention_backward(p, i, cache["attn"], ds1, grads, ws), out=ds1)


def _pool_forward(h: np.ndarray, mask: np.ndarray, cache: dict | None, ws: Workspace) -> np.ndarray:
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DataError("cannot pool a sequence with zero real tokens")
    x = np.multiply(h, mask[:, :, None], out=ws.take("pool", h.shape, h.dtype)).sum(axis=1)
    x /= counts[:, None]
    if cache is not None:
        cache.update(mask=mask, counts=counts)
    return x


def _pool_backward(cache: dict, dx: np.ndarray, ws: Workspace) -> np.ndarray:
    mask, counts = cache["mask"], cache["counts"]
    shape = mask.shape + dx.shape[1:]
    dh = np.multiply(dx[:, None, :], mask[:, :, None], out=ws.take("pool", shape, dx.dtype))
    dh /= counts[:, None, None]
    return dh


def _dense_forward(p: EncoderParams, x: np.ndarray, cache: dict | None) -> np.ndarray:
    u = x @ p["dense_w"]
    u += p["dense_b"]
    e = np.maximum(u, 0.0, out=u)
    if cache is not None:
        cache.update(x=x, e=e)
    return e


def _dense_backward(p: EncoderParams, cache: dict, de: np.ndarray, grads: Grads) -> np.ndarray:
    du = de * (cache["e"] > 0)
    grads.add("dense_w", cache["x"].T @ du)
    grads.add("dense_b", du.sum(axis=0))
    return du @ p["dense_w"].T


def head_logits(p: EncoderParams, e: np.ndarray) -> np.ndarray:
    """(M+1)-way classifier logits from intent representations."""
    return e @ p["head_w"] + p["head_b"]


def head_backward(p: EncoderParams, e: np.ndarray, dlogits: np.ndarray, grads: Grads) -> np.ndarray:
    grads.add("head_w", e.T @ dlogits)
    grads.add("head_b", dlogits.sum(axis=0))
    return dlogits @ p["head_w"].T


# ---------------------------------------------------------------------------
# segment runners (optionally taped)


def run_to_layer(
    p: EncoderParams,
    tokens: np.ndarray,
    mask: np.ndarray,
    rl: int,
    cache: dict | None = None,
    ws: Workspace = FRESH,
) -> np.ndarray:
    """Embeddings plus blocks 1..rl; rl=0 is the embedding stage alone."""
    if not 0 <= rl <= p.cfg.num_layers:
        raise DataError(f"resume layer {rl} out of range 0..{p.cfg.num_layers}")
    mask = mask.astype(p["token_embedding"].dtype)
    h = _embed_forward(p, tokens, mask, ws)
    if cache is not None:
        cache.update(tokens=tokens, mask=mask, stop=rl)
    blocks = _subcache(cache, "blocks")
    for b in range(1, rl + 1):
        h = _block_forward(p, b, h, mask, _subcache(blocks, b), ws)
    return h


def backward_to_layer(
    p: EncoderParams, cache: dict, dh: np.ndarray, grads: Grads, ws: Workspace = FRESH
) -> None:
    for b in range(cache["stop"], 0, -1):
        dh = _block_backward(p, b, cache["blocks"][b], dh, grads, ws)
    _embed_backward(p, cache["tokens"], cache["mask"], dh, grads, ws)


def run_from_layer(
    p: EncoderParams,
    h: np.ndarray,
    mask: np.ndarray,
    start: int,
    cache: dict | None = None,
    ws: Workspace = FRESH,
) -> np.ndarray:
    """Blocks start+1..L, masked mean pooling, then the ReLU dense layer."""
    if not 0 <= start <= p.cfg.num_layers:
        raise DataError(f"resume layer {start} out of range 0..{p.cfg.num_layers}")
    mask = mask.astype(h.dtype)
    if cache is not None:
        cache["start"] = start
    blocks = _subcache(cache, "blocks")
    for b in range(start + 1, p.cfg.num_layers + 1):
        h = _block_forward(p, b, h, mask, _subcache(blocks, b), ws)
    x = _pool_forward(h, mask, _subcache(cache, "pool"), ws)
    return _dense_forward(p, x, _subcache(cache, "dense"))


def backward_from_layer(
    p: EncoderParams, cache: dict, de: np.ndarray, grads: Grads, ws: Workspace = FRESH
) -> np.ndarray:
    """Reverse of run_from_layer; returns the gradient at the cut point."""
    dx = _dense_backward(p, cache["dense"], de, grads)
    dh = _pool_backward(cache["pool"], dx, ws)
    for b in range(p.cfg.num_layers, cache["start"], -1):
        dh = _block_backward(p, b, cache["blocks"][b], dh, grads, ws)
    return dh


# ---------------------------------------------------------------------------
# public pass API


def forward(p: EncoderParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Full pass: intent representations e and (M+1)-way logits."""
    mask = batch.mask.astype(p["token_embedding"].dtype)
    h = run_to_layer(p, batch.tokens, mask, 0)
    e = run_from_layer(p, h, mask, 0)
    return e, head_logits(p, e)


class TapedForward:
    """One recorded full pass; backward(dlogits) yields all parameter grads.

    The tape's arrays live in ``ws``: pass the stage's workspace so that
    every step reuses one set of buffers.
    """

    def __init__(self, p: EncoderParams, batch: Batch, ws: Workspace = FRESH):
        self.p = p
        self.ws = ws
        self.to_cache: dict = {}
        self.from_cache: dict = {}
        mask = batch.mask.astype(p["token_embedding"].dtype)
        h = run_to_layer(p, batch.tokens, mask, 0, cache=self.to_cache, ws=ws)
        self.e = run_from_layer(p, h, mask, 0, cache=self.from_cache, ws=ws)
        self.logits = head_logits(p, self.e)

    def backward(self, dlogits: np.ndarray) -> Grads:
        grads = Grads(self.p, self.ws)
        de = head_backward(self.p, self.e, dlogits, grads)
        dh = backward_from_layer(self.p, self.from_cache, de, grads, self.ws)
        backward_to_layer(self.p, self.to_cache, dh, grads, self.ws)
        return grads


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(p: EncoderParams, path: str) -> None:
    """JSON header line, then the flat buffer as raw little-endian float32."""
    header = {
        "names": p.names(),
        "shapes": [list(p[n].shape) for n in p.names()],
        "dtype": "f32",
        "M": p.M,
        "config": p.cfg.to_dict(),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(np.ascontiguousarray(p.flat, dtype=CHECKPOINT_DTYPE).data)


def load_checkpoint(path: str) -> EncoderParams:
    with open(path, "rb") as f:
        blob = f.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing header terminator")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    for key in ("names", "shapes", "dtype", "M", "config"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    if header["dtype"] != "f32":
        raise CheckpointError(f"{path}: unsupported dtype {header['dtype']!r}")
    cfg = EncoderConfig.from_dict(header["config"])
    expected = param_spec(cfg, header["M"])
    names = [n for n, _, _ in expected]
    shapes = [list(s) for _, s, _ in expected]
    if header["names"] != names or header["shapes"] != shapes:
        raise CheckpointError(
            f"{path}: header names/shapes do not match config (M={header['M']}, "
            f"head width {header['M'] + 1})"
        )
    layout = _layout({n: s for n, s, _ in expected})
    payload_bytes = len(blob) - newline - 1
    expected_bytes = sum(stop - start for start, stop, _ in layout.values()) * CHECKPOINT_DTYPE.itemsize
    if payload_bytes != expected_bytes:
        raise CheckpointError(
            f"{path}: payload is {payload_bytes} bytes, expected {expected_bytes}"
        )
    payload = np.frombuffer(blob, CHECKPOINT_DTYPE, offset=newline + 1)
    params = EncoderParams(cfg, header["M"], _views(payload, layout))
    finite = np.isfinite(params.flat)
    if not finite.all():
        bad = params.owner(int(np.argmin(finite)))
        raise CheckpointError(f"{path}: non-finite values in tensor {bad!r}")
    return params
