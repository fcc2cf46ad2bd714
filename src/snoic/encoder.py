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
through ``out=``, and so does the gradient buffer; per-row vectors are
allocated per pass. A training stage creates one workspace and records
each step's tape into it, so the tape, the backward gradients and the
scratch arrays reuse the same buffers step after step instead of being
allocated, freed and faulted back in. The default, :data:`FRESH`, hands
out new arrays, which is what untaped passes use.

Parameters live in one flat, C-contiguous buffer: :class:`EncoderParams`
keys reshaped views into it by name, back to back in canonical
:func:`param_spec` order, which is also the checkpoint layout, so a
checkpoint is that buffer written out; its ``blocks`` hold one
:class:`Block` of views per encoder block, which is what the block
functions read. Gradients are an :class:`EncoderParams` of the same
layout over the workspace's gradient buffer. A pass gives every
parameter exactly one contribution, which its backward block writes
straight into the parameter's view in the gradients' ``blocks``.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .corpus import Batch
from .errors import CheckpointError, DataError, TrainingError
from .losses import softmax

LN_EPS = 1e-5
ATTN_MASK_VALUE = -1e9

CHECKPOINT_DTYPE = np.dtype("<f4")
_CONFIG_MINIMUM = {"vocab_size": 3, "max_len": 2}  # least EncoderConfig values; 1 for other integers


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
        for f in fields(self):
            value, is_flag, low = getattr(self, f.name), f.type == "bool", _CONFIG_MINIMUM.get(f.name, 1)
            if isinstance(value, bool) != is_flag or not isinstance(value, numbers.Integral):
                raise DataError(f"{f.name} must be {'true or false' if is_flag else 'an integer'}, got {value!r}")
            if not is_flag and value < low:
                raise DataError(f"{f.name} must be >= {low}, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EncoderConfig":
        if not isinstance(obj, dict):
            raise DataError(f"encoder config must be an object, got {obj!r}")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(obj) - known
        if extra:
            raise DataError(f"unknown encoder config keys: {sorted(extra)}")
        missing = {"vocab_size"} - set(obj)
        if missing:
            raise DataError(f"encoder config missing keys: {sorted(missing)}")
        return cls(**obj)


# one block's tensors (name, shape as EncoderConfig fields, kind), the attention
# sublayer's six first; their parameter names are "layers.<i>.<name>". A Block
# holds one block's views, with None for attention's when attention is off.
_BLOCK_TENSORS = (
    ("attn_q", ("hidden", "hidden"), "weight"),
    ("attn_k", ("hidden", "hidden"), "weight"),
    ("attn_v", ("hidden", "hidden"), "weight"),
    ("attn_out", ("hidden", "hidden"), "weight"),
    ("norm1_gain", ("hidden",), "gain"),
    ("norm1_bias", ("hidden",), "bias"),
    ("ffn_w1", ("hidden", "ffn"), "weight"),
    ("ffn_b1", ("ffn",), "bias"),
    ("ffn_w2", ("ffn", "hidden"), "weight"),
    ("ffn_b2", ("hidden",), "bias"),
    ("norm2_gain", ("hidden",), "gain"),
    ("norm2_bias", ("hidden",), "bias"),
)

Block = namedtuple("Block", [name for name, _, _ in _BLOCK_TENSORS])


def param_spec(cfg: EncoderConfig, M: int) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, kind) listing; kind is weight, bias, or gain."""
    if isinstance(M, bool) or not isinstance(M, numbers.Integral) or M < 1:
        raise DataError(f"M must be an integer >= 1, got {M!r}")
    h, d = cfg.hidden, cfg.dim
    block = _BLOCK_TENSORS if cfg.attention else _BLOCK_TENSORS[6:]
    return [
        ("token_embedding", (cfg.vocab_size, h), "weight"),
        ("position_embedding", (cfg.max_len, h), "weight"),
        *(
            (f"layers.{i}.{name}", tuple(getattr(cfg, dim) for dim in dims), kind)
            for i in range(cfg.num_layers)
            for name, dims, kind in block
        ),
        ("dense_w", (h, d), "weight"),
        ("dense_b", (d,), "bias"),
        ("head_w", (d, M + 1), "weight"),
        ("head_b", (M + 1,), "bias"),
    ]


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
    common dtype; :meth:`with_flat` lays them over another buffer, as
    gradients are. ``tensors`` is a read-only mapping, so a tensor can
    only be written in place and never detached from ``flat``; ``blocks``
    holds the same views once more, one read-only :class:`Block` per
    encoder block.
    """

    def __init__(self, cfg: EncoderConfig, M: int, tensors: dict[str, np.ndarray]):
        flat = np.concatenate([np.ravel(t) for t in tensors.values()])
        self._bind(cfg, M, flat, _layout({name: np.shape(t) for name, t in tensors.items()}))

    def _bind(self, cfg: EncoderConfig, M: int, flat: np.ndarray, layout: dict) -> "EncoderParams":
        self.cfg, self.M, self.flat, self.layout = cfg, M, flat, layout
        self.tensors = MappingProxyType(_views(flat, layout))
        self.blocks = tuple(
            Block(*(self.tensors.get(f"layers.{i}.{name}") for name in Block._fields)) for i in range(cfg.num_layers)
        )
        return self

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def owner(self, index: int) -> str:
        """Name of the tensor that holds entry ``index`` of ``flat``."""
        return next(name for name, (start, stop, _) in self.layout.items() if start <= index < stop)

    def with_flat(self, flat: np.ndarray) -> "EncoderParams":
        """The same layout over ``flat``, which is used as is, not copied."""
        return EncoderParams.__new__(EncoderParams)._bind(self.cfg, self.M, flat, self.layout)

    def copy(self) -> "EncoderParams":
        return self.with_flat(self.flat.copy())

    def astype(self, dtype) -> "EncoderParams":
        return self.with_flat(self.flat.astype(dtype))


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
        self._grads: EncoderParams | None = None
        self.generation = 0

    def record(self) -> int:
        """Start recording a pass; returns its generation, the count of passes so far."""
        self.generation += 1
        return self.generation

    def grads(self, p: EncoderParams, generation: int) -> EncoderParams:
        """``p``'s layout over the "grads" buffer, its views built once, for
        the backward of pass ``generation``; raises if a later pass was recorded."""
        if generation != self.generation:
            raise TrainingError(f"stale tape: pass {generation} of its workspace was followed by {self.generation}")
        flat = self.take("grads", p.flat.shape, p.flat.dtype)
        if self._grads is None or self._grads.flat is not flat or self._grads.layout is not p.layout:
            self._grads = p.with_flat(flat)
        return self._grads

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
    """The workspace of passes that share no array, so no tape goes stale."""

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.empty(shape, dtype)

    def grads(self, p: EncoderParams, generation: int) -> EncoderParams:
        return p.with_flat(np.empty_like(p.flat))


FRESH = _FreshArrays()
"""Default workspace: every array a pass asks for is a new one."""


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
    p: EncoderParams, tokens: np.ndarray, mask: np.ndarray, dh: np.ndarray, grads: EncoderParams, ws: Workspace
) -> None:
    t = tokens.shape[1]
    dh = np.multiply(dh, mask[:, :, None], out=ws.take("dh", dh.shape, dh.dtype))
    dtok, dpos = grads["token_embedding"], grads["position_embedding"]
    dtok.fill(0)  # with the position rows past t, the only ranges a backward zeroes
    np.add.at(dtok, tokens.reshape(-1), dh.reshape(-1, dh.shape[-1]))
    np.sum(dh, axis=0, out=dpos[:t])
    dpos[t:] = 0


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
    dy: np.ndarray, cache: dict, gain: np.ndarray, dgain: np.ndarray, dbias: np.ndarray, ws: Workspace
) -> np.ndarray:
    """Writes the gain and bias gradients into ``dgain`` and ``dbias`` and
    overwrites ``dy`` with the input gradient it returns."""
    xhat, inv = cache["xhat"], cache["inv"]
    tmp = np.multiply(dy, xhat, out=ws.take("tmp", dy.shape, dy.dtype))
    np.sum(tmp, axis=(0, 1), out=dgain)
    np.sum(dy, axis=(0, 1), out=dbias)
    h = dy.shape[-1]
    dxhat = np.multiply(dy, gain, out=dy)
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= h
    m2 = np.add.reduce(np.multiply(dxhat, xhat, out=tmp), axis=-1, keepdims=True)
    m2 /= h
    # inv * (dxhat - m1 - xhat * m2), in that order
    dx = np.subtract(dxhat, m1, out=dxhat)
    dx -= np.multiply(xhat, m2, out=tmp)
    return np.multiply(inv, dx, out=dx)


def _attention_forward(
    w: Block, i: int, h: np.ndarray, mask: np.ndarray, cache: dict | None, ws: Workspace
) -> np.ndarray:
    n, t, hd = shape = h.shape
    dt = h.dtype
    q = np.matmul(h, w.attn_q, out=ws.take((i, "q"), shape, dt))
    k = np.matmul(h, w.attn_k, out=ws.take((i, "k"), shape, dt))
    scale = 1.0 / math.sqrt(hd)
    scores = np.matmul(q, k.swapaxes(1, 2), out=ws.take((i, "att"), (n, t, t), dt))
    if cache is not None:
        cache.update(h=h, q=q, k=k, scale=scale)
    del q, k
    scores *= scale
    scores += (1.0 - mask)[:, None, :] * ATTN_MASK_VALUE
    att = softmax(scores, out=scores)
    v = np.matmul(h, w.attn_v, out=ws.take((i, "v"), shape, dt))
    ctx = np.matmul(att, v, out=ws.take((i, "ctx"), shape, dt))
    if cache is not None:
        cache.update(v=v, att=att, ctx=ctx)
    del v, att
    return np.matmul(ctx, w.attn_out, out=ws.take((i, "s1"), shape, dt))


def _attention_backward(w: Block, g: Block, cache: dict, dout: np.ndarray, ws: Workspace) -> np.ndarray:
    h, q, k, v, att, ctx, scale = (
        cache["h"], cache["q"], cache["k"], cache["v"], cache["att"], cache["ctx"], cache["scale"],
    )
    shape, dt = h.shape, h.dtype
    hd = shape[-1]
    np.matmul(ctx.reshape(-1, hd).T, dout.reshape(-1, hd), out=g.attn_out)
    dctx = np.matmul(dout, w.attn_out.T, out=ws.take("attn.dctx", shape, dt))
    datt = np.matmul(dctx, v.swapaxes(1, 2), out=ws.take("attn.datt", att.shape, dt))
    dv = np.matmul(att.swapaxes(1, 2), dctx, out=ws.take("attn.dv", shape, dt))
    # dscores = att * (datt - rowsum(datt * att)), written over datt
    datt -= np.multiply(datt, att, out=ws.take("tmp", att.shape, dt)).sum(axis=-1, keepdims=True)
    dscores = np.multiply(att, datt, out=datt)
    dq = np.matmul(dscores, k, out=dctx)  # dctx is spent
    dq *= scale
    dk = np.matmul(dscores.swapaxes(1, 2), q, out=ws.take("tmp", shape, dt))
    dk *= scale
    for grad, d in ((g.attn_q, dq), (g.attn_k, dk), (g.attn_v, dv)):
        np.matmul(h.reshape(-1, hd).T, d.reshape(-1, hd), out=grad)
    # dq @ Wq.T + dk @ Wk.T + dv @ Wv.T, the last two products going through dq's storage
    dx = np.matmul(dq, w.attn_q.T, out=ws.take("dx", shape, dt))
    dx += np.matmul(dk, w.attn_k.T, out=dq)
    dx += np.matmul(dv, w.attn_v.T, out=dq)
    return dx


def _ffn_forward(w: Block, i: int, x: np.ndarray, cache: dict | None, ws: Workspace) -> np.ndarray:
    u = np.matmul(x, w.ffn_w1, out=ws.take((i, "r"), x.shape[:2] + w.ffn_w1.shape[1:], x.dtype))
    u += w.ffn_b1
    r = np.maximum(u, 0.0, out=u)
    if cache is not None:
        cache.update(x=x, r=r)
    out = np.matmul(r, w.ffn_w2, out=ws.take((i, "s2"), x.shape, x.dtype))
    out += w.ffn_b2
    return out


def _ffn_backward(w: Block, g: Block, cache: dict, dout: np.ndarray, ws: Workspace) -> np.ndarray:
    x, r = cache["x"], cache["r"]
    fd = r.shape[-1]
    hd = x.shape[-1]
    np.matmul(r.reshape(-1, fd).T, dout.reshape(-1, hd), out=g.ffn_w2)
    np.sum(dout, axis=(0, 1), out=g.ffn_b2)
    du = np.matmul(dout, w.ffn_w2.T, out=ws.take("ffn.du", r.shape, r.dtype))
    du *= np.greater(r, 0, out=ws.take("ffn.on", r.shape, bool))
    np.matmul(x.reshape(-1, hd).T, du.reshape(-1, fd), out=g.ffn_w1)
    np.sum(du, axis=(0, 1), out=g.ffn_b1)
    return np.matmul(du, w.ffn_w1.T, out=ws.take("dx", x.shape, x.dtype))


def _block_forward(w: Block, i: int, h: np.ndarray, mask: np.ndarray, cache: dict | None, ws: Workspace) -> np.ndarray:
    """Apply the block with tensors ``w``; ``i`` (0-based) keys its tape
    arrays. Padded positions are re-zeroed.

    ``h`` is only read. Residual sums are formed in the sublayer outputs,
    which the layer norms then overwrite.
    """
    if w.attn_q is None:
        n1 = h
    else:
        s1 = _attention_forward(w, i, h, mask, _subcache(cache, "attn"), ws)
        s1 += h
        n1 = _layernorm_forward(s1, w.norm1_gain, w.norm1_bias, _subcache(cache, "ln1"), ws, (i, "n1"))
    s2 = _ffn_forward(w, i, n1, _subcache(cache, "ffn"), ws)
    s2 += n1
    n2 = _layernorm_forward(s2, w.norm2_gain, w.norm2_bias, _subcache(cache, "ln2"), ws, (i, "n2"))
    if cache is not None:
        cache["mask"] = mask
    n2 *= mask[:, :, None]
    return n2


def _block_backward(w: Block, g: Block, cache: dict, dh_out: np.ndarray, ws: Workspace) -> np.ndarray:
    """Reverse of one block, writing its gradients into ``g``. ``dh_out`` is
    only read before the gradient that flows on is written; the result
    lives in the workspace's "dh"."""
    mask = cache["mask"]
    dn2 = np.multiply(dh_out, mask[:, :, None], out=ws.take("dh", dh_out.shape, dh_out.dtype))
    ds2 = _layernorm_backward(dn2, cache["ln2"], w.norm2_gain, g.norm2_gain, g.norm2_bias, ws)
    dn1 = np.add(ds2, _ffn_backward(w, g, cache["ffn"], ds2, ws), out=ds2)
    if w.attn_q is None:
        return dn1
    ds1 = _layernorm_backward(dn1, cache["ln1"], w.norm1_gain, g.norm1_gain, g.norm1_bias, ws)
    return np.add(ds1, _attention_backward(w, g, cache["attn"], ds1, ws), out=ds1)


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


def _dense_backward(p: EncoderParams, cache: dict, de: np.ndarray, grads: EncoderParams) -> np.ndarray:
    du = de * (cache["e"] > 0)
    np.matmul(cache["x"].T, du, out=grads["dense_w"])
    np.sum(du, axis=0, out=grads["dense_b"])
    return du @ p["dense_w"].T


def head_logits(p: EncoderParams, e: np.ndarray) -> np.ndarray:
    """(M+1)-way classifier logits from intent representations."""
    return e @ p["head_w"] + p["head_b"]


def head_backward(p: EncoderParams, e: np.ndarray, dlogits: np.ndarray, grads: EncoderParams) -> np.ndarray:
    np.matmul(e.T, dlogits, out=grads["head_w"])
    np.sum(dlogits, axis=0, out=grads["head_b"])
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
    mask = mask.astype(p["token_embedding"].dtype, copy=False)
    h = _embed_forward(p, tokens, mask, ws)
    if cache is not None:
        cache.update(tokens=tokens, mask=mask, stop=rl)
    blocks = _subcache(cache, "blocks")
    for i in range(rl):
        h = _block_forward(p.blocks[i], i, h, mask, _subcache(blocks, i), ws)
    return h


def backward_to_layer(
    p: EncoderParams, cache: dict, dh: np.ndarray, grads: EncoderParams, ws: Workspace = FRESH
) -> None:
    for i in reversed(range(cache["stop"])):
        dh = _block_backward(p.blocks[i], grads.blocks[i], cache["blocks"][i], dh, ws)
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
    mask = mask.astype(h.dtype, copy=False)
    if cache is not None:
        cache["start"] = start
    blocks = _subcache(cache, "blocks")
    for i in range(start, p.cfg.num_layers):
        h = _block_forward(p.blocks[i], i, h, mask, _subcache(blocks, i), ws)
    x = _pool_forward(h, mask, _subcache(cache, "pool"), ws)
    return _dense_forward(p, x, _subcache(cache, "dense"))


def backward_from_layer(
    p: EncoderParams, cache: dict, de: np.ndarray, grads: EncoderParams, ws: Workspace = FRESH
) -> np.ndarray:
    """Reverse of run_from_layer; returns the gradient at the cut point."""
    dx = _dense_backward(p, cache["dense"], de, grads)
    dh = _pool_backward(cache["pool"], dx, ws)
    for i in reversed(range(cache["start"], p.cfg.num_layers)):
        dh = _block_backward(p.blocks[i], grads.blocks[i], cache["blocks"][i], dh, ws)
    return dh


# ---------------------------------------------------------------------------
# public pass API


def forward(p: EncoderParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Full pass: intent representations e and (M+1)-way logits."""
    h = run_to_layer(p, batch.tokens, batch.mask, 0)
    e = run_from_layer(p, h, batch.mask, 0)
    return e, head_logits(p, e)


class TapedForward:
    """One recorded full pass; backward(dlogits) yields all parameter grads.

    The tape's arrays live in ``ws``: pass the stage's workspace so that
    every step reuses one set of buffers. backward raises TrainingError
    once another pass is recorded there; until then it may run again.
    """

    def __init__(self, p: EncoderParams, batch: Batch, ws: Workspace = FRESH):
        self.p = p
        self.ws = ws
        self.generation = ws.record()
        self.to_cache: dict = {}
        self.from_cache: dict = {}
        h = run_to_layer(p, batch.tokens, batch.mask, 0, cache=self.to_cache, ws=ws)
        self.e = run_from_layer(p, h, batch.mask, 0, cache=self.from_cache, ws=ws)
        self.logits = head_logits(p, self.e)

    def backward(self, dlogits: np.ndarray) -> EncoderParams:
        grads = self.ws.grads(self.p, self.generation)
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
    try:
        cfg = EncoderConfig.from_dict(header["config"])
        expected = param_spec(cfg, header["M"])
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
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
