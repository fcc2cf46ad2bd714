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
which is the mixup injection point. Each runner optionally fills a cache
dict that its ``backward_*`` counterpart consumes, so one recorded pass
yields every parameter gradient. All math is dtype-generic; training runs
in float32 while gradient checks rerun the same code in float64.

Parameters live in a name-keyed dict with a canonical order, which is also
the checkpoint serialization order.
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


@dataclass
class EncoderParams:
    """All trainable tensors, keyed by canonical name."""

    cfg: EncoderConfig
    M: int
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.cfg, self.M, {k: v.copy() for k, v in self.tensors.items()})

    def astype(self, dtype) -> "EncoderParams":
        return EncoderParams(self.cfg, self.M, {k: v.astype(dtype) for k, v in self.tensors.items()})


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


class Grads(dict):
    """Accumulating parameter-gradient container."""

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self:
            self[name] = self[name] + value
        else:
            self[name] = value


# ---------------------------------------------------------------------------
# forward / backward building blocks


def _embed_forward(p: EncoderParams, tokens: np.ndarray, mask: np.ndarray) -> np.ndarray:
    t = tokens.shape[1]
    if t > p.cfg.max_len:
        raise DataError(f"sequence length {t} exceeds configured max_len {p.cfg.max_len}")
    h = p["token_embedding"][tokens] + p["position_embedding"][None, :t, :]
    return h * mask[:, :, None]


def _embed_backward(p: EncoderParams, tokens: np.ndarray, mask: np.ndarray, dh: np.ndarray, grads: Grads) -> None:
    t = tokens.shape[1]
    dh = dh * mask[:, :, None]
    dtok = np.zeros_like(p["token_embedding"])
    np.add.at(dtok, tokens.reshape(-1), dh.reshape(-1, dh.shape[-1]))
    grads.add("token_embedding", dtok)
    dpos = np.zeros_like(p["position_embedding"])
    dpos[:t] = dh.sum(axis=0)
    grads.add("position_embedding", dpos)


def _layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, dict]:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, {"xhat": xhat, "inv": inv}


def _layernorm_backward(dy: np.ndarray, cache: dict, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv = cache["xhat"], cache["inv"]
    dgain = (dy * xhat).sum(axis=(0, 1))
    dbias = dy.sum(axis=(0, 1))
    dxhat = dy * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgain, dbias


def _attention_forward(p: EncoderParams, i: int, h: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
    pre = f"layers.{i}."
    q = h @ p[pre + "attn_q"]
    k = h @ p[pre + "attn_k"]
    v = h @ p[pre + "attn_v"]
    scale = 1.0 / math.sqrt(p.cfg.hidden)
    scores = np.matmul(q, k.swapaxes(1, 2)) * scale
    scores = scores + (1.0 - mask)[:, None, :] * ATTN_MASK_VALUE
    att = softmax(scores)
    ctx = np.matmul(att, v)
    out = ctx @ p[pre + "attn_out"]
    return out, {"h": h, "q": q, "k": k, "v": v, "att": att, "ctx": ctx, "scale": scale}


def _attention_backward(p: EncoderParams, i: int, cache: dict, dout: np.ndarray, grads: Grads) -> np.ndarray:
    pre = f"layers.{i}."
    h, q, k, v, att, ctx, scale = (
        cache["h"], cache["q"], cache["k"], cache["v"], cache["att"], cache["ctx"], cache["scale"],
    )
    hd = h.shape[-1]
    grads.add(pre + "attn_out", ctx.reshape(-1, hd).T @ dout.reshape(-1, hd))
    dctx = dout @ p[pre + "attn_out"].T
    datt = np.matmul(dctx, v.swapaxes(1, 2))
    dv = np.matmul(att.swapaxes(1, 2), dctx)
    dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
    dq = np.matmul(dscores, k) * scale
    dk = np.matmul(dscores.swapaxes(1, 2), q) * scale
    h2 = h.reshape(-1, hd)
    grads.add(pre + "attn_q", h2.T @ dq.reshape(-1, hd))
    grads.add(pre + "attn_k", h2.T @ dk.reshape(-1, hd))
    grads.add(pre + "attn_v", h2.T @ dv.reshape(-1, hd))
    return dq @ p[pre + "attn_q"].T + dk @ p[pre + "attn_k"].T + dv @ p[pre + "attn_v"].T


def _ffn_forward(p: EncoderParams, i: int, x: np.ndarray) -> tuple[np.ndarray, dict]:
    pre = f"layers.{i}."
    u = x @ p[pre + "ffn_w1"] + p[pre + "ffn_b1"]
    r = np.maximum(u, 0.0)
    out = r @ p[pre + "ffn_w2"] + p[pre + "ffn_b2"]
    return out, {"x": x, "active": u > 0, "r": r}


def _ffn_backward(p: EncoderParams, i: int, cache: dict, dout: np.ndarray, grads: Grads) -> np.ndarray:
    pre = f"layers.{i}."
    x, active, r = cache["x"], cache["active"], cache["r"]
    fd = r.shape[-1]
    hd = x.shape[-1]
    grads.add(pre + "ffn_w2", r.reshape(-1, fd).T @ dout.reshape(-1, hd))
    grads.add(pre + "ffn_b2", dout.sum(axis=(0, 1)))
    du = (dout @ p[pre + "ffn_w2"].T) * active
    grads.add(pre + "ffn_w1", x.reshape(-1, hd).T @ du.reshape(-1, fd))
    grads.add(pre + "ffn_b1", du.sum(axis=(0, 1)))
    return du @ p[pre + "ffn_w1"].T


def _block_forward(p: EncoderParams, block: int, h: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
    """Apply block ``block`` (1-based); padded positions are re-zeroed."""
    i = block - 1
    cache: dict = {}
    if p.cfg.attention:
        attn_out, cache["attn"] = _attention_forward(p, i, h, mask)
        s1 = h + attn_out
        n1, cache["ln1"] = _layernorm_forward(s1, p[f"layers.{i}.norm1_gain"], p[f"layers.{i}.norm1_bias"])
    else:
        n1 = h
    f_out, cache["ffn"] = _ffn_forward(p, i, n1)
    s2 = n1 + f_out
    n2, cache["ln2"] = _layernorm_forward(s2, p[f"layers.{i}.norm2_gain"], p[f"layers.{i}.norm2_bias"])
    cache["mask"] = mask
    return n2 * mask[:, :, None], cache


def _block_backward(p: EncoderParams, block: int, cache: dict, dh_out: np.ndarray, grads: Grads) -> np.ndarray:
    i = block - 1
    mask = cache["mask"]
    dn2 = dh_out * mask[:, :, None]
    ds2, dg2, db2 = _layernorm_backward(dn2, cache["ln2"], p[f"layers.{i}.norm2_gain"])
    grads.add(f"layers.{i}.norm2_gain", dg2)
    grads.add(f"layers.{i}.norm2_bias", db2)
    dn1 = ds2 + _ffn_backward(p, i, cache["ffn"], ds2, grads)
    if not p.cfg.attention:
        return dn1
    ds1, dg1, db1 = _layernorm_backward(dn1, cache["ln1"], p[f"layers.{i}.norm1_gain"])
    grads.add(f"layers.{i}.norm1_gain", dg1)
    grads.add(f"layers.{i}.norm1_bias", db1)
    return ds1 + _attention_backward(p, i, cache["attn"], ds1, grads)


def _pool_forward(h: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, dict]:
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        raise DataError("cannot pool a sequence with zero real tokens")
    x = (h * mask[:, :, None]).sum(axis=1) / counts[:, None]
    return x, {"mask": mask, "counts": counts}


def _pool_backward(cache: dict, dx: np.ndarray) -> np.ndarray:
    mask, counts = cache["mask"], cache["counts"]
    return dx[:, None, :] * mask[:, :, None] / counts[:, None, None]


def _dense_forward(p: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    u = x @ p["dense_w"] + p["dense_b"]
    e = np.maximum(u, 0.0)
    return e, {"x": x, "active": u > 0}


def _dense_backward(p: EncoderParams, cache: dict, de: np.ndarray, grads: Grads) -> np.ndarray:
    du = de * cache["active"]
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


def run_to_layer(p: EncoderParams, tokens: np.ndarray, mask: np.ndarray, rl: int, cache: dict | None = None) -> np.ndarray:
    """Embeddings plus blocks 1..rl; rl=0 is the embedding stage alone."""
    if not 0 <= rl <= p.cfg.num_layers:
        raise DataError(f"resume layer {rl} out of range 0..{p.cfg.num_layers}")
    mask = mask.astype(p["token_embedding"].dtype)
    h = _embed_forward(p, tokens, mask)
    if cache is not None:
        cache["tokens"] = tokens
        cache["mask"] = mask
        cache["blocks"] = {}
    for b in range(1, rl + 1):
        h, bc = _block_forward(p, b, h, mask)
        if cache is not None:
            cache["blocks"][b] = bc
    return h


def backward_to_layer(p: EncoderParams, cache: dict, dh: np.ndarray, grads: Grads) -> None:
    for b in sorted(cache["blocks"], reverse=True):
        dh = _block_backward(p, b, cache["blocks"][b], dh, grads)
    _embed_backward(p, cache["tokens"], cache["mask"], dh, grads)


def run_from_layer(p: EncoderParams, h: np.ndarray, mask: np.ndarray, start: int, cache: dict | None = None) -> np.ndarray:
    """Blocks start+1..L, masked mean pooling, then the ReLU dense layer."""
    if not 0 <= start <= p.cfg.num_layers:
        raise DataError(f"resume layer {start} out of range 0..{p.cfg.num_layers}")
    mask = mask.astype(h.dtype)
    if cache is not None:
        cache["blocks"] = {}
    for b in range(start + 1, p.cfg.num_layers + 1):
        h, bc = _block_forward(p, b, h, mask)
        if cache is not None:
            cache["blocks"][b] = bc
    x, pool_cache = _pool_forward(h, mask)
    e, dense_cache = _dense_forward(p, x)
    if cache is not None:
        cache["pool"] = pool_cache
        cache["dense"] = dense_cache
    return e


def backward_from_layer(p: EncoderParams, cache: dict, de: np.ndarray, grads: Grads) -> np.ndarray:
    """Reverse of run_from_layer; returns the gradient at the cut point."""
    dx = _dense_backward(p, cache["dense"], de, grads)
    dh = _pool_backward(cache["pool"], dx)
    for b in sorted(cache["blocks"], reverse=True):
        dh = _block_backward(p, b, cache["blocks"][b], dh, grads)
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
    """One recorded full pass; backward(dlogits) yields all parameter grads."""

    def __init__(self, p: EncoderParams, batch: Batch):
        self.p = p
        self.to_cache: dict = {}
        self.from_cache: dict = {}
        mask = batch.mask.astype(p["token_embedding"].dtype)
        h = run_to_layer(p, batch.tokens, mask, 0, cache=self.to_cache)
        self.e = run_from_layer(p, h, mask, 0, cache=self.from_cache)
        self.logits = head_logits(p, self.e)

    def backward(self, dlogits: np.ndarray) -> Grads:
        grads = Grads()
        de = head_backward(self.p, self.e, dlogits, grads)
        dh = backward_from_layer(self.p, self.from_cache, de, grads)
        backward_to_layer(self.p, self.to_cache, dh, grads)
        return grads


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(p: EncoderParams, path: str) -> None:
    """JSON header line, then all tensors as raw little-endian float32."""
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
        for name in p.names():
            f.write(np.ascontiguousarray(p[name], dtype=CHECKPOINT_DTYPE).tobytes())


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
    payload = blob[newline + 1 :]
    expected_bytes = sum(int(np.prod(s)) for s in shapes) * CHECKPOINT_DTYPE.itemsize
    if len(payload) != expected_bytes:
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, expected {expected_bytes}"
        )
    tensors: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in zip(names, shapes):
        nbytes = int(np.prod(shape)) * CHECKPOINT_DTYPE.itemsize
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype=CHECKPOINT_DTYPE)
        tensors[name] = arr.reshape(shape).astype(np.float32)
        offset += nbytes
    params = EncoderParams(cfg=cfg, M=header["M"], tensors=tensors)
    for name in params.names():
        if not np.all(np.isfinite(params[name])):
            raise CheckpointError(f"{path}: non-finite values in tensor {name!r}")
    return params
