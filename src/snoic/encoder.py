"""Compact transformer-style text encoder with a layer-resumable forward pass.

The encoder embeds token ids, applies ``num_layers`` blocks (single-head
scaled dot-product attention plus a feed-forward sublayer, each with a
residual connection and layer normalization), mean-pools the real-token
vectors, and maps the pooled vector through a ReLU dense layer to the
intent representation. A linear head produces M+1 logits.

The pass is built from two segment runners that meet at a block boundary:
:func:`run_to_layer` runs the embeddings and blocks 1..rl, and
:func:`run_from_layer` resumes from block rl+1 to the intent
representation. Between them the hidden state may be modified externally,
which is the mixup injection point.

Attention runs in its bilinear form. A block folds its four weights into
two H x H matrices, A = Wq Wk^T / sqrt(H) and B = Wv Wo, whose cost does
not grow with the batch. The scores are then u h^T with u = h A, and the
output is att g with g = h B: two token-wise products where the
q, k, v and output projections made four. The backward's token-wise
products are h^T du and h^T dg, the gradients of A and B, and du A^T and
dg B^T, to which the input gradient adds the keys' term; the four weight
gradients come from H x H products of the gradients of A and B.

Every product that sums over the packed rows, x^T dy for a weight's
gradient or for the gradient of A or B, is summed over blocks of
``WGRAD_ROWS`` rows in row order (:func:`_wgrad`). OpenBLAS rounds a
whole such product differently at different thread counts but each
block the same, so a seeded training run gives the same bytes at every
BLAS thread count.

Token-wise work runs on the real tokens only. A batch's real tokens are
the first ``lengths[i]`` positions of each row i. A pass builds one
:class:`Packing` from the lengths and the batch width, and the
embedding gather, u and g, the residual adds, the layer norms and the
feed-forward sublayer run on packed (real tokens, H) arrays, no padded
position among them. Only the attention core (scores, softmax and
``att @ g``, and their backward) runs in the padded (n, t, ·) layout: u,
h and g are gathered into it and the output is gathered back. Pooling
gathers the last block's rows into the padded layout once to sum them
per sequence. The runners take a packing and pass packed rows across the
cut: the hidden state there is (real tokens, H), one row per real token
in row-major order, and its gradient is zero-topped, one zero row above
the packed rows, which is the row a gather through ``Packing.pos`` reads
at padding.

The optional ``cache`` argument of the runners decides what a pass keeps.
With a cache dict (a tape), each sublayer stores under its block and name
(``(i, "attn")``) one tuple of exactly what its backward reads, and each
runner its packing and layer under ``"to"`` or ``"from"``, which the
``backward_*`` counterpart consumes. Both runners of a pass record into
its one tape, so one recorded pass yields every parameter gradient.
Without one, as in :func:`forward`, the sublayers store nothing and drop
each intermediate as soon as it is consumed. Both passes run the same
blocks, in place on arrays the pass itself allocated and in one
operation order, so taped and untaped logits are bit-identical. The
runners never write into arrays passed to them. All math is
dtype-generic; training runs in float32 while gradient checks rerun the
same code in float64.

Every per-token array a pass writes, and the gradient buffer, comes from
the :class:`Workspace` its packing was built on, through ``out=``;
per-row vectors are allocated per pass. A training stage records each
step's tape into one workspace, so the tape, the gradients and the
scratch reuse the same buffers step after step. The default,
:data:`FRESH`, hands out new arrays, which is what untaped passes use.

Parameters live in one flat, C-contiguous float buffer, laid out by
:func:`param_spec` alone: :class:`EncoderParams` keys reshaped views into
it by name, back to back in canonical order, which is also the checkpoint
layout, so a checkpoint is that buffer written out; its ``blocks`` hold one
:class:`Block` of views per encoder block, which is what the block
functions read. Gradients are an :class:`EncoderParams` of the same
layout over the workspace's gradient buffer. A pass gives every
parameter exactly one contribution, which its backward block writes
straight into the parameter's view in the gradients' ``blocks``.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .corpus import Batch
from .errors import CheckpointError, DataError, TrainingError, integer
from .losses import colsum, rowsum, softmax

LN_EPS = 1e-5
ATTN_MASK_VALUE = -1e9
WGRAD_ROWS = 256  # rows per block of a weight gradient's sum, see _wgrad

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

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, integer(f.name, getattr(self, f.name), _CONFIG_MINIMUM.get(f.name, 1)))

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


# one block's tensors (name, shape as EncoderConfig fields, kind); their parameter
# names are "layers.<i>.<name>", and a Block holds one block's views.
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
    M = integer("M", M, 1)
    h, d = cfg.hidden, cfg.dim
    return [
        ("token_embedding", (cfg.vocab_size, h), "weight"),
        ("position_embedding", (cfg.max_len, h), "weight"),
        *(
            (f"layers.{i}.{name}", tuple(getattr(cfg, dim) for dim in dims), kind)
            for i in range(cfg.num_layers)
            for name, dims, kind in _BLOCK_TENSORS
        ),
        ("dense_w", (h, d), "weight"),
        ("dense_b", (d,), "bias"),
        ("head_w", (d, M + 1), "weight"),
        ("head_b", (M + 1,), "bias"),
    ]


def _layout(cfg: EncoderConfig, M: int) -> dict[str, tuple[int, int, tuple[int, ...]]]:
    """name -> (start, stop, shape) of :func:`param_spec`'s tensors stored back to back."""
    layout, start = {}, 0
    for name, shape, _ in param_spec(cfg, M):
        stop = start + math.prod(shape)
        layout[name] = (start, stop, shape)
        start = stop
    return layout


class EncoderParams:
    """All trainable tensors, keyed by canonical name, as reshaped views
    into one flat buffer.

    ``flat`` holds every tensor that :func:`param_spec` lists for ``cfg``
    and ``M``, back to back in that order; ``layout`` maps each name to its
    (start, stop, shape). The constructor binds ``flat``, neither copied
    nor cast: a C-contiguous float vector of the layout's size, else
    DataError, as for a bad ``M``; :meth:`with_flat` lays the same layout
    over another buffer, as gradients are. ``tensors`` is a read-only
    mapping, so a tensor can only be written in place and never detached
    from ``flat``; ``blocks`` holds the same views once more, one read-only
    :class:`Block` per block.
    """

    def __init__(self, cfg: EncoderConfig, M: int, flat: np.ndarray):
        layout = _layout(cfg, M)
        size = next(reversed(layout.values()))[1]
        vector = isinstance(flat, np.ndarray) and flat.shape == (size,) and flat.flags.c_contiguous
        if not vector or flat.dtype.kind != "f":
            got = f"{getattr(flat, 'dtype', type(flat).__name__)} of shape {np.shape(flat)}"
            raise DataError(f"flat must be a C-contiguous float vector of {size} entries, got {got}")
        self._bind(cfg, int(M), flat, layout)

    def _bind(self, cfg: EncoderConfig, M: int, flat: np.ndarray, layout: dict) -> "EncoderParams":
        self.cfg, self.M, self.flat, self.layout = cfg, M, flat, layout
        self.tensors = MappingProxyType({name: flat[a:b].reshape(shape) for name, (a, b, shape) in layout.items()})
        self.blocks = tuple(
            Block(*(self.tensors[f"layers.{i}.{name}"] for name in Block._fields)) for i in range(cfg.num_layers)
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
    """Seeded float32 Glorot-uniform weights, zero biases, unit normalization gains."""
    rng = np.random.default_rng(integer("seed", seed, 0))
    spec = param_spec(cfg, M)
    p = EncoderParams(cfg, M, np.zeros(sum(math.prod(shape) for _, shape, _ in spec), np.float32))
    for name, shape, kind in spec:
        if kind == "weight":
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            p[name][...] = rng.uniform(-bound, bound, size=shape)
        elif kind == "gain":
            p[name][...] = 1.0
    return p


class _Arrays(dict):
    """Arrays made on first lookup: ``(key, shape, dtype)`` maps to an
    array of that shape, or, given ``rows``, ``(key, width, dtype)`` to a
    (rows, width) array, (rows,) when ``width`` is None. Unless ``keep``,
    every lookup makes a new one."""

    def __init__(self, rows: int | None = None, keep: bool = True):
        super().__init__()
        self.rows, self.keep = rows, keep

    def __missing__(self, key) -> np.ndarray:
        shape = key[1] if self.rows is None else (self.rows,) if key[1] is None else (self.rows, key[1])
        arr = np.empty(shape, key[2])
        if self.keep:
            self[key] = arr
        return arr


class Workspace:
    """Grow-only storage for the arrays of taped passes, kept for a stage.

    :meth:`buffers` maps ``(key, width, dtype)`` to a (rows, width) array
    of which a pass takes the first rows: one dictionary lookup and a
    slice, and no view kept. Its rows fit the packed rows and the padded
    layout of the largest (n, t) batch seen; a larger batch replaces them
    all. ``take(key, shape, dtype)`` serves arrays whose width changes
    between passes: a ``shape`` view of the flat buffer under ``key``,
    replaced only when outgrown or of another dtype. ``fixed`` maps
    ``(key, shape, dtype)`` to an array of that shape, for arrays sized by
    the model alone, such as attention's folded weights. A stage thus
    allocates its working set in its first steps. A pass overwrites what
    an earlier one wrote under its keys, so a tape is valid until the next
    pass is recorded. Keys name what an array holds: arrays a tape keeps
    are keyed by block and name (``(i, "u")``), backward gradients by name
    alone; ``"tmp"`` is scratch no function keeps past its return, and
    ``"rows"`` such scratch for packed rows below a zero row.
    """

    def __init__(self):
        self._flat: dict = {}
        self._buffers = _Arrays(0)
        self.fixed = _Arrays()
        self._grads: EncoderParams | None = None
        self.generation = 0

    def record(self) -> int:
        """Start recording a pass; returns its generation, the count of passes so far."""
        self.generation += 1
        return self.generation

    def grads(self, p: EncoderParams, generation: int) -> EncoderParams:
        """``p``'s layout over the gradient buffer, its views built once, for
        the backward of pass ``generation``; raises if a later pass was recorded."""
        if generation != self.generation:
            raise TrainingError(f"stale tape: pass {generation} of its workspace was followed by {self.generation}")
        if self._grads is None or self._grads.layout is not p.layout or self._grads.flat.dtype != p.flat.dtype:
            self._grads = p.with_flat(np.empty_like(p.flat))
        return self._grads

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        n = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < n or flat.dtype != dtype:
            flat = self._flat[key] = np.empty(n, dtype)
        return flat[:n].reshape(shape)

    def buffers(self, rows: int) -> _Arrays:
        """The buffers of a pass that reads at most ``rows`` rows of each."""
        if rows > self._buffers.rows:
            self._buffers = _Arrays(rows)
        return self._buffers


class _FreshArrays(Workspace):
    """The workspace of passes that share no array, so no tape goes stale."""

    def __init__(self):
        super().__init__()
        self.fixed = _Arrays(keep=False)

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        return np.empty(shape, dtype)

    def grads(self, p: EncoderParams, generation: int) -> EncoderParams:
        return p.with_flat(np.empty_like(p.flat))

    def buffers(self, rows: int) -> _Arrays:
        return _Arrays(rows, keep=False)


FRESH = _FreshArrays()
"""Default workspace: every array a pass asks for is a new one."""


def _wgrad(x: np.ndarray, dy: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """``x.T @ dy`` into ``out``, as the sum of the products of
    ``WGRAD_ROWS``-row blocks taken in row order. OpenBLAS rounds one
    product with a longer inner dimension differently at different thread
    counts, but not products of blocks this short, so training gives the
    same bytes at every thread count. The products of the blocks past the
    first are written into ``ws.fixed`` and added to ``out``."""
    np.matmul(x[:WGRAD_ROWS].T, dy[:WGRAD_ROWS], out=out)
    if x.shape[0] > WGRAD_ROWS:
        part = ws.fixed["wgrad", out.shape, out.dtype]
        for start in range(WGRAD_ROWS, x.shape[0], WGRAD_ROWS):
            stop = start + WGRAD_ROWS
            out += np.matmul(x[start:stop].T, dy[start:stop], out=part)
    return out


# ---------------------------------------------------------------------------
# packed rows


class _Aranges(dict):
    """bits -> the read-only intp vector 0, 1, ..., 2 ** bits - 1: the first n
    entries of ``_ARANGE[n.bit_length()]`` index n rows without allocating."""

    def __missing__(self, bits: int) -> np.ndarray:
        indices = self[bits] = np.arange(1 << bits)
        indices.flags.writeable = False
        return indices


_ARANGE = _Aranges()


class Packing:
    """Where the real tokens of an (n, t) batch sit, built once per pass
    from its row lengths and width ``t``.

    Position c of row s is real when c < ``lengths[s]``; the lengths are
    integers in 0..t, else :class:`DataError`. Token-wise sublayers run on
    packed (rows, width) arrays, one row per real token in row-major
    order, so no padded position is computed. ``idx`` holds each packed
    row's position in the flattened (n * t) layout, and ``seq`` and
    ``col`` its row and column; gathering ``idx`` from the (n * t, width)
    rows of a padded array packs it. ``pos`` holds 1 + the packed row of each padded
    position, and 0 at padding; gathering it from a zero-topped buffer
    (:meth:`zero_topped`) unpacks a packed array with zeros at padding
    (:meth:`unpack`). ``counts`` are the lengths and ``bias`` the
    attention scores' additive term, 0 at real keys and
    ``ATTN_MASK_VALUE`` at padding, both in ``dtype``. ``ws`` is the
    workspace of the pass and ``buf`` its :meth:`Workspace.buffers`:
    ``buf[key, width, dtype][:rows]`` is a packed array, and the first
    ``positions`` = n * t rows of one a padded array. The packing's own
    index vectors are keyed by ``key``, so two packings take two keys.
    """

    def __init__(self, lengths: np.ndarray, width: int, dtype, ws: Workspace = FRESH, key: str = "to"):
        lengths = np.asarray(lengths)
        if lengths.ndim != 1 or lengths.dtype.kind not in "iu":
            raise DataError(f"lengths must be a vector of integers, got {lengths.dtype} of shape {lengths.shape}")
        if lengths.size and (np.minimum.reduce(lengths) < 0 or np.maximum.reduce(lengths) > width):
            raise DataError(f"lengths must lie in 0..{width}, got {lengths.min()}..{lengths.max()}")
        n, t = self.shape = lengths.size, width
        nt = self.positions = n * t
        self.ws = ws
        buf = self.buf = ws.buffers(nt + 1)
        starts = lengths.cumsum(dtype=np.intp)
        rows = self.rows = int(starts[-1]) if n else 0
        starts -= lengths  # where each row's packed rows begin
        seq = self.seq = buf[(key, "seq"), None, np.intp][:rows]
        seq[:] = _ARANGE[n.bit_length()][:n].repeat(lengths)
        col = self.col = starts.take(seq, out=buf[(key, "col"), None, np.intp][:rows], mode="clip")
        arange = _ARANGE[(nt + 1).bit_length()]  # sized by the padded layout, as the buffers are
        np.subtract(arange[:rows], col, out=col)
        idx = self.idx = np.multiply(seq, t, out=buf[(key, "idx"), None, np.intp][:rows])
        idx += col
        pos = self.pos = buf[(key, "pos"), None, np.intp][:nt]
        pos[:] = 0
        pos[idx] = arange[1 : rows + 1]
        self.counts = lengths.astype(dtype)
        real = buf[(key, "real"), None, bool][:nt]
        np.less(_ARANGE[t.bit_length()][:t], lengths[:, None], out=real.reshape(n, t))
        bias = buf[(key, "bias"), None, dtype][:nt]
        np.subtract(1.0, real, out=bias, dtype=dtype)
        bias *= ATTN_MASK_VALUE
        self.bias = bias.reshape(n, 1, t)

    def zero_topped(self, key, width: int, dtype) -> np.ndarray:
        """A (rows + 1, width) buffer whose first row is zero. Its other rows
        hold a packed array, which :meth:`unpack` reads."""
        buf = self.buf[key, width, dtype][: self.rows + 1]
        buf[0] = 0
        return buf

    def unpack(self, topped: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """The padded (n, t, width) layout of the zero-topped ``topped``,
        written into the first n * t rows of the buffer ``buf``."""
        return topped.take(self.pos, axis=0, out=buf[: self.positions], mode="clip").reshape(self.shape + (-1,))


# ---------------------------------------------------------------------------
# forward / backward building blocks, on packed rows


def _embed_forward(p: EncoderParams, tokens: np.ndarray, pk: Packing, tape: dict | None) -> np.ndarray:
    t = tokens.shape[1]
    if t > p.cfg.max_len:
        raise DataError(f"sequence length {t} exceeds configured max_len {p.cfg.max_len}")
    table = p.tensors["token_embedding"]
    hd, rows = table.shape[1], pk.rows
    ids = tokens.take(pk.idx, out=pk.buf["embed.ids", None, tokens.dtype][:rows], mode="clip")
    if rows and (np.minimum.reduce(ids) < 0 or np.maximum.reduce(ids) >= len(table)):
        raise DataError(f"token ids must lie in 0..{len(table) - 1}")
    # mode="raise" would gather through a temporary; the ids are checked above
    h = table.take(ids, axis=0, out=pk.buf["embed", hd, table.dtype][:rows], mode="clip")
    h += p.tensors["position_embedding"].take(pk.col, axis=0, out=pk.buf["tmp", hd, h.dtype][:rows], mode="clip")
    if tape is not None:
        # the backward's scatter index, id * H + j per gradient element; the buffer numpy
        # takes for the broadcast add does not add to the peak before the tape holds anything
        at = pk.buf["embed.at", hd, np.intp][:rows]
        np.copyto(at, ids[:, None])
        at *= hd
        at += _ARANGE[hd.bit_length()][:hd]
        tape["at"] = at
    return h


def _embed_backward(p: EncoderParams, pk: Packing, tape: dict, dh: np.ndarray, grads: EncoderParams) -> None:
    """``dh`` is the zero-topped gradient of the embeddings' packed rows."""
    t, hd = pk.shape[1], dh.shape[1]
    dtok, dpos = grads.tensors["token_embedding"], grads.tensors["position_embedding"]
    dtok.fill(0)  # with the position rows past t, the only ranges a backward zeroes
    # dtok[ids] += dh row by row, run as one element scatter over the flat table: each
    # entry takes the same additions in the same order, so the sums are bit-identical
    np.add.at(dtok.reshape(-1), tape["at"].reshape(-1), dh[1:].reshape(-1))
    np.add.reduce(pk.unpack(dh, pk.buf["tmp", hd, dh.dtype]), axis=0, out=dpos[:t])
    dpos[t:] = 0


def _layernorm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, tape: dict | None, pk: Packing, key):
    """Normalize the last axis of ``x``, a sum the caller no longer needs, in
    place. A taped pass writes the output under ``key`` and tapes (xhat, inv) there."""
    h, dt = x.shape[-1], x.dtype
    mu = rowsum(x)
    mu /= h
    xc = np.subtract(x, mu, out=x)
    var = rowsum(np.multiply(xc, xc, out=pk.buf["tmp", h, dt][: pk.rows]))
    var /= h
    inv = np.divide(1.0, np.sqrt(np.add(var, LN_EPS, out=var), out=var), out=var)  # 1 / sqrt(var + eps)
    xhat = np.multiply(xc, inv, out=xc)
    if tape is None:
        y = np.multiply(xhat, gain, out=xhat)
    else:
        tape[key] = xhat, inv
        y = np.multiply(xhat, gain, out=pk.buf[key, h, dt][: pk.rows])
    y += bias
    return y


def _layernorm_backward(
    dy: np.ndarray, saved: tuple, gain: np.ndarray, dgain: np.ndarray, dbias: np.ndarray, pk: Packing
) -> np.ndarray:
    """Writes the gain and bias gradients into ``dgain`` and ``dbias`` and
    overwrites ``dy`` with the input gradient it returns."""
    xhat, inv = saved
    h = dy.shape[-1]
    tmp = np.multiply(dy, xhat, out=pk.buf["tmp", h, dy.dtype][: pk.rows])
    colsum(tmp, out=dgain)
    colsum(dy, out=dbias)
    dxhat = np.multiply(dy, gain, out=dy)
    m1 = rowsum(dxhat)
    m1 /= h
    m2 = rowsum(np.multiply(dxhat, xhat, out=tmp))
    m2 /= h
    # inv * (dxhat - m1 - xhat * m2), in that order
    dx = np.subtract(dxhat, m1, out=dxhat)
    dx -= np.multiply(xhat, m2, out=tmp)
    return np.multiply(inv, dx, out=dx)


def _attention_forward(w: Block, i: int, h: np.ndarray, pk: Packing, tape: dict | None) -> np.ndarray:
    """Single-head attention in its bilinear form: with A = Wq Wk^T / sqrt(H)
    and B = Wv Wo, a query row's score against key row j is (h A) . h_j and
    the output is att (h B), so the packed rows ``h`` go through two
    products, u = h A and g = h B, instead of four projections. The scores,
    softmax and ``att @ g`` run in the padded (n, t, ·) layout, u, h and g
    unpacked into it, and the output is packed back."""
    (n, t), hd, dt = pk.shape, h.shape[1], h.dtype
    buf = pk.buf
    scale = hd**-0.5
    fold = pk.ws.fixed[(i, "fold"), (2, hd, hd), dt]
    np.matmul(w.attn_q, w.attn_k.T, out=fold[0])
    fold[0] *= scale
    np.matmul(w.attn_v, w.attn_out, out=fold[1])
    rows = pk.zero_topped("rows", hd, dt)
    np.matmul(h, fold[0], out=rows[1:])
    u = pk.unpack(rows, buf[(i, "u"), hd, dt])
    rows[1:] = h
    k = pk.unpack(rows, buf[(i, "k"), hd, dt])
    scores = np.matmul(u, k.mT, out=pk.ws.take((i, "att"), (n, t, t), dt))
    if tape is None:
        del u, k  # an untaped pass lets them go before it takes more
    scores += pk.bias
    att = softmax(scores, out=scores)
    np.matmul(h, fold[1], out=rows[1:])
    g = pk.unpack(rows, buf[(i, "g"), hd, dt])
    padded = buf["attn.pad", hd, dt][: pk.positions]
    np.matmul(att, g, out=padded.reshape(n, t, hd))
    if tape is None:
        del g, att
    else:
        tape[i, "attn"] = h, u, k, g, att, fold, scale
    return padded.take(pk.idx, axis=0, out=buf[(i, "s1"), hd, dt][: pk.rows], mode="clip")


def _attention_backward(w: Block, dw: Block, saved: tuple, dout: np.ndarray, pk: Packing) -> np.ndarray:
    """Writes the attention weights' gradients into ``dw``: they come from
    the gradients of A and B, h^T du and h^T dg, through H x H products.
    Returns the input gradient du A^T + dg B^T plus the keys' packed term."""
    h, u, k, g, att, (a, b), scale = saved
    shape, hd, dt = u.shape, h.shape[1], h.dtype
    buf, packed = pk.buf, pk.rows
    rows = pk.zero_topped("rows", hd, dt)
    rows[1:] = dout
    # the padded gradients of u, of h as keys and of g as (n * t, H) rows; du goes over the
    # padded output gradient once spent
    du_pad, dk_pad = buf["attn.pad", hd, dt][: pk.positions], buf["tmp", hd, dt][: pk.positions]
    dg_pad = buf["attn.dg", hd, dt][: pk.positions]
    dpad = pk.unpack(rows, du_pad)
    datt = np.matmul(dpad, g.mT, out=pk.ws.take("attn.datt", att.shape, dt))
    np.matmul(att.mT, dpad, out=dg_pad.reshape(shape))
    # dscores = att * (datt - rowsum(datt * att)), written over datt
    datt -= rowsum(np.multiply(datt, att, out=pk.ws.take("tmp", att.shape, dt)))
    dscores = np.multiply(att, datt, out=datt)
    np.matmul(dscores.mT, u, out=dk_pad.reshape(shape))
    np.matmul(dscores, k, out=dpad)
    # packed, du where the packed dout was
    du = du_pad.take(pk.idx, axis=0, out=rows[1:], mode="clip")
    dk = dk_pad.take(pk.idx, axis=0, out=buf["attn.dk", hd, dt][:packed], mode="clip")
    dg = dg_pad.take(pk.idx, axis=0, out=buf["attn.dg.packed", hd, dt][:packed], mode="clip")
    da, db = pk.ws.fixed["attn.dfold", (2, hd, hd), dt]
    _wgrad(h, du, da, pk.ws)
    _wgrad(h, dg, db, pk.ws)
    da *= scale
    np.matmul(da, w.attn_k, out=dw.attn_q)
    np.matmul(da.T, w.attn_q, out=dw.attn_k)
    np.matmul(db, w.attn_out.T, out=dw.attn_v)
    np.matmul(w.attn_v.T, db, out=dw.attn_out)
    # the second product goes through du's storage, which nothing reads again
    dx = np.matmul(du, a.T, out=buf["dx", hd, dt][:packed])
    dx += np.matmul(dg, b.T, out=du)
    dx += dk
    return dx


def _ffn_forward(w: Block, i: int, x: np.ndarray, pk: Packing, tape: dict | None) -> np.ndarray:
    u = np.matmul(x, w.ffn_w1, out=pk.buf[(i, "r"), w.ffn_w1.shape[1], x.dtype][: pk.rows])
    u += w.ffn_b1
    r = np.maximum(u, 0.0, out=u)
    if tape is not None:
        tape[i, "ffn"] = x, r
    out = np.matmul(r, w.ffn_w2, out=pk.buf[(i, "s2"), x.shape[1], x.dtype][: pk.rows])
    out += w.ffn_b2
    return out


def _ffn_backward(w: Block, g: Block, saved: tuple, dout: np.ndarray, pk: Packing) -> np.ndarray:
    x, r = saved
    hd, fd, packed = x.shape[1], r.shape[1], pk.rows
    _wgrad(r, dout, g.ffn_w2, pk.ws)
    colsum(dout, out=g.ffn_b2)
    du = np.matmul(dout, w.ffn_w2.T, out=pk.buf["ffn.du", fd, r.dtype][:packed])
    du *= np.greater(r, 0, out=pk.buf["ffn.on", fd, bool][:packed])
    _wgrad(x, du, g.ffn_w1, pk.ws)
    colsum(du, out=g.ffn_b1)
    return np.matmul(du, w.ffn_w1.T, out=pk.buf["dx", hd, x.dtype][:packed])


def _block_forward(w: Block, i: int, h: np.ndarray, pk: Packing, tape: dict | None) -> np.ndarray:
    """Apply the block with tensors ``w`` to the packed rows ``h``, which it
    only reads; ``i`` (0-based) keys its arrays and tape entries. Residual
    sums are formed in the sublayer outputs, which the layer norms overwrite."""
    s1 = _attention_forward(w, i, h, pk, tape)
    s1 += h
    n1 = _layernorm_forward(s1, w.norm1_gain, w.norm1_bias, tape, pk, (i, "n1"))
    s2 = _ffn_forward(w, i, n1, pk, tape)
    s2 += n1
    return _layernorm_forward(s2, w.norm2_gain, w.norm2_bias, tape, pk, (i, "n2"))


def _block_backward(w: Block, g: Block, i: int, tape: dict, dh: np.ndarray, pk: Packing) -> None:
    """Reverse of block ``i``, writing its gradients into ``g`` and the
    gradient that flows on over ``dh``."""
    ds2 = _layernorm_backward(dh, tape[i, "n2"], w.norm2_gain, g.norm2_gain, g.norm2_bias, pk)
    dn1 = np.add(ds2, _ffn_backward(w, g, tape[i, "ffn"], ds2, pk), out=ds2)
    ds1 = _layernorm_backward(dn1, tape[i, "n1"], w.norm1_gain, g.norm1_gain, g.norm1_bias, pk)
    np.add(ds1, _attention_backward(w, g, tape[i, "attn"], ds1, pk), out=ds1)


def _pool_forward(h: np.ndarray, pk: Packing) -> np.ndarray:
    """Mean of each sequence's packed rows, summed in the padded layout."""
    if 0 in pk.counts:
        raise DataError("cannot pool a sequence with zero real tokens")
    rows = pk.zero_topped("rows", h.shape[1], h.dtype)
    rows[1:] = h
    # einsum: the terms and order of .sum(axis=1) for H > 1, in about a quarter of its time
    x = np.einsum("nth->nh", pk.unpack(rows, pk.buf["pool", h.shape[1], h.dtype]))
    x /= pk.counts[:, None]
    return x


def _dense_forward(p: EncoderParams, x: np.ndarray, tape: dict | None) -> np.ndarray:
    u = x @ p.tensors["dense_w"]
    u += p.tensors["dense_b"]
    e = np.maximum(u, 0.0, out=u)
    if tape is not None:
        tape["dense"] = x, e
    return e


def _dense_backward(p: EncoderParams, tape: dict, de: np.ndarray, grads: EncoderParams) -> np.ndarray:
    x, e = tape["dense"]
    du = de * (e > 0)
    _wgrad(x, du, grads.tensors["dense_w"], FRESH)
    np.add.reduce(du, axis=0, out=grads.tensors["dense_b"])
    return du @ p.tensors["dense_w"].T


def head_logits(p: EncoderParams, e: np.ndarray) -> np.ndarray:
    """(M+1)-way classifier logits from intent representations."""
    return e @ p.tensors["head_w"] + p.tensors["head_b"]


def head_backward(p: EncoderParams, e: np.ndarray, dlogits: np.ndarray, grads: EncoderParams) -> np.ndarray:
    _wgrad(e, dlogits, grads.tensors["head_w"], FRESH)
    np.add.reduce(dlogits, axis=0, out=grads.tensors["head_b"])
    return dlogits @ p.tensors["head_w"].T


# ---------------------------------------------------------------------------
# segment runners (optionally taped), on packed rows


def run_to_layer(p: EncoderParams, tokens: np.ndarray, pk: Packing, rl: int, cache: dict | None = None) -> np.ndarray:
    """Embeddings plus blocks 1..rl of the (n, t) ``tokens`` whose real
    positions ``pk`` packs; rl=0 is the embedding stage alone. Returns the
    packed (pk.rows, H) hidden state."""
    if not 0 <= rl <= p.cfg.num_layers:
        raise DataError(f"resume layer {rl} out of range 0..{p.cfg.num_layers}")
    if tokens.shape != pk.shape:
        raise DataError(f"tokens of shape {tokens.shape} do not match their packing's {pk.shape}")
    h = _embed_forward(p, tokens, pk, cache)
    if cache is not None:
        cache["to"] = pk, rl
    for i in range(rl):
        h = _block_forward(p.blocks[i], i, h, pk, cache)
    return h


def backward_to_layer(p: EncoderParams, cache: dict, dh: np.ndarray, grads: EncoderParams) -> None:
    """Reverse of run_to_layer from the zero-topped (rows + 1, H) gradient
    ``dh`` of its output, which it overwrites."""
    pk, stop = cache["to"]
    for i in reversed(range(stop)):
        _block_backward(p.blocks[i], grads.blocks[i], i, cache, dh[1:], pk)
    _embed_backward(p, pk, cache, dh, grads)


def run_from_layer(p: EncoderParams, h: np.ndarray, pk: Packing, start: int, cache: dict | None = None) -> np.ndarray:
    """Blocks start+1..L on the packed rows ``h`` of ``pk``'s real tokens,
    mean pooling per sequence, then the ReLU dense layer."""
    if not 0 <= start <= p.cfg.num_layers:
        raise DataError(f"resume layer {start} out of range 0..{p.cfg.num_layers}")
    if h.shape[0] != pk.rows:
        raise DataError(f"{h.shape[0]} hidden rows do not match their packing's {pk.rows} real tokens")
    if cache is not None:
        cache["from"] = pk, start
    for i in range(start, p.cfg.num_layers):
        h = _block_forward(p.blocks[i], i, h, pk, cache)
    return _dense_forward(p, _pool_forward(h, pk), cache)


def backward_from_layer(p: EncoderParams, cache: dict, de: np.ndarray, grads: EncoderParams) -> np.ndarray:
    """Reverse of run_from_layer; returns the zero-topped (rows + 1, H)
    gradient of its packed input."""
    pk, start = cache["from"]
    dx = _dense_backward(p, cache, de, grads)
    dh = pk.zero_topped("dh", dx.shape[1], dx.dtype)
    # the pool's backward: each row's gradient over its count, to each of its tokens
    dx /= pk.counts[:, None]
    dx.take(pk.seq, axis=0, out=dh[1:], mode="clip")
    for i in reversed(range(start, p.cfg.num_layers)):
        _block_backward(p.blocks[i], grads.blocks[i], i, cache, dh[1:], pk)
    return dh


# ---------------------------------------------------------------------------
# public pass API


def forward(p: EncoderParams, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Full pass: intent representations e and (M+1)-way logits."""
    pk = Packing(batch.lengths, batch.tokens.shape[1], p.flat.dtype)
    e = run_from_layer(p, run_to_layer(p, batch.tokens, pk, 0), pk, 0)
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
        self.tape: dict = {}
        pk = Packing(batch.lengths, batch.tokens.shape[1], p.flat.dtype, ws)
        h = run_to_layer(p, batch.tokens, pk, 0, self.tape)
        self.e = run_from_layer(p, h, pk, 0, self.tape)
        self.logits = head_logits(p, self.e)

    def backward(self, dlogits: np.ndarray) -> EncoderParams:
        grads = self.ws.grads(self.p, self.generation)
        de = head_backward(self.p, self.e, dlogits, grads)
        dh = backward_from_layer(self.p, self.tape, de, grads)
        backward_to_layer(self.p, self.tape, dh, grads)
        return grads


# ---------------------------------------------------------------------------
# checkpoint io


def _require_finite(p: EncoderParams, path: str) -> None:
    """CheckpointError naming the first tensor of ``p`` that holds a NaN or an infinity."""
    finite = np.isfinite(p.flat)
    if not finite.all():
        raise CheckpointError(f"{path}: non-finite values in tensor {p.owner(int(np.argmin(finite)))!r}")


def save_checkpoint(p: EncoderParams, path: str) -> None:
    """JSON header line, then the flat buffer as raw little-endian float32; non-finite values raise."""
    _require_finite(p, path)
    shapes = [list(shape) for _, _, shape in p.layout.values()]
    header = {"names": p.names(), "shapes": shapes, "dtype": "f32", "M": p.M, "config": p.cfg.to_dict()}
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
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header: expected a JSON object")
    for key in ("names", "shapes", "dtype", "M", "config"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")
    if header["dtype"] != "f32":
        raise CheckpointError(f"{path}: unsupported dtype {header['dtype']!r}")
    try:
        cfg = EncoderConfig.from_dict(header["config"])
        layout = _layout(cfg, header["M"])
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    if header["names"] != list(layout) or header["shapes"] != [list(shape) for _, _, shape in layout.values()]:
        M = header["M"]
        raise CheckpointError(f"{path}: header names/shapes do not match config (M={M}, head width {M + 1})")
    payload_bytes = len(blob) - newline - 1
    expected_bytes = next(reversed(layout.values()))[1] * CHECKPOINT_DTYPE.itemsize
    if payload_bytes != expected_bytes:
        raise CheckpointError(f"{path}: payload is {payload_bytes} bytes, expected {expected_bytes}")
    params = EncoderParams(cfg, header["M"], np.frombuffer(blob, CHECKPOINT_DTYPE, offset=newline + 1).copy())
    _require_finite(params, path)
    return params
