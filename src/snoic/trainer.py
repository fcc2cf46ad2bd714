"""Two-stage training of the (M+1)-way open intent classifier.

Stage one pretrains the encoder and the known part of the head with
cross-entropy over the first M logits; the open column stays out of the
normalizer, so it only moves through weight decay. Stage two restarts
the optimizer and minimizes

    gamma * KL(soft targets || softmax over M+1)
    + (1 - gamma) * open-class cross-entropy on noisy mixed pairs

where the soft targets relocate probability rho from the gold class to
the open class; rho = 0 (one-hot targets) is the SNOiC-SL ablation.
One loop runs both stages: it validates with known-class accuracy and
keeps the best parameters under early stopping (a non-improving epoch
bumps a counter; any strict improvement resets it).

Each step records one taped pass, runs its backward and takes one Adam
step. A stage keeps one encoder ``Workspace``, so a step writes its tape
and gradients over the last step's and, once warmed up, allocates only
per-row vectors. Parameters, gradients and the Adam moments share one
flat layout (``EncoderParams.flat``), so the optimizer step is a handful
of whole-buffer operations through preallocated scratch, weight decay
included: one multiply by a cached per-parameter rate vector.

All randomness flows from one master seed through fixed purpose streams,
so a rerun of the same configuration reproduces every shuffle, pairing,
and noise draw exactly.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import NoisyMixupPass
from .corpus import Batch, Vocab, _check_batching, _load_json, _slice_batches, make_batches, pair_batches
from .encoder import EncoderParams, TapedForward, Workspace, forward, load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, DataError, PairingError, TrainingError, integer, number
from .losses import kl_loss, mixup_loss, pretrain_loss, soft_targets, softmax, total_loss

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# purpose streams carved out of the master seed
_STREAM_PRETRAIN_SHUFFLE = 1
_STREAM_OPEN_SHUFFLE = 2
_STREAM_PAIRING = 3
_STREAM_MIXING = 4

CHECKPOINT_FILE = "model.ckpt"
VOCAB_FILE = "vocab.json"
META_FILE = "meta.json"
LOG_FILE = "train_log.jsonl"

# rows per forward of an untaped pass over a dataset: validation, predict and snoic eval
WINDOW = 128


def _stream_seed(seed: int, stream: int) -> int:
    """Stable derived seed for one purpose stream of the master seed."""
    return int(np.random.default_rng([seed, stream]).integers(0, 2**63))


@dataclass
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    max_epochs: int = 60
    patience: int = 10
    rho: float = 0.3
    alpha: float = 2.0
    gamma_mode: str = "fixed"
    gamma: float = 0.5
    delta_add: float = 0.4
    delta_mul: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if isinstance(f.default, float):  # stored as a Python float
                setattr(self, f.name, number(f.name, getattr(self, f.name), ConfigError))
        for name in ("lr", "weight_decay", "delta_add", "delta_mul"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 1), ("seed", 0)):
            setattr(self, name, integer(name, getattr(self, name), low, ConfigError))
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.gamma_mode not in ("fixed", "lambda"):
            raise ConfigError(f"gamma_mode must be 'fixed' or 'lambda', got {self.gamma_mode!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state, laid out like ``params.flat``.

    ``m`` and ``v`` are the moments. ``decay`` is 1 on the entries of
    matrices, the only tensors that take weight decay, and 0 elsewhere;
    ``rates`` is (lr * weight_decay, ``decay`` times it) of the last step
    that decayed. ``scratch`` and ``finite`` are written through ``out=``
    by every step.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    decay: np.ndarray
    scratch: np.ndarray
    finite: np.ndarray
    rates: tuple = (None, None)

    @classmethod
    def for_params(cls, params: EncoderParams) -> "OptimizerState":
        flat = params.flat
        layout = params.layout.values()
        decay = np.concatenate([np.full(stop - start, len(shape) >= 2, flat.dtype) for start, stop, shape in layout])
        return cls(
            step=0,
            m=np.zeros_like(flat),
            v=np.zeros_like(flat),
            decay=decay,
            scratch=np.empty((2,) + flat.shape, flat.dtype),
            finite=np.empty(flat.shape, dtype=bool),
        )


def optimizer_step(
    params: EncoderParams,
    grads: EncoderParams,
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> None:
    """One bias-corrected Adam step with decoupled decay on matrices.

    ``grads`` has the layout of ``params``. Every parameter advances its
    moments each step, even on a zero gradient. Biases and normalization
    parameters are exempt from weight decay (p - p * 0, which is p for
    finite p). A non-finite gradient raises before anything is updated.
    """
    g = grads.flat
    finite = np.isfinite(g, out=state.finite)
    if not np.logical_and.reduce(finite):
        raise TrainingError(f"non-finite gradient in tensor {params.owner(int(np.argmin(finite)))!r}")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    p, m, v = params.flat, state.m, state.v
    update, tmp = state.scratch
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), then p -= lr * wd * p on
    # matrices: the per-tensor arithmetic, in its order, over one buffer
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=tmp)
    v *= BETA2
    v += np.multiply(np.multiply(g, 1.0 - BETA2, out=tmp), g, out=tmp)
    denom = np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
    denom += ADAM_EPS
    np.divide(m, c1, out=update)
    update *= lr
    update /= denom
    p -= update
    if weight_decay:
        if state.rates[0] != lr * weight_decay:
            state.rates = (lr * weight_decay, state.decay * (lr * weight_decay))
        p -= np.multiply(p, state.rates[1], out=tmp)


@dataclass
class EpochRecord:
    epoch: int
    stage: str
    mean_loss: float
    val_known_acc: float
    best: bool


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def add(self, epoch: int, stage: str, mean_loss: float, val_known_acc: float, best: bool) -> None:
        self.records.append(EpochRecord(epoch, stage, float(mean_loss), float(val_known_acc), best))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.records:
                f.write(json.dumps(asdict(rec), sort_keys=True))
                f.write("\n")

    def __len__(self) -> int:
        return len(self.records)


# The last pass of batched_logits: (logits, weakrefs to params and enc,
# batch_size, copies of params.flat, enc.tokens and enc.lengths as that pass
# read them). It is stored into this list, so the module attribute itself is
# never rebound.
_last_pass: list = [None]


def _same_array(now: np.ndarray, then: np.ndarray) -> bool:
    return now.dtype == then.dtype and np.array_equal(now, then)


def batched_logits(params: EncoderParams, enc: Batch, batch_size: int = WINDOW) -> np.ndarray:
    """(N, M+1) logits of an untaped pass over the dataset, in its order.

    The rows are read ``batch_size`` at a time in dataset order, and each
    such window runs as one forward, as wide as its longest row. Only the
    attention core sees the padding; the token-wise layers run on real
    tokens. A row's logits depend only on the rows of its window, so
    predicting a dataset whole or in ``batch_size``-aligned slices gives
    the same numbers.

    The last pass is memoized. A call on the very same ``params`` and
    ``enc`` objects with the same ``batch_size``, whose ``params.flat``,
    ``enc.tokens`` and ``enc.lengths`` still equal (dtype and shape
    included) what that pass read, returns its logits without running the
    encoder; any other call runs the pass and replaces the memo. The memo
    holds weak references to the two objects and copies of those three
    arrays, so it keeps neither object alive, and every result is a fresh
    copy the caller may write into. The memo is one tuple, stored in one
    step: concurrent callers may miss, never mix two passes.
    """
    _check_batching(enc, batch_size)  # before the memo, where True == 1 would pass
    inputs = (params.flat, enc.tokens, enc.lengths)
    memo = _last_pass[0]
    if (
        memo is not None
        and memo[1]() is params
        and memo[2]() is enc
        and memo[3] == batch_size
        and all(map(_same_array, inputs, memo[4:]))
    ):
        return memo[0].copy()
    read = tuple(a.copy() for a in inputs)
    logits = np.empty((len(enc), params.M + 1), params.flat.dtype)
    windows = _slice_batches(enc, np.arange(len(enc)), batch_size)
    for start, batch in zip(range(0, len(enc), batch_size), windows):
        logits[start : start + batch_size] = forward(params, batch)[1]
    _last_pass[0] = (logits, weakref.ref(params), weakref.ref(enc), batch_size, *read)
    return logits.copy()


def known_accuracy(params: EncoderParams, enc: Batch, batch_size: int = WINDOW, known_only: bool = False) -> float:
    """Fraction of examples whose argmax matches the gold known class, over
    the :func:`batched_logits` of ``batch_size``-row windows.

    known_only restricts the argmax to the first M logits (the stage-one
    view); otherwise all M+1 logits compete and an open prediction counts
    as a miss.
    """
    logits = batched_logits(params, enc, batch_size)
    preds = open_predictions(logits[:, : params.M] if known_only else logits)
    return int((preds == enc.class_ids).sum()) / len(enc)


def _train_stage(stage: str, params, train_enc, val_enc, cfg: TrainConfig, log, epoch_batches, step):
    """The schedule both stages share, on a copy of ``params``: each batch of
    ``epoch_batches(epoch)`` takes one Adam step on the loss and gradients
    that ``step(params, batch, ws, epoch)`` returns. Validation reads the
    rows in the ``WINDOW``-row windows of ``snoic eval``, whatever
    ``cfg.batch_size`` is."""
    for name, enc in (("training", train_enc), ("validation", val_enc)):
        if len(enc) == 0:
            raise DataError(f"empty {name} set")
        ids = enc.class_ids
        if ids.min() < 1 or ids.max() > params.M:
            raise DataError(f"{name} set contains class ids outside 1..{params.M}")
    if stage == "open" and len(np.unique(train_enc.class_ids)) < 2:
        raise PairingError("stage two requires at least 2 distinct known intents")
    params = params.copy()
    log = TrainLog() if log is None else log
    opt = OptimizerState.for_params(params)
    ws = Workspace()
    best_val = -math.inf
    best = params.copy()
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        values = []
        for batch in epoch_batches(epoch):
            value, grads = step(params, batch, ws, epoch)
            optimizer_step(params, grads, opt, cfg.lr, cfg.weight_decay)
            values.append(value)
        mean_loss = sum(values) / len(values)
        val = known_accuracy(params, val_enc, known_only=stage == "pretrain")
        improved = val > best_val
        if improved:
            best_val = val
            best = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
        log.add(epoch, stage, mean_loss, val, improved)
        if bad_epochs >= cfg.patience:
            break
    return best, log


def pretrain(
    params: EncoderParams,
    train_enc: Batch,
    val_enc: Batch,
    cfg: TrainConfig,
    log: TrainLog | None = None,
) -> tuple[EncoderParams, TrainLog]:
    """Stage one: known-class cross-entropy over the first M logits."""
    shuffle_seed = _stream_seed(cfg.seed, _STREAM_PRETRAIN_SHUFFLE)

    def epoch_batches(epoch: int):
        return make_batches(train_enc, cfg.batch_size, shuffle_seed, epoch)

    def step(params, batch, ws, epoch: int):
        tape = TapedForward(params, batch, ws)
        value, dlogits = pretrain_loss(tape.logits, batch.class_ids, params.M)
        if not math.isfinite(value):
            raise TrainingError(f"non-finite pretraining loss at epoch {epoch}")
        return value, tape.backward(dlogits)

    return _train_stage("pretrain", params, train_enc, val_enc, cfg, log, epoch_batches, step)


def train_open(
    params: EncoderParams,
    train_enc: Batch,
    val_enc: Batch,
    cfg: TrainConfig,
    log: TrainLog | None = None,
) -> tuple[EncoderParams, TrainLog]:
    """Stage two: soft-target KL blended with mixed pseudo open data.

    The optimizer restarts with fresh moments. Each step records one
    NoisyMixupPass over a soft-target batch and a different-intent pair
    batch; the blend weight is cfg.gamma, or the step's own mixing weight
    when gamma_mode is 'lambda'.
    """
    shuffle_seed = _stream_seed(cfg.seed, _STREAM_OPEN_SHUFFLE)
    pair_seed = _stream_seed(cfg.seed, _STREAM_PAIRING)
    mix_rng = np.random.default_rng([cfg.seed, _STREAM_MIXING])

    def epoch_batches(epoch: int):
        soft = make_batches(train_enc, cfg.batch_size, shuffle_seed, epoch)
        pairs = pair_batches(train_enc, cfg.batch_size, pair_seed, epoch)
        return zip(soft, pairs)

    def step(params, batches, ws, epoch: int):
        batch, pair = batches
        mix_pass = NoisyMixupPass(params, batch, pair, cfg, mix_rng, ws)
        targets = soft_targets(batch.class_ids, params.M, cfg.rho)
        kl_value, dkl = kl_loss(targets, mix_pass.soft_logits)
        open_value, dopen = mixup_loss(mix_pass.logits)
        gamma = cfg.gamma if cfg.gamma_mode == "fixed" else mix_pass.lam
        value = total_loss(kl_value, open_value, gamma)
        if not math.isfinite(value):
            raise TrainingError(f"non-finite open-training loss at epoch {epoch}")
        return value, mix_pass.backward(gamma * dkl, (1.0 - gamma) * dopen)

    return _train_stage("open", params, train_enc, val_enc, cfg, log, epoch_batches, step)


def train_two_stage(
    params: EncoderParams,
    train_enc: Batch,
    val_enc: Batch,
    cfg: TrainConfig,
) -> tuple[EncoderParams, TrainLog]:
    """:func:`pretrain`, then :func:`train_open` from its best parameters, with one log. Public:
    it is the one-call entry point that the README's library example and perfbench's docs use."""
    best1, log = pretrain(params, train_enc, val_enc, cfg)
    best2, log = train_open(best1, train_enc, val_enc, cfg, log=log)
    return best2, log


def open_predictions(logits: np.ndarray) -> np.ndarray:
    """Argmax class ids over all M+1 logits; ties go to the smaller id."""
    return (np.argmax(logits, axis=1) + 1).astype(np.int32)


def baseline_predictions(logits: np.ndarray, M: int, threshold: float) -> np.ndarray:
    """Known-class softmax with a confidence floor for rejecting to open.

    Rows whose maximum known-class probability falls below the threshold
    are assigned the open id M+1.
    """
    threshold = number("threshold", threshold, ConfigError)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    probs = softmax(logits[:, :M])
    top = np.argmax(probs, axis=1)
    conf = probs[np.arange(len(probs)), top]
    return np.where(conf < threshold, M + 1, top + 1).astype(np.int32)


def predict(params: EncoderParams, enc: Batch, batch_size: int = WINDOW) -> np.ndarray:
    """open_predictions over the dataset's :func:`batched_logits`, one
    encoder forward per ``batch_size`` window; equal, element for element,
    to predicting each ``batch_size``-aligned slice on its own. Right after
    a call on the same unchanged objects (say
    :func:`threshold_baseline_predict`), the logits come from that call's
    memoized pass, and the encoder does not run again."""
    return open_predictions(batched_logits(params, enc, batch_size))


def threshold_baseline_predict(
    params: EncoderParams, enc: Batch, threshold: float, batch_size: int = WINDOW
) -> np.ndarray:
    """baseline_predictions over the dataset's :func:`batched_logits`, one
    encoder forward per ``batch_size`` window.

    Called after :func:`predict` on the same unchanged ``params``, ``enc``
    and ``batch_size``, it reuses that call's memoized pass, so a request
    that wants both sets of ids runs the encoder once.
    """
    baseline_predictions(np.zeros((0, 2)), 1, threshold)  # the threshold's check, before the encoder runs
    return baseline_predictions(batched_logits(params, enc, batch_size), params.M, threshold)


@dataclass
class Model:
    """Trained parameters together with the vocabulary they assume."""

    params: EncoderParams
    vocab: Vocab


def save_model(model: Model, dirpath: str, meta: dict | None = None, log: TrainLog | None = None) -> None:
    os.makedirs(dirpath, exist_ok=True)
    save_checkpoint(model.params, os.path.join(dirpath, CHECKPOINT_FILE))
    model.vocab.save(os.path.join(dirpath, VOCAB_FILE))
    with open(os.path.join(dirpath, META_FILE), "w", encoding="utf-8") as f:
        json.dump(meta or {}, f, sort_keys=True)
        f.write("\n")
    if log is not None:
        log.save(os.path.join(dirpath, LOG_FILE))


def load_model(dirpath: str) -> tuple[Model, dict]:
    """The model and meta document of a model directory; a vocabulary that
    does not match the checkpoint's embedding table raises CheckpointError."""
    params = load_checkpoint(os.path.join(dirpath, CHECKPOINT_FILE))
    vocab = Vocab.load(os.path.join(dirpath, VOCAB_FILE))
    if params.cfg.vocab_size != len(vocab):
        raise CheckpointError(
            f"{dirpath}: model expects vocabulary of {params.cfg.vocab_size} ids, stored vocabulary has {len(vocab)}"
        )
    meta_path = os.path.join(dirpath, META_FILE)
    meta = {}
    if os.path.exists(meta_path):
        meta = _load_json(meta_path, "meta")
        if not isinstance(meta, dict):
            raise DataError(f"{meta_path}: not a meta file: expected a JSON object")
    return Model(params=params, vocab=vocab), meta
