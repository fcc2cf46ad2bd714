"""Two-stage training of the (M+1)-way open intent classifier.

Stage one pretrains the encoder and the known part of the head with
cross-entropy over the first M logits; the open column stays out of the
normalizer, so it only moves through weight decay. Stage two restarts
the optimizer and minimizes

    gamma * KL(soft targets || softmax over M+1)
    + (1 - gamma) * open-class cross-entropy on noisy mixed pairs

where the soft targets relocate probability rho from the gold class to
the open class; rho = 0 (one-hot targets) is the SNOiC-SL ablation.
Both stages validate with known-class accuracy and keep the best
parameters under early stopping (a non-improving epoch bumps a counter;
any strict improvement resets it).

Each step records one taped pass, runs its backward and takes one Adam
step. A stage keeps one encoder ``Workspace``, so a step writes its tape
and gradients over the last step's and, once warmed up, allocates only
per-row vectors. Parameters, gradients and the Adam moments share one
flat layout (``EncoderParams.flat``), so the optimizer step is a handful
of whole-buffer operations through preallocated scratch, plus one
weight-decay update per run of adjacent matrices.

All randomness flows from one master seed through fixed purpose streams,
so a rerun of the same configuration reproduces every shuffle, pairing,
and noise draw exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import NoisyMixupPass
from .corpus import EncodedDataset, Vocab, _load_json, make_batches, ordered_batches, pair_batches
from .encoder import EncoderParams, TapedForward, Workspace, forward, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, PairingError, TrainingError
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
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho must be in [0, 1), got {self.rho}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.gamma_mode not in ("fixed", "lambda"):
            raise ConfigError(f"gamma_mode must be 'fixed' or 'lambda', got {self.gamma_mode!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.delta_add < 0 or self.delta_mul < 0:
            raise ConfigError("noise magnitudes must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam state, laid out like ``params.flat``.

    ``m`` and ``v`` are the moments; ``decay`` lists the ranges that hold
    matrices, the only tensors that take weight decay, with adjacent
    matrices merged into one range. ``scratch`` and ``finite`` are written
    through ``out=`` by every step.
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    decay: list[slice]
    scratch: np.ndarray
    finite: np.ndarray

    @classmethod
    def for_params(cls, params: EncoderParams) -> "OptimizerState":
        flat = params.flat
        decay: list[slice] = []
        for start, stop, shape in params.layout.values():
            if len(shape) < 2:
                continue
            if decay and decay[-1].stop == start:
                start = decay.pop().start
            decay.append(slice(start, stop))
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
    parameters are exempt from weight decay. A non-finite gradient raises
    before anything is updated.
    """
    g = grads.flat
    finite = np.isfinite(g, out=state.finite)
    if not finite.all():
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
        for r in state.decay:
            np.subtract(p[r], np.multiply(p[r], lr * weight_decay, out=tmp[r]), out=p[r])


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


def batched_logits(params: EncoderParams, enc: EncodedDataset, batch_size: int = 128) -> np.ndarray:
    """(N, M+1) logits of an untaped pass over the dataset, in its order."""
    return np.concatenate([forward(params, batch)[1] for batch in ordered_batches(enc, batch_size)])


def known_accuracy(params: EncoderParams, enc: EncodedDataset, batch_size: int, known_only: bool) -> float:
    """Fraction of examples whose argmax matches the gold known class.

    known_only restricts the argmax to the first M logits (the stage-one
    view); otherwise all M+1 logits compete and an open prediction counts
    as a miss.
    """
    logits = batched_logits(params, enc, batch_size)
    preds = open_predictions(logits[:, : params.M] if known_only else logits)
    return int((preds == enc.class_ids).sum()) / len(enc)


def _early_stopped_loop(params, cfg: TrainConfig, stage, epoch_fn, val_fn, log: TrainLog) -> EncoderParams:
    best_val = -math.inf
    best = params.copy()
    bad_epochs = 0
    for epoch in range(1, cfg.max_epochs + 1):
        mean_loss = epoch_fn(epoch)
        val = val_fn()
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
    return best


def _check_training_inputs(params: EncoderParams, train_enc: EncodedDataset, val_enc: EncodedDataset) -> None:
    for name, enc in (("training", train_enc), ("validation", val_enc)):
        if len(enc) == 0:
            raise DataError(f"empty {name} set")
        ids = enc.class_ids
        if ids.min() < 1 or ids.max() > params.M:
            raise DataError(f"{name} set contains class ids outside 1..{params.M}")


def pretrain(
    params: EncoderParams,
    train_enc: EncodedDataset,
    val_enc: EncodedDataset,
    cfg: TrainConfig,
    log: TrainLog | None = None,
) -> tuple[EncoderParams, TrainLog]:
    """Stage one: known-class cross-entropy over the first M logits."""
    _check_training_inputs(params, train_enc, val_enc)
    params = params.copy()
    log = TrainLog() if log is None else log
    opt = OptimizerState.for_params(params)
    shuffle_seed = _stream_seed(cfg.seed, _STREAM_PRETRAIN_SHUFFLE)
    ws = Workspace()

    def step(batch, epoch: int) -> float:
        tape = TapedForward(params, batch, ws)
        value, dlogits = pretrain_loss(tape.logits, batch.labels, params.M)
        if not math.isfinite(value):
            raise TrainingError(f"non-finite pretraining loss at epoch {epoch}")
        optimizer_step(params, tape.backward(dlogits), opt, cfg.lr, cfg.weight_decay)
        return value

    def epoch_fn(epoch: int) -> float:
        values = [step(batch, epoch) for batch in make_batches(train_enc, cfg.batch_size, shuffle_seed, epoch)]
        return sum(values) / len(values)

    def val_fn() -> float:
        return known_accuracy(params, val_enc, cfg.batch_size, known_only=True)

    best = _early_stopped_loop(params, cfg, "pretrain", epoch_fn, val_fn, log)
    return best, log


def train_open(
    params: EncoderParams,
    train_enc: EncodedDataset,
    val_enc: EncodedDataset,
    cfg: TrainConfig,
    log: TrainLog | None = None,
) -> tuple[EncoderParams, TrainLog]:
    """Stage two: soft-target KL blended with mixed pseudo open data.

    The optimizer restarts with fresh moments. Each step records one
    NoisyMixupPass over a soft-target batch and a different-intent pair
    batch; the blend weight is cfg.gamma, or the step's own mixing weight
    when gamma_mode is 'lambda'.
    """
    _check_training_inputs(params, train_enc, val_enc)
    if len(np.unique(train_enc.class_ids)) < 2:
        raise PairingError("stage two requires at least 2 distinct known intents")
    params = params.copy()
    log = TrainLog() if log is None else log
    opt = OptimizerState.for_params(params)
    shuffle_seed = _stream_seed(cfg.seed, _STREAM_OPEN_SHUFFLE)
    pair_seed = _stream_seed(cfg.seed, _STREAM_PAIRING)
    mix_rng = np.random.default_rng([cfg.seed, _STREAM_MIXING])
    ws = Workspace()

    def step(batch, pair, epoch: int) -> float:
        mix_pass = NoisyMixupPass(params, batch, pair, cfg, mix_rng, ws)
        targets = soft_targets(batch.labels, params.M, cfg.rho)
        kl_value, dkl = kl_loss(targets, mix_pass.soft_logits)
        open_value, dopen = mixup_loss(mix_pass.logits)
        gamma = cfg.gamma if cfg.gamma_mode == "fixed" else mix_pass.lam
        value = total_loss(kl_value, open_value, gamma)
        if not math.isfinite(value):
            raise TrainingError(f"non-finite open-training loss at epoch {epoch}")
        grads = mix_pass.backward(gamma * dkl, (1.0 - gamma) * dopen)
        optimizer_step(params, grads, opt, cfg.lr, cfg.weight_decay)
        return value

    def epoch_fn(epoch: int) -> float:
        soft = make_batches(train_enc, cfg.batch_size, shuffle_seed, epoch)
        pairs = pair_batches(train_enc, cfg.batch_size, pair_seed, epoch)
        values = [step(batch, pair, epoch) for batch, pair in zip(soft, pairs)]
        return sum(values) / len(values)

    def val_fn() -> float:
        return known_accuracy(params, val_enc, cfg.batch_size, known_only=False)

    best = _early_stopped_loop(params, cfg, "open", epoch_fn, val_fn, log)
    return best, log


def train_two_stage(
    params: EncoderParams,
    train_enc: EncodedDataset,
    val_enc: EncodedDataset,
    cfg: TrainConfig,
) -> tuple[EncoderParams, TrainLog]:
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
    probs = softmax(logits[:, :M])
    top = open_predictions(probs)
    conf = probs.max(axis=1)
    return np.where(conf < threshold, M + 1, top).astype(np.int32)


def predict(params: EncoderParams, enc: EncodedDataset, batch_size: int = 128) -> np.ndarray:
    """open_predictions over the dataset's logits."""
    return open_predictions(batched_logits(params, enc, batch_size))


def threshold_baseline_predict(
    params: EncoderParams, enc: EncodedDataset, threshold: float, batch_size: int = 128
) -> np.ndarray:
    """baseline_predictions over the dataset's logits."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
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
    params = load_checkpoint(os.path.join(dirpath, CHECKPOINT_FILE))
    vocab = Vocab.load(os.path.join(dirpath, VOCAB_FILE))
    meta_path = os.path.join(dirpath, META_FILE)
    meta = {}
    if os.path.exists(meta_path):
        meta = _load_json(meta_path, "meta")
        if not isinstance(meta, dict):
            raise DataError(f"{meta_path}: not a meta file: expected a JSON object")
    return Model(params=params, vocab=vocab), meta
