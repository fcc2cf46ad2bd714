"""Shared fixtures for the test suite.

The expensive resources (the synthetic corpus and the grid of trained
models behind the benchmark assertions) are built once per session and
shared across test modules.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from snoic.corpus import (
    Dataset,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_split,
)
from snoic.encoder import EncoderConfig, init_params
from snoic.metrics import evaluate
from snoic.synth import write_corpus
from snoic.trainer import TrainConfig, TrainLog, batched_logits, open_predictions, pretrain, train_open

BENCH_SEEDS = (0, 1, 2)
BENCH_R = 0.5

# Variant name -> the stage-two magnitude its ablation sets to 0.
BENCH_VARIANTS = {
    "full": dict(),
    "no_soft_labels": dict(rho=0.0),
    "no_additive_noise": dict(delta_add=0.0),
    "no_multiplicative_noise": dict(delta_mul=0.0),
}


def bench_encoder_config(vocab_size):
    return EncoderConfig(
        vocab_size=vocab_size,
        hidden=32,
        num_layers=2,
        ffn=64,
        dim=32,
        max_len=16,
    )


def bench_train_config(seed, **zeroed):
    return TrainConfig(
        lr=1e-3,
        batch_size=32,
        max_epochs=10,
        patience=10,
        seed=seed,
        **zeroed,
    )


@dataclass
class BenchRun:
    """One trained model plus everything needed to re-score it."""

    variant: str
    seed: int
    m: int
    f1_open: float
    known_acc: float
    report: object
    preds: np.ndarray
    golds: np.ndarray
    closed_preds: np.ndarray
    log: object


@dataclass
class BenchGrid:
    runs: dict = field(default_factory=dict)
    elapsed_sec: float = 0.0

    def of(self, variant):
        return [self.runs[(variant, s)] for s in BENCH_SEEDS]

    def mean_f1_open(self, variant):
        return float(np.mean([r.f1_open for r in self.of(variant)]))

    def mean_known_acc(self, variant):
        return float(np.mean([r.known_acc for r in self.of(variant)]))


@pytest.fixture(scope="session")
def corpus_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    return write_corpus(out, seed=0)


@pytest.fixture(scope="session")
def corpus_sets(corpus_paths):
    return (
        load_dataset(corpus_paths["train"]),
        load_dataset(corpus_paths["val"]),
        load_dataset(corpus_paths["test"]),
    )


def _run_seed(corpus_sets, seed):
    """Every variant at one seed, sharing one pretraining run.

    Pretraining reads none of the zeroed magnitudes, so one stage-one run
    serves all four open stages, as with one `snoic pretrain` followed by
    one `snoic train --ablation ...` per variant.
    """
    ds_train, ds_val, ds_test = corpus_sets
    split = make_split(ds_train, BENCH_R, seed)
    cds_train = apply_split(ds_train, split, "train")
    cds_val = apply_split(ds_val, split, "val")
    cds_test = apply_split(ds_test, split, "test")

    known = set(split.known_classes)
    vocab_ds = Dataset(examples=[ex for ex in ds_train.examples if ex.label in known])
    vocab = build_vocab(vocab_ds, min_freq=2, max_size=5000)

    enc_cfg = bench_encoder_config(len(vocab))
    train_enc = encode_dataset(cds_train, vocab, enc_cfg.max_len)
    val_enc = encode_dataset(cds_val, vocab, enc_cfg.max_len)
    test_enc = encode_dataset(cds_test, vocab, enc_cfg.max_len)

    params = init_params(enc_cfg, split.num_known, seed)
    pretrained, pretrain_log = pretrain(params, train_enc, val_enc, bench_train_config(seed))
    runs = {}
    for variant, zeroed in BENCH_VARIANTS.items():
        cfg = bench_train_config(seed, **zeroed)
        log = TrainLog(records=list(pretrain_log.records))
        trained, log = train_open(pretrained, train_enc, val_enc, cfg, log=log)
        runs[variant] = _score(variant, seed, split, trained, log, test_enc)
    return runs


def _score(variant, seed, split, params, log, test_enc):
    logits = batched_logits(params, test_enc)  # the 128-row windows of snoic eval
    preds = open_predictions(logits)
    golds = test_enc.class_ids
    report = evaluate(preds.tolist(), golds.tolist(), split.num_known + 1)

    known_mask = golds <= split.num_known
    kacc = float(np.mean(preds[known_mask] == golds[known_mask]))

    # Closed-set predictions from the same model: argmax over known logits
    # only, so the rejection column can never fire.
    closed_preds = (np.argmax(logits[:, : split.num_known], axis=1) + 1).astype(np.int32)

    return BenchRun(
        variant=variant,
        seed=seed,
        m=split.num_known,
        f1_open=report.f1_open,
        known_acc=kacc,
        report=report,
        preds=preds,
        golds=golds.copy(),
        closed_preds=closed_preds,
        log=log,
    )


@pytest.fixture(scope="session")
def bench_grid(corpus_sets):
    """Train every variant at every benchmark seed once for the session."""
    grid = BenchGrid()
    start = time.monotonic()
    for seed in BENCH_SEEDS:
        for variant, run in _run_seed(corpus_sets, seed).items():
            grid.runs[(variant, seed)] = run
    grid.elapsed_sec = time.monotonic() - start
    return grid
