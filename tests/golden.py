"""Golden two-stage run: the numbers a refactor must reproduce.

A seeded bench-shape run (split and training seed 0, two epochs per
stage) on the synthetic corpus; the committed fixture
``golden_two_stage.json`` holds its epoch losses and the logits of the
first 8 test rows under the final parameters. Regenerate it only from a
commit whose training numerics are the reference:

    PYTHONPATH=src python tests/golden.py
"""

import dataclasses
import json
import os
import tempfile

from snoic.corpus import (
    Dataset,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_split,
    ordered_batches,
)
from snoic.encoder import forward, init_params
from snoic.synth import write_corpus
from snoic.trainer import train_two_stage

from conftest import BENCH_R, bench_encoder_config, bench_train_config

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_two_stage.json")
SEED = 0
EPOCHS = 2
ROWS = 8


def golden_run(corpus_sets) -> dict:
    """{"epoch_losses": [...], "logits": 8 rows of M+1} of the golden run."""
    ds_train, ds_val, ds_test = corpus_sets
    split = make_split(ds_train, BENCH_R, SEED)
    known = set(split.known_classes)
    known_train = Dataset(examples=[ex for ex in ds_train.examples if ex.label in known])
    vocab = build_vocab(known_train, min_freq=2, max_size=5000)
    enc_cfg = bench_encoder_config(len(vocab))
    cfg = dataclasses.replace(bench_train_config(SEED), max_epochs=EPOCHS)
    train_enc, val_enc, test_enc = (
        encode_dataset(apply_split(ds, split, role), vocab, enc_cfg.max_len)
        for ds, role in ((ds_train, "train"), (ds_val, "val"), (ds_test, "test"))
    )
    params, log = train_two_stage(init_params(enc_cfg, split.num_known, SEED), train_enc, val_enc, cfg)
    _, logits = forward(params, ordered_batches(test_enc, ROWS)[0])
    return {
        "epoch_losses": [rec.mean_loss for rec in log.records],
        "logits": logits.astype(float).tolist(),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_corpus(tmp, seed=0)
        sets = tuple(load_dataset(paths[role]) for role in ("train", "val", "test"))
        result = golden_run(sets)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
