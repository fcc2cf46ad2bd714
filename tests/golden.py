"""Golden two-stage run: the numbers a refactor must reproduce.

A seeded bench-shape run (split and training seed 0, two epochs per
stage) on the synthetic corpus; the committed fixture
``golden_two_stage.json`` holds its epoch losses and the logits of the
first 8 test rows under the final parameters, run as one batch as wide
as the longest of them. Regenerate it only from a commit whose training
numerics are the reference:

    PYTHONPATH=src python tests/golden.py

``--digest`` prints the run's ``params.flat`` sha256, its epoch losses
and every epoch's logged ``val_known_acc``, and writes nothing; a
refactor that claims bit identity prints the same three lines on both
trees, and a change in how validation is scored shows in the third. The
lines do not depend on the BLAS thread count, which ``TestGoldenRun``
checks at 1, 2 and 4 threads. OpenBLAS caps the count at the usable
CPUs, so on a 2-CPU machine the "4 threads" run runs at 2; ``--digest``
writes the count it ran at to standard error as ``blas_threads N``
(``None`` for a BLAS other than OpenBLAS):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py --digest
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

from snoic.cli import environment
from snoic.corpus import (
    Batch,
    Dataset,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_split,
)
from snoic.encoder import forward, init_params
from snoic.synth import write_corpus
from snoic.trainer import train_two_stage

from conftest import BENCH_R, bench_encoder_config, bench_train_config

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_two_stage.json")
SEED = 0
EPOCHS = 2
ROWS = 8


def train_golden(corpus_sets):
    """(final parameters, training log, encoded test set) of the golden run."""
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
    return params, log, test_enc


def golden_run(corpus_sets) -> dict:
    """{"epoch_losses": [...], "logits": 8 rows of M+1} of the golden run."""
    params, log, test_enc = train_golden(corpus_sets)
    lengths = test_enc.lengths[:ROWS]
    first_rows = Batch(tokens=test_enc.tokens[:ROWS, : lengths.max()], lengths=lengths, class_ids=test_enc.class_ids[:ROWS])
    _, logits = forward(params, first_rows)
    return {
        "epoch_losses": [rec.mean_loss for rec in log.records],
        "logits": logits.astype(float).tolist(),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="rerun the golden two-stage run")
    parser.add_argument(
        "--digest",
        action="store_true",
        help="print the params.flat sha256, epoch losses and validation accuracies; write nothing",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_corpus(tmp, seed=0)
        sets = tuple(load_dataset(paths[role]) for role in ("train", "val", "test"))
        if args.digest:
            params, log, _ = train_golden(sets)
            print(f"params.flat sha256 {hashlib.sha256(params.flat.tobytes()).hexdigest()}")
            print(f"epoch losses {json.dumps([rec.mean_loss for rec in log.records])}")
            print(f"val_known_acc {json.dumps([rec.val_known_acc for rec in log.records])}")
            print(f"blas_threads {environment()['blas_threads']}", file=sys.stderr)
            return
        result = golden_run(sets)
    with open(FIXTURE, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
