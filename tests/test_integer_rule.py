"""The integer rule (``snoic.errors.integer``) and the number rule
(``snoic.errors.number``) at every entry point they cover.

Each ``ENTRIES`` row takes one integer argument and raises its owner's
error class for a value that is not an integer (a bool is not) or is below
its least value, with the rule's wording; a numpy integer is accepted. The
other integer fields of ``TrainConfig`` are tested the same way in
``tests/test_trainer.py``. Each ``NUMBERS`` row takes one real argument
and raises its owner's error class, under the value's name, for a value
that is not a number (a bool is not) or is not finite (an integer too
large for a float is not); a numpy float is accepted. A walk over
``snoic.__all__`` keeps both tables complete.
"""

import inspect
import json
import math
import re
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest

import snoic
from snoic.corpus import (
    Dataset,
    LabeledExample,
    SplitSpec,
    apply_split,
    build_vocab,
    encode_dataset,
    make_batches,
    make_split,
    pair_batches,
    subsample_labeled,
)
from snoic.encoder import EncoderConfig, EncoderParams, init_params, load_checkpoint, param_spec, save_checkpoint
from snoic.errors import ConfigError, DataError
from snoic.synth import write_corpus
from snoic.trainer import TrainConfig, batched_logits, predict, threshold_baseline_predict


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    ds = Dataset(examples=[LabeledExample(f"w{c} v{i} u{c}{i}", f"c{c}") for c in range(3) for i in range(4)])
    cds = apply_split(ds, make_split(ds, 0.9, 0), "train")
    vocab = build_vocab(ds)
    cfg = EncoderConfig(vocab_size=len(vocab), hidden=8, num_layers=1, ffn=8, dim=8, max_len=6)
    return SimpleNamespace(
        ds=ds,
        cds=cds,
        vocab=vocab,
        cfg=cfg,
        enc=encode_dataset(cds, vocab, 6),
        p=init_params(cfg, 2, 0),
        out=str(tmp_path_factory.mktemp("corpus")),
    )


def _corpus(c, **values):
    counts = {"train_per_class": 1, "val_per_class": 1, "test_per_class": 1, **values}
    return write_corpus(c.out, **counts)


# entry -> (call of one value, a valid value, least value, error class)
ENTRIES = {
    "EncoderConfig.vocab_size": (lambda c, v: EncoderConfig(vocab_size=v), 20, 3, DataError),
    "EncoderConfig.hidden": (lambda c, v: EncoderConfig(vocab_size=20, hidden=v), 8, 1, DataError),
    "EncoderConfig.max_len": (lambda c, v: EncoderConfig(vocab_size=20, max_len=v), 8, 2, DataError),
    "param_spec.M": (lambda c, v: param_spec(c.cfg, v), 2, 1, DataError),
    "init_params.M": (lambda c, v: init_params(c.cfg, v, 0), 2, 1, DataError),
    "EncoderParams.M": (lambda c, v: EncoderParams(c.cfg, v, c.p.flat), 2, 1, DataError),
    "init_params.seed": (lambda c, v: init_params(c.cfg, 2, v), 3, 0, DataError),
    "SplitSpec.seed": (lambda c, v: SplitSpec(seed=v, r=0.5, known_classes=["a"], open_classes=["b"]), 1, 0, DataError),
    "build_vocab.min_freq": (lambda c, v: build_vocab(c.ds, min_freq=v), 1, 1, DataError),
    "build_vocab.max_size": (lambda c, v: build_vocab(c.ds, max_size=v), 10, 3, DataError),
    "encode_dataset.max_len": (lambda c, v: encode_dataset(c.cds, c.vocab, v), 6, 2, DataError),
    "make_batches.batch_size": (lambda c, v: make_batches(c.enc, v, 0), 3, 1, DataError),
    "pair_batches.batch_size": (lambda c, v: pair_batches(c.enc, v, 0), 3, 1, DataError),
    "batched_logits.batch_size": (lambda c, v: batched_logits(c.p, c.enc, v), 3, 1, DataError),
    "predict.batch_size": (lambda c, v: predict(c.p, c.enc, v), 3, 1, DataError),
    "threshold_baseline_predict.batch_size": (
        lambda c, v: threshold_baseline_predict(c.p, c.enc, 0.5, v), 3, 1, DataError
    ),
    "write_corpus.seed": (lambda c, v: _corpus(c, seed=v), 0, 0, ConfigError),
    "write_corpus.train_per_class": (lambda c, v: _corpus(c, train_per_class=v), 1, 1, ConfigError),
    "write_corpus.val_per_class": (lambda c, v: _corpus(c, val_per_class=v), 1, 1, ConfigError),
    "write_corpus.test_per_class": (lambda c, v: _corpus(c, test_per_class=v), 1, 1, ConfigError),
    "TrainConfig.seed": (lambda c, v: TrainConfig(seed=v), 0, 0, ConfigError),
    "make_split.seed": (lambda c, v: make_split(c.ds, 0.5, v), 0, 0, DataError),
    "make_batches.seed": (lambda c, v: make_batches(c.enc, 2, v), 0, 0, DataError),
    "make_batches.epoch": (lambda c, v: make_batches(c.enc, 2, 0, v), 0, 0, DataError),
    "pair_batches.seed": (lambda c, v: pair_batches(c.enc, 2, v), 0, 0, DataError),
    "pair_batches.epoch": (lambda c, v: pair_batches(c.enc, 2, 0, v), 0, 0, DataError),
    "subsample_labeled.seed": (lambda c, v: subsample_labeled(c.ds, 0.5, v), 0, 0, DataError),
}

# entry -> (call of one value, a valid value, the name the owner reports, error class)
NUMBERS = {
    **{
        f"TrainConfig.{name}": (lambda c, v, name=name: TrainConfig(**{name: v}), 0.5, name, ConfigError)
        for name in ("lr", "weight_decay", "rho", "alpha", "gamma", "delta_add", "delta_mul")
    },
    "SplitSpec.r": (lambda c, v: SplitSpec(seed=0, r=v, known_classes=["a"], open_classes=["b"]), 0.5, "r", DataError),
    "make_split.r": (lambda c, v: make_split(c.ds, v, 0), 0.5, "r", DataError),
    "subsample_labeled.ratio": (lambda c, v: subsample_labeled(c.ds, v, 0), 0.5, "labeled_data_ratio", DataError),
    "threshold_baseline_predict.threshold": (
        lambda c, v: threshold_baseline_predict(c.p, c.enc, v), 0.5, "threshold", ConfigError
    ),
}


@pytest.mark.parametrize("value", [True, 2.5, "8", None])
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_integers_raise_the_owners_error(ctx, entry, value):
    call, _, _, error = ENTRIES[entry]
    with pytest.raises(error, match=rf"must be an integer, got {re.escape(repr(value))}$") as info:
        call(ctx, value)
    assert type(info.value) is error


@pytest.mark.parametrize("entry", ENTRIES)
def test_values_below_the_least_raise_the_owners_error(ctx, entry):
    call, _, low, error = ENTRIES[entry]
    with pytest.raises(error, match=rf"must be >= {low}, got {low - 1}$"):
        call(ctx, low - 1)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integers_are_accepted(ctx, entry):
    call, valid, _, _ = ENTRIES[entry]
    call(ctx, np.int64(valid))


# each of the three below raised "Object of type int64 is not JSON serializable"


def test_a_train_config_stores_numpy_integers_as_ints():
    cfg = TrainConfig(batch_size=np.int64(8), seed=np.int64(2))
    assert json.loads(json.dumps(asdict(cfg)))["batch_size"] == 8
    assert type(cfg.batch_size) is int and type(cfg.seed) is int


def test_a_split_stores_a_numpy_seed_as_an_int():
    spec = SplitSpec(seed=np.int64(1), r=0.5, known_classes=["a"], open_classes=["b"])
    assert spec.to_json() == '{"seed": 1, "r": 0.5, "known": ["a"], "open": ["b"]}'
    assert type(spec.seed) is int


def test_a_checkpoint_of_numpy_integer_sizes_round_trips(tmp_path):
    enc_cfg = EncoderConfig(vocab_size=np.int64(10), hidden=np.int64(8), num_layers=1, ffn=8, dim=8, max_len=6)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(init_params(enc_cfg, np.int64(2), 0), path)
    loaded = load_checkpoint(path)
    assert loaded.cfg == enc_cfg and loaded.M == 2
    assert all(type(getattr(enc_cfg, f.name)) is int for f in fields(enc_cfg))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda c: build_vocab(c.ds, max_size=10.5), DataError),  # a raw TypeError before
        (lambda c: build_vocab(c.ds, min_freq=True), DataError),  # accepted before
        (lambda c: make_batches(c.enc, True, 0), DataError),  # ran at batch size 1
        (lambda c: predict(c.p, c.enc, True), DataError),  # ran at batch size 1
        (lambda c: write_corpus(c.out, seed=True), ConfigError),  # accepted before
        (lambda c: write_corpus(c.out, train_per_class=True), ConfigError),  # accepted before
        (lambda c: init_params(c.cfg, 2, seed=-1), DataError),  # a raw ValueError before
    ],
    ids=[
        "build_vocab-max_size-float",
        "build_vocab-min_freq-bool",
        "make_batches-bool",
        "predict-bool",
        "write_corpus-seed-bool",
        "write_corpus-train_per_class-bool",
        "init_params-negative-seed",
    ],
)
def test_faults_the_rule_closes(ctx, call, error):
    with pytest.raises(error):
        call(ctx)


def test_a_memoized_pass_does_not_take_a_bool_batch_size(ctx):
    """batched_logits checks batch_size before its memo, where True == 1."""
    batched_logits(ctx.p, ctx.enc, 1)
    with pytest.raises(DataError, match="^batch_size must be an integer, got True$"):
        batched_logits(ctx.p, ctx.enc, True)


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize("entry", NUMBERS)
def test_non_numbers_raise_the_owners_error(ctx, entry, value):
    call, _, name, error = NUMBERS[entry]
    with pytest.raises(error, match=rf"^{name} must be a number, got {re.escape(repr(value))}$") as info:
        call(ctx, value)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "value, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf")], ids=str
)
@pytest.mark.parametrize("entry", NUMBERS)
def test_non_finite_numbers_raise_the_owners_error(ctx, entry, value, shown):
    """10**400 raised a raw OverflowError in TrainConfig before."""
    call, _, name, error = NUMBERS[entry]
    with pytest.raises(error, match=rf"^{name} must be finite, got {shown}$") as info:
        call(ctx, value)
    assert type(info.value) is error


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("entry", NUMBERS)
def test_numpy_floats_are_accepted(ctx, entry, dtype):
    call, valid, _, _ = NUMBERS[entry]
    call(ctx, dtype(valid))


def test_numbers_are_stored_as_python_floats():
    spec = SplitSpec(seed=0, r=np.float32(0.5), known_classes=["a"], open_classes=["b"])
    assert type(spec.r) is float and spec.to_json() == '{"seed": 0, "r": 0.5, "known": ["a"], "open": ["b"]}'


def _public_parameters(names):
    """Each ``<name>.<parameter>`` of a public callable whose parameter is in ``names``."""
    for public in snoic.__all__:
        obj = getattr(snoic, public)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        yield from (f"{public}.{p}" for p in inspect.signature(obj).parameters if p in names)


def test_every_seed_and_epoch_of_the_public_api_has_a_row():
    """A new seeded entry point cannot skip the integer rule silently."""
    seeded = set(_public_parameters({"seed", "epoch"}))
    assert {"make_batches.epoch", "TrainConfig.seed", "init_params.seed"} <= seeded
    assert seeded - set(ENTRIES) == set()


def test_every_float_field_of_the_train_config_has_a_row():
    params = inspect.signature(snoic.TrainConfig).parameters
    floats = {f"TrainConfig.{name}" for name, p in params.items() if p.annotation in (float, "float")}
    assert len(floats) == 7
    assert floats - set(NUMBERS) == set()
