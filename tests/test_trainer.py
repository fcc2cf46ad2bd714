"""Optimizer arithmetic, early stopping, two-stage training, prediction."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

import golden
from gradcheck import attention_on, seed_for_layer

from snoic.augment import NoisyMixupPass
from snoic.corpus import (
    Batch,
    ClassDataset,
    Dataset,
    LabeledExample,
    PairedBatch,
    Vocab,
    build_vocab,
    _slice_batches,
    encode_dataset,
)
from snoic.encoder import EncoderConfig, EncoderParams, TapedForward, Workspace, forward, init_params, param_spec
from snoic.errors import ConfigError, DataError, PairingError, SnoicError, TrainingError
from snoic.losses import kl_loss, mixup_loss, pretrain_loss, soft_targets, softmax
from snoic.trainer import (
    ADAM_EPS,
    BETA1,
    BETA2,
    Model,
    OptimizerState,
    TrainConfig,
    TrainLog,
    _stream_seed,
    baseline_predictions,
    batched_logits,
    known_accuracy,
    load_model,
    open_predictions,
    optimizer_step,
    predict,
    pretrain,
    save_model,
    threshold_baseline_predict,
    train_open,
    train_two_stage,
)


def separable_sets(max_len=6):
    """Three known intents over disjoint word pools; trivially learnable.

    Three classes keep every shuffled batch pairable; with two, a batch
    dominated by one intent on both sides has no valid derangement.
    """
    pools = {
        1: ["alpha", "amber", "acorn"],
        2: ["bravo", "bison", "badge"],
        3: ["cedar", "coral", "cargo"],
    }
    rng = np.random.default_rng(0)

    def sentences(n, cid):
        words = pools[cid]
        out = []
        for _ in range(n):
            picks = rng.choice(words, size=3, replace=True)
            out.append(" ".join(picks))
        return out

    train_texts, train_ids, val_texts, val_ids = [], [], [], []
    for cid in (1, 2, 3):
        train_texts += sentences(12, cid)
        train_ids += [cid] * 12
        val_texts += sentences(6, cid)
        val_ids += [cid] * 6
    vocab = build_vocab(
        Dataset(examples=[LabeledExample(t, str(c)) for t, c in zip(train_texts, train_ids)])
    )
    train_enc = encode_dataset(
        ClassDataset(texts=train_texts, class_ids=train_ids, num_known=3), vocab, max_len
    )
    val_enc = encode_dataset(
        ClassDataset(texts=val_texts, class_ids=val_ids, num_known=3), vocab, max_len
    )
    return vocab, train_enc, val_enc


def separable_encoder(vocab):
    return EncoderConfig(
        vocab_size=len(vocab), hidden=16, num_layers=1, ffn=32, dim=16, max_len=6
    )


def bias_only_model(head_bias, m=2):
    """All-zero model whose logits are the head bias, row for row."""
    cfg = EncoderConfig(vocab_size=5, hidden=4, num_layers=1, ffn=4, dim=4, max_len=4)
    p = init_params(cfg, m, seed=0)
    for name in p.names():
        p.tensors[name][:] = 0.0
    p.tensors["head_b"][:] = head_bias
    return p


def cls_only_dataset(class_ids, max_len=4):
    n = len(class_ids)
    tokens = np.zeros((n, max_len), dtype=np.int32)
    tokens[:, 0] = 2
    return Batch(
        tokens=tokens,
        lengths=np.ones(n, dtype=np.int32),
        class_ids=np.asarray(class_ids, dtype=np.int32),
    )


class TestTrainConfig:
    def test_zero_lr_is_allowed(self):
        assert TrainConfig(lr=0.0).lr == 0.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=-1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(rho=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(gamma=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(gamma_mode="adaptive")
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(seed=-1)
        with pytest.raises(ConfigError):
            TrainConfig(delta_add=-0.1)

    @pytest.mark.parametrize("name", ["lr", "weight_decay", "rho", "alpha", "gamma", "delta_add", "delta_mul"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lr", "weight_decay", "rho", "alpha", "gamma", "delta_add", "delta_mul"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None])
    def test_float_fields_reject_other_types(self, name, value):
        """gamma=False once dropped the KL term, delta_add=True trained with
        noise 1.0 and lr=True at lr 1; a string raised a raw TypeError."""
        with pytest.raises(ConfigError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
            TrainConfig(**{name: value})

    def test_float_fields_are_stored_as_python_floats(self):
        cfg = TrainConfig(lr=1, gamma=np.float32(0.5), rho=np.float64(0.25), delta_mul=0)
        floats = [f.name for f in fields(TrainConfig) if isinstance(f.default, float)]
        assert all(type(getattr(cfg, name)) is float for name in floats)
        assert (cfg.lr, cfg.gamma, cfg.rho, cfg.delta_mul) == (1.0, 0.5, 0.25, 0.0)

    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience", "seed"])
    @pytest.mark.parametrize("value", [32.5, 2.5, 1.5, 4.0, True, False, "8", None])
    def test_integer_fields_reject_other_types(self, name, value):
        """A fractional batch size or epoch count used to fail mid-pretrain
        with a raw TypeError, and batch_size=True trained at batch size 1."""
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})

    def test_integer_fields_accept_numpy_integers(self):
        cfg = TrainConfig(batch_size=np.int64(8), max_epochs=np.int32(2), patience=np.uint8(1), seed=np.int16(0))
        assert (cfg.batch_size, cfg.max_epochs, cfg.patience, cfg.seed) == (8, 2, 1, 0)

    def test_integer_fields_keep_their_bounds(self):
        with pytest.raises(ConfigError, match="^batch_size must be >= 1, got 0$"):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)


class TestStreamSeeds:
    def test_deterministic(self):
        assert _stream_seed(7, 1) == _stream_seed(7, 1)

    def test_streams_differ(self):
        seeds = {_stream_seed(7, s) for s in range(1, 5)}
        assert len(seeds) == 4

    def test_master_seeds_differ(self):
        assert _stream_seed(1, 1) != _stream_seed(2, 1)


BENCH_SHAPE = dict(hidden=32, num_layers=2, ffn=64, dim=32, max_len=16)
DEFAULT_SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)


def grads_of(p, **values):
    """Gradients laid out like ``p``: the given tensors, zero elsewhere."""
    grads = p.with_flat(np.zeros_like(p.flat))
    for name, value in values.items():
        grads.tensors[name][...] = value
    return grads


def reference_adam_step(params, grads, m, v, step, lr, weight_decay):
    """The per-tensor Adam loop the flat-buffer step replaced; m and v are
    dicts of per-tensor moments. Returns the new step count."""
    step += 1
    c1 = 1.0 - BETA1**step
    c2 = 1.0 - BETA2**step
    for name in params.names():
        p = params.tensors[name]
        g = grads.get(name)
        g = np.zeros_like(p) if g is None else g.astype(p.dtype, copy=False)
        m[name] *= BETA1
        m[name] += (1.0 - BETA1) * g
        v[name] *= BETA2
        v[name] += (1.0 - BETA2) * g * g
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + ADAM_EPS)
        if weight_decay and p.ndim >= 2:
            p -= lr * weight_decay * p
    return step


class TestOptimizerStep:
    def single_param(self, value=1.0):
        """A float64 model of width 1, zero but for its (1, 1) matrix dense_w."""
        cfg = EncoderConfig(vocab_size=3, hidden=1, num_layers=1, ffn=1, dim=1, max_len=2)
        p = init_params(cfg, 1, seed=0).astype(np.float64)
        p.flat[:] = 0.0
        p.tensors["dense_w"][...] = value
        return p

    def test_zero_gradient_zero_decay_is_identity(self):
        p = self.single_param(1.5)
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p, dense_w=np.zeros((1, 1))), state, lr=0.1, weight_decay=0.0)
        assert p["dense_w"][0, 0] == 1.5

    def test_first_step_moves_by_learning_rate(self):
        """Bias correction makes the first unit-gradient step lr/(1+eps)."""
        p = self.single_param(1.0)
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p, dense_w=np.ones((1, 1))), state, lr=0.1, weight_decay=0.0)
        assert p["dense_w"][0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)
        assert p["dense_w"][0, 0] == pytest.approx(0.9, abs=1e-6)
        assert state.step == 1

    def test_decay_applies_to_matrices_only(self):
        cfg = EncoderConfig(vocab_size=4, hidden=2, num_layers=1, ffn=2, dim=2, max_len=2)
        p = init_params(cfg, 1, seed=0)
        p.tensors["layers.0.ffn_b2"][:] = 0.7
        p.tensors["layers.0.norm2_gain"][:] = 1.3
        before_w = p["layers.0.ffn_w1"].copy()
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p), state, lr=0.1, weight_decay=0.01)
        assert np.allclose(p["layers.0.ffn_w1"], before_w * (1.0 - 0.1 * 0.01), atol=1e-9)
        assert np.all(p.tensors["layers.0.ffn_b2"] == 0.7)
        assert np.all(p.tensors["layers.0.norm2_gain"] == 1.3)

    def test_missing_gradients_leave_params_still(self):
        p = self.single_param(2.0)
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p), state, lr=0.5, weight_decay=0.0)
        assert p["dense_w"][0, 0] == 2.0
        assert state.step == 1

    def test_non_finite_gradient_names_the_tensor(self):
        p = self.single_param()
        state = OptimizerState.for_params(p)
        with pytest.raises(TrainingError, match="'dense_w'"):
            optimizer_step(p, grads_of(p, dense_w=np.array([[np.inf]])), state, lr=0.1, weight_decay=0.0)

    def test_non_finite_gradient_names_the_first_bad_tensor_and_changes_nothing(self):
        p = init_params(EncoderConfig(vocab_size=6, **BENCH_SHAPE), 3, seed=1)
        state = OptimizerState.for_params(p)
        grads = grads_of(p, dense_b=np.ones(p["dense_b"].shape))
        grads.tensors["layers.1.ffn_w2"][...] = np.nan
        grads.tensors["head_w"][...] = np.inf
        before = p.flat.copy()
        with pytest.raises(TrainingError, match="'layers.1.ffn_w2'"):
            optimizer_step(p, grads, state, lr=0.1, weight_decay=0.01)
        assert np.array_equal(p.flat, before) and state.step == 0 and not state.m.any()

    def test_two_steps_are_deterministic(self):
        results = []
        for _ in range(2):
            p = self.single_param(1.0)
            state = OptimizerState.for_params(p)
            for g in (0.5, -0.25):
                optimizer_step(p, grads_of(p, dense_w=np.full((1, 1), g)), state, lr=0.05, weight_decay=0.01)
            results.append(p["dense_w"][0, 0])
        assert results[0] == results[1]


class TestFlatOptimizer:
    """The whole-buffer step against the per-tensor reference loop."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @attention_on("attn")
    def test_equals_per_tensor_reference(self, attention, dtype, weight_decay):
        cfg = EncoderConfig(vocab_size=60, **BENCH_SHAPE)
        p = init_params(cfg, 4, seed=61).astype(dtype)
        ref = p.copy()
        m = {n: np.zeros_like(ref[n]) for n in ref.names()}
        v = {n: np.zeros_like(ref[n]) for n in ref.names()}
        ref_step = 0
        state = OptimizerState.for_params(p)
        rng = np.random.default_rng(62)
        names = p.names()
        for k in range(5):
            # every step omits a different third of the tensors
            given = {
                n: rng.standard_normal(p[n].shape).astype(dtype) for i, n in enumerate(names) if i % 3 != k % 3
            }
            optimizer_step(p, grads_of(p, **given), state, lr=1e-2, weight_decay=weight_decay)
            ref_step = reference_adam_step(ref, given, m, v, ref_step, 1e-2, weight_decay)
            assert state.step == ref_step
            for name, (start, stop, _) in p.layout.items():
                assert np.array_equal(p[name], ref[name]), (k, name)
                assert np.array_equal(state.m[start:stop], m[name].ravel()), (k, name)
                assert np.array_equal(state.v[start:stop], v[name].ravel()), (k, name)

    def test_warm_step_allocates_almost_nothing(self):
        """At the default shape (about 690 KB of float32 parameters) the
        per-tensor loop allocated temporaries as large as each tensor."""
        p = init_params(EncoderConfig(vocab_size=500, **DEFAULT_SHAPE), 4, seed=63)
        state = OptimizerState.for_params(p)
        rng = np.random.default_rng(64)
        grads = grads_of(p, **{n: rng.standard_normal(p[n].shape).astype(np.float32) for n in p.names()})
        optimizer_step(p, grads, state, 1e-3, 0.01)
        tracemalloc.start()
        try:
            optimizer_step(p, grads, state, 1e-3, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestGoldenRun:
    def test_reproduces_committed_fixture(self, corpus_sets):
        """Epoch losses and final logits of the seeded bench-shape golden
        run (tests/golden.py) stay within rtol 1e-5 of the fixture."""
        with open(golden.FIXTURE, encoding="utf-8") as f:
            want = json.load(f)
        got = golden.golden_run(corpus_sets)
        np.testing.assert_allclose(got["epoch_losses"], want["epoch_losses"], rtol=1e-5)
        np.testing.assert_allclose(got["logits"], want["logits"], rtol=1e-5)

    def test_same_bytes_at_every_blas_thread_count(self):
        """The golden run's parameters and epoch losses do not depend on
        OpenBLAS's thread count: every weight gradient is summed over short
        row blocks. Runs at 1, 2 and 4 threads, each in its own process,
        and checks that each ran at that count capped at the usable CPUs
        (unless the BLAS cannot report it)."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(golden.__file__)))
        path = os.pathsep.join(filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        digests = set()
        for threads in (1, 2, 4):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            run = subprocess.run(
                [sys.executable, golden.__file__, "--digest"], capture_output=True, text=True, env=env, timeout=300
            )
            assert run.returncode == 0, run.stderr
            digests.add(run.stdout)
            ran_at = re.search(r"^blas_threads (\S+)$", run.stderr, re.MULTILINE)
            assert ran_at is not None, run.stderr
            if ran_at[1] != "None":
                assert int(ran_at[1]) == min(threads, usable), (threads, usable, run.stderr)
        assert len(digests) == 1, digests


class TestKnownAccuracy:
    def test_known_only_ignores_open_column(self):
        # Bias puts the open class far ahead; the known view cannot see it.
        p = bias_only_model([0.0, 1.0, 5.0])
        enc = cls_only_dataset([2, 2, 2])
        assert known_accuracy(p, enc, known_only=True) == 1.0
        assert known_accuracy(p, enc, known_only=False) == 0.0


class TestPredict:
    def test_ties_resolve_to_smallest_id(self):
        p = bias_only_model([0.0, 0.0, 0.0])
        enc = cls_only_dataset([1, 2, 1])
        assert predict(p, enc).tolist() == [1, 1, 1]

    def test_open_class_can_win(self):
        p = bias_only_model([0.0, 1.0, 5.0])
        enc = cls_only_dataset([1, 2])
        assert predict(p, enc).tolist() == [3, 3]

    def test_batch_size_invariance(self):
        cfg = EncoderConfig(vocab_size=20, hidden=8, num_layers=2, ffn=16, dim=8, max_len=5)
        p = init_params(cfg, 3, seed=1)
        rng = np.random.default_rng(2)
        n = 17
        lengths = rng.integers(1, 6, size=n).astype(np.int32)
        tokens = np.zeros((n, 5), dtype=np.int32)
        for i, ln in enumerate(lengths):
            tokens[i, 0] = 2
            tokens[i, 1:ln] = rng.integers(3, 20, size=ln - 1)
        enc = Batch(tokens=tokens, lengths=lengths, class_ids=np.ones(n, dtype=np.int32))
        assert np.array_equal(predict(p, enc, 1), predict(p, enc, 64))


class TestEvalWindows:
    """An untaped pass over a dataset is its batch_size windows, each run on
    its own: predicting the whole set equals predicting each aligned slice,
    element for element, which is what a per-request server relies on."""

    WINDOW = 128
    N = 2 * WINDOW + 77  # a ragged last window
    SHAPES = {
        "bench": dict(hidden=32, num_layers=2, ffn=64, dim=32, max_len=16),
        "default": dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32),
    }

    # The ids name the encoder, "attn", as attention_on does.
    @pytest.fixture(params=list(SHAPES), ids=lambda shape: f"{shape}-attn")
    def model(self, request):
        cfg = EncoderConfig(vocab_size=60, **self.SHAPES[request.param])
        p = init_params(cfg, 4, seed=21)
        rng = np.random.default_rng(22)
        # mostly short rows; a few max_len rows set the width of their window
        lengths = np.minimum(rng.geometric(0.2, size=self.N) + 1, cfg.max_len).astype(np.int32)
        lengths[rng.choice(self.N, size=6, replace=False)] = cfg.max_len
        tokens = rng.integers(3, cfg.vocab_size, size=(self.N, cfg.max_len)).astype(np.int32)
        tokens[:, 0] = 2
        tokens[np.arange(cfg.max_len)[None, :] >= lengths[:, None]] = 0
        enc = Batch(tokens=tokens, lengths=lengths, class_ids=rng.integers(1, 6, self.N).astype(np.int32))
        return p, enc

    def slices(self, enc):
        for start in range(0, len(enc), self.WINDOW):
            rows = slice(start, start + self.WINDOW)
            yield Batch(tokens=enc.tokens[rows], lengths=enc.lengths[rows], class_ids=enc.class_ids[rows])

    def test_whole_set_equals_its_slices(self, model):
        p, enc = model
        assert len(enc) % self.WINDOW and len(set(enc.lengths.tolist())) > 4
        assert np.array_equal(predict(p, enc, self.WINDOW), np.concatenate([predict(p, s) for s in self.slices(enc)]))
        whole = threshold_baseline_predict(p, enc, 0.4, self.WINDOW)
        parts = np.concatenate([threshold_baseline_predict(p, s, 0.4) for s in self.slices(enc)])
        assert np.array_equal(whole, parts)
        assert np.array_equal(
            batched_logits(p, enc, self.WINDOW), np.concatenate([batched_logits(p, s) for s in self.slices(enc)])
        )

    def test_logits_match_one_full_width_forward_per_row(self, model):
        p, enc = model
        got = batched_logits(p, enc, self.WINDOW)
        assert got.shape == (self.N, p.M + 1) and got.dtype == np.float32
        for i in range(self.N):
            row = Batch(
                tokens=enc.tokens[i : i + 1],
                lengths=enc.lengths[i : i + 1],
                class_ids=enc.class_ids[i : i + 1],
            )
            want = forward(p, row)[1][0]
            assert np.max(np.abs(got[i] - want)) <= 1e-5 * np.max(np.abs(want)), f"row {i}"

    def test_a_window_runs_as_one_forward(self, model, monkeypatch):
        """Each window is one forward of its rows, in dataset order, as wide
        as its longest row."""
        p, enc = model
        seen = []
        monkeypatch.setattr("snoic.trainer.forward", lambda params, batch: seen.append(batch) or forward(params, batch))
        batched_logits(p, enc, self.WINDOW)
        assert [len(b) for b in seen] == [self.WINDOW, self.WINDOW, self.N - 2 * self.WINDOW]
        for start, batch in zip(range(0, self.N, self.WINDOW), seen):
            rows = slice(start, start + self.WINDOW)
            width = int(enc.lengths[rows].max())
            assert np.array_equal(batch.tokens, enc.tokens[rows, :width])
            assert np.array_equal(batch.lengths, enc.lengths[rows])
            assert np.array_equal(batch.class_ids, enc.class_ids[rows])


class TestLastPassMemo:
    """batched_logits runs the encoder again only when a call's inputs
    differ from the last pass's: the same params and enc objects, holding
    the same values, at the same batch_size, reuse that pass."""

    WINDOW = 128

    @staticmethod
    def make(seed=31):
        cfg = EncoderConfig(vocab_size=60, hidden=32, num_layers=2, ffn=64, dim=32, max_len=16)
        p = init_params(cfg, 4, seed=seed)
        rng = np.random.default_rng(seed + 1)
        n = 200
        lengths = rng.integers(2, cfg.max_len + 1, size=n).astype(np.int32)
        tokens = rng.integers(3, cfg.vocab_size, size=(n, cfg.max_len)).astype(np.int32)
        tokens[:, 0] = 2
        tokens[np.arange(cfg.max_len)[None, :] >= lengths[:, None]] = 0
        return p, Batch(tokens=tokens, lengths=lengths, class_ids=rng.integers(1, 6, n).astype(np.int32))

    @pytest.fixture
    def forwards(self, monkeypatch):
        """Rows of every forward that batched_logits runs."""
        seen = []
        monkeypatch.setattr("snoic.trainer.forward", lambda params, batch: seen.append(len(batch)) or forward(params, batch))
        return seen

    @staticmethod
    def windows(enc, batch_size=WINDOW):
        """The batches of the pass batched_logits runs: its windows in order."""
        return _slice_batches(enc, np.arange(len(enc)), batch_size)

    @staticmethod
    def fresh(p, enc, batch_size=WINDOW):
        """The logits of the pass batched_logits runs, without its memo."""
        return np.concatenate([forward(p, batch)[1] for batch in TestLastPassMemo.windows(enc, batch_size)])

    def test_baseline_after_predict_runs_no_second_pass(self, forwards):
        p, enc = self.make()
        preds = predict(p, enc)
        base = threshold_baseline_predict(p, enc, 0.4)
        assert len(forwards) == len(self.windows(enc)) == 2
        want = self.fresh(p, enc)
        assert np.array_equal(preds, open_predictions(want))
        assert np.array_equal(base, baseline_predictions(want, p.M, 0.4))

    @staticmethod
    def changed(how, p, enc):
        """The arguments of a second call, after one change to the first's."""
        row = int(np.argmax(enc.lengths))
        if how == "optimizer step":
            optimizer_step(p, p.with_flat(np.full_like(p.flat, 0.5)), OptimizerState.for_params(p), 1e-2, 0.01)
        elif how == "token written":
            enc.tokens[row, 1] = 3 if enc.tokens[row, 1] != 3 else 4
        elif how == "length written":
            enc.lengths[row] -= 1
        elif how == "batch size":
            return p, enc, 64
        elif how == "equal params":
            return p.copy(), enc, TestLastPassMemo.WINDOW
        elif how == "equal dataset":
            equal = Batch(tokens=enc.tokens.copy(), lengths=enc.lengths.copy(), class_ids=enc.class_ids)
            return p, equal, TestLastPassMemo.WINDOW
        return p, enc, TestLastPassMemo.WINDOW

    @pytest.mark.parametrize(
        "how", ["optimizer step", "token written", "length written", "batch size", "equal params", "equal dataset"]
    )
    def test_a_changed_input_runs_a_fresh_pass(self, forwards, how):
        p, enc = self.make()
        batched_logits(p, enc, self.WINDOW)
        p, enc, batch_size = self.changed(how, p, enc)
        before = len(forwards)
        got = batched_logits(p, enc, batch_size)
        assert len(forwards) - before == len(self.windows(enc, batch_size))
        assert np.array_equal(got, self.fresh(p, enc, batch_size))

    def test_writing_into_a_result_leaves_the_next_alone(self, forwards):
        p, enc = self.make()
        first = batched_logits(p, enc)
        want = first.copy()
        first[:] = np.nan
        second = batched_logits(p, enc)
        second[:] = 0.0
        assert np.array_equal(batched_logits(p, enc), want)
        assert len(forwards) == len(self.windows(enc))

    def test_concurrent_callers_never_mix_passes(self):
        """Four threads alternate between two models, so that calls hit and
        miss in many interleavings: every result is its own model's logits."""
        models = [self.make(seed) for seed in (31, 41)]
        wants = [self.fresh(p, enc) for p, enc in models]
        mismatches = []
        start = threading.Barrier(4)

        def work(k):
            start.wait(timeout=60)
            for i in range(20):
                j = (k + i // 2) % 2
                if not np.array_equal(batched_logits(*models[j]), wants[j]):
                    mismatches.append((k, i))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches

    def test_the_memo_keeps_nothing_alive(self):
        p, enc = self.make()
        predict(p, enc)
        refs = weakref.ref(p), weakref.ref(enc)
        del p, enc
        gc.collect()
        assert refs[0]() is None and refs[1]() is None


class TestThresholdBaseline:
    def setup_method(self):
        # Known-class probabilities are (0.6, 0.4) on every row.
        self.p = bias_only_model([math.log(0.6), math.log(0.4), 2.0])
        self.enc = cls_only_dataset([1, 1])

    def test_zero_threshold_never_rejects(self):
        assert threshold_baseline_predict(self.p, self.enc, 0.0).tolist() == [1, 1]

    def test_unit_threshold_always_rejects(self):
        assert threshold_baseline_predict(self.p, self.enc, 1.0).tolist() == [3, 3]

    def test_mid_threshold_keeps_confident_rows(self):
        assert threshold_baseline_predict(self.p, self.enc, 0.5).tolist() == [1, 1]
        assert threshold_baseline_predict(self.p, self.enc, 0.61).tolist() == [3, 3]

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            threshold_baseline_predict(self.p, self.enc, 1.5)


def reference_baseline(logits, M, threshold):
    """baseline_predictions with a second max reduction for the confidence."""
    probs = softmax(logits[:, :M])
    return np.where(probs.max(axis=1) < threshold, M + 1, open_predictions(probs)).astype(np.int32)


class TestBaselineAtArgmax:
    """baseline_predictions reads each row's confidence at its argmax; its
    ids equal the max-reduction form's on ties, at the threshold and at M=1."""

    @staticmethod
    def logits(M, seed, rows=64):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, M + 1)).astype(np.float32)
        x[: rows // 4, :M] = x[: rows // 4, :1]  # every known class tied
        x[rows // 4 : rows // 2, 1:M] = x[rows // 4 : rows // 2, :1]  # ties short of M
        return x

    @pytest.mark.parametrize("M", [1, 2, 3, 7])
    def test_equals_the_max_reduction(self, M):
        x = self.logits(M, seed=M)
        conf = softmax(x[:, :M]).max(axis=1)
        # rows exactly at the threshold are kept: the comparison is strict
        for threshold in (0.0, 0.3, 0.5, 1.0, float(conf[0]), float(conf[-1]), float(np.median(conf))):
            got = baseline_predictions(x, M, threshold)
            assert got.dtype == np.int32
            assert np.array_equal(got, reference_baseline(x, M, threshold)), threshold
        assert baseline_predictions(x, M, float(conf[-1]))[-1] <= M

    @pytest.mark.parametrize("threshold", [1.5, -0.1, math.nan, True])
    def test_threshold_outside_the_unit_interval_rejected(self, threshold):
        """1.5 used to mark every row open without a word."""
        with pytest.raises(ConfigError, match="^threshold must be "):
            baseline_predictions(self.logits(2, seed=0), 2, threshold)

    def test_ties_go_to_the_smaller_id(self):
        x = np.zeros((3, 4), dtype=np.float32)
        x[1, 1:3] = 2.0
        assert baseline_predictions(x, 3, 0.0).tolist() == [1, 2, 1]
        assert baseline_predictions(x, 3, 1 / 3).tolist() == reference_baseline(x, 3, 1 / 3).tolist()

    def test_one_known_class(self):
        x = np.random.default_rng(3).normal(size=(5, 2)).astype(np.float32)
        assert baseline_predictions(x, 1, 1.0).tolist() == [1] * 5  # a lone class's confidence is exactly 1
        with pytest.raises(ConfigError, match=r"^threshold must be in \[0, 1\]"):
            baseline_predictions(x, 1, np.nextafter(1.0, 2.0))


def assert_empty_sets_rejected(stage):
    vocab, train_enc, val_enc = separable_sets()
    empty = Batch(
        tokens=train_enc.tokens[:0],
        lengths=train_enc.lengths[:0],
        class_ids=train_enc.class_ids[:0],
    )
    params = init_params(separable_encoder(vocab), 3, seed=0)
    cfg = TrainConfig(max_epochs=1)
    with pytest.raises(DataError, match="empty training"):
        stage(params, empty, val_enc, cfg)
    with pytest.raises(DataError, match="empty validation"):
        stage(params, train_enc, empty, cfg)


def assert_out_of_range_labels_rejected(stage):
    vocab, train_enc, val_enc = separable_sets()
    params = init_params(separable_encoder(vocab), 1, seed=0)  # M=1 but ids go to 3
    with pytest.raises(DataError, match="outside 1"):
        stage(params, train_enc, val_enc, TrainConfig(max_epochs=1))


class TestPretrain:
    def test_learns_separable_intents(self):
        """Mean best validation accuracy over three seeds clears 0.95."""
        vocab, train_enc, val_enc = separable_sets()
        accs = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=30, patience=30, seed=seed)
            params = init_params(separable_encoder(vocab), 3, seed)
            best, log = pretrain(params, train_enc, val_enc, cfg)
            accs.append(known_accuracy(best, val_enc, known_only=True))
        assert float(np.mean(accs)) >= 0.95

    def test_frozen_learning_stops_after_exactly_two_epochs(self):
        """With lr=0 nothing improves after epoch one, so patience=1 stops at two."""
        vocab, train_enc, val_enc = separable_sets()
        cfg = TrainConfig(lr=0.0, batch_size=8, max_epochs=50, patience=1, seed=0)
        params = init_params(separable_encoder(vocab), 3, seed=0)
        _, log = pretrain(params, train_enc, val_enc, cfg)
        assert len(log) == 2
        assert [rec.epoch for rec in log.records] == [1, 2]
        assert log.records[0].best and not log.records[1].best

    def test_returned_params_match_best_logged_epoch(self):
        vocab, train_enc, val_enc = separable_sets()
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=8, patience=8, seed=1)
        params = init_params(separable_encoder(vocab), 3, seed=1)
        best, log = pretrain(params, train_enc, val_enc, cfg)
        best_acc = known_accuracy(best, val_enc, known_only=True)
        assert best_acc == pytest.approx(max(r.val_known_acc for r in log.records), abs=1e-12)

    def test_empty_sets_rejected(self):
        assert_empty_sets_rejected(pretrain)

    def test_out_of_range_labels_rejected(self):
        assert_out_of_range_labels_rejected(pretrain)

    def test_variant_flags_do_not_change_pretraining(self):
        """The acceptance grid shares one pretraining run across variants,
        each of which sets one stage-two magnitude to 0."""
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=4)
        runs = [
            pretrain(params, train_enc, val_enc, TrainConfig(batch_size=8, max_epochs=2, seed=4, **zeroed))
            for zeroed in ({}, {"rho": 0.0}, {"delta_add": 0.0}, {"delta_mul": 0.0})
        ]
        (ref, ref_log), others = runs[0], runs[1:]
        for best, log in others:
            assert np.array_equal(best.flat, ref.flat)
            assert log.records == ref_log.records


class TestValidationWindows:
    @pytest.mark.parametrize("batch_size", [8, 32])
    @pytest.mark.parametrize("stage", [pretrain, train_open], ids=["pretrain", "open"])
    def test_an_epoch_validates_in_the_eval_windows(self, stage, batch_size, monkeypatch):
        """Validation reads 128-row windows, as snoic eval does, whatever the
        stage's batch_size: 240 rows are ceil(240 / 128) = 2 forwards."""
        vocab, train_enc, val_enc = separable_sets()
        rows = np.arange(240) % len(val_enc)
        val_240 = Batch(tokens=val_enc.tokens[rows], lengths=val_enc.lengths[rows], class_ids=val_enc.class_ids[rows])
        seen = []
        monkeypatch.setattr("snoic.trainer.forward", lambda params, batch: seen.append(len(batch)) or forward(params, batch))
        params = init_params(separable_encoder(vocab), 3, seed=0)
        stage(params, train_enc, val_240, TrainConfig(lr=1e-2, batch_size=batch_size, max_epochs=1, seed=0))
        assert seen == [128, 112]


class TestTrainOpen:
    def short_cfg(self, seed=0, **kw):
        # 36 examples over batches of 12: full balanced batches stay pairable
        return TrainConfig(lr=1e-2, batch_size=12, max_epochs=2, patience=2, seed=seed, **kw)

    def test_runs_and_logs_stage_records(self):
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=0)
        best, log = train_open(params, train_enc, val_enc, self.short_cfg())
        stages = {rec.stage for rec in log.records}
        assert stages == {"open"}
        assert len(log) == 2
        assert all(np.isfinite(best[n]).all() for n in best.names())

    def test_same_seed_reproduces_parameters_exactly(self):
        vocab, train_enc, val_enc = separable_sets()
        outs = []
        for _ in range(2):
            params = init_params(separable_encoder(vocab), 3, seed=3)
            best, _ = train_open(params, train_enc, val_enc, self.short_cfg(seed=3))
            outs.append(best)
        for name in outs[0].names():
            assert np.array_equal(outs[0][name], outs[1][name])

    def test_soft_label_toggle_feeds_zero_rho(self, monkeypatch):
        """The SNOiC-SL variant, rho = 0, must hand the target builder rho=0."""
        import snoic.trainer as trainer_mod

        seen = []
        real = trainer_mod.soft_targets

        def spy(labels, m, rho):
            seen.append(rho)
            return real(labels, m, rho)

        monkeypatch.setattr(trainer_mod, "soft_targets", spy)
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=0)
        cfg = TrainConfig(lr=1e-2, batch_size=12, max_epochs=1, patience=1, seed=0, rho=0.0)
        train_open(params, train_enc, val_enc, cfg)
        assert seen and all(r == 0.0 for r in seen)
        seen.clear()
        train_open(params, train_enc, val_enc, self.short_cfg())
        assert seen and all(r == 0.3 for r in seen)

    def test_gradients_keep_the_parameter_dtype(self, monkeypatch):
        """Every stage-two gradient of a float32 model is float32."""
        import snoic.trainer as trainer_mod

        mismatched = []
        real = trainer_mod.optimizer_step

        def spy(params, grads, state, lr, weight_decay):
            mismatched.extend(n for n, g in grads.tensors.items() if g.dtype != params[n].dtype)
            return real(params, grads, state, lr, weight_decay)

        monkeypatch.setattr(trainer_mod, "optimizer_step", spy)
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=0)
        assert all(params[n].dtype == np.float32 for n in params.names())
        train_open(params, train_enc, val_enc, self.short_cfg())
        assert mismatched == []

    def test_lambda_gamma_mode_runs(self):
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=0)
        _, log = train_open(params, train_enc, val_enc, self.short_cfg(gamma_mode="lambda"))
        assert all(math.isfinite(rec.mean_loss) for rec in log.records)

    def test_single_known_intent_rejected(self):
        vocab, train_enc, val_enc = separable_sets()
        solo_idx = train_enc.class_ids == 1
        solo = Batch(
            tokens=train_enc.tokens[solo_idx],
            lengths=train_enc.lengths[solo_idx],
            class_ids=train_enc.class_ids[solo_idx],
        )
        params = init_params(separable_encoder(vocab), 3, seed=0)
        with pytest.raises(PairingError, match="2 distinct"):
            train_open(params, solo, val_enc, self.short_cfg())

    def test_empty_sets_rejected(self):
        assert_empty_sets_rejected(train_open)

    def test_out_of_range_labels_rejected(self):
        assert_out_of_range_labels_rejected(train_open)

    def test_input_checks_come_before_the_pairing_check(self):
        """A training set with fewer than 2 intents that also fails an input
        check reports the input check."""
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=0)
        empty = Batch(
            tokens=train_enc.tokens[:0],
            lengths=train_enc.lengths[:0],
            class_ids=train_enc.class_ids[:0],
        )
        with pytest.raises(DataError, match="empty training"):
            train_open(params, empty, val_enc, self.short_cfg())
        solo_idx = train_enc.class_ids == 3
        solo = Batch(
            tokens=train_enc.tokens[solo_idx],
            lengths=train_enc.lengths[solo_idx],
            class_ids=train_enc.class_ids[solo_idx],
        )
        narrow = init_params(separable_encoder(vocab), 2, seed=0)  # M=2, the one intent is 3
        with pytest.raises(DataError, match="training set contains class ids outside 1..2"):
            train_open(narrow, solo, val_enc, self.short_cfg())


class TestTwoStage:
    def test_end_to_end_improves_on_initialization(self):
        vocab, train_enc, val_enc = separable_sets()
        cfg = TrainConfig(lr=1e-2, batch_size=12, max_epochs=6, patience=6, seed=0)
        params = init_params(separable_encoder(vocab), 3, seed=0)
        before = known_accuracy(params, val_enc)
        best, log = train_two_stage(params, train_enc, val_enc, cfg)
        after = known_accuracy(best, val_enc)
        assert after >= before
        assert {rec.stage for rec in log.records} == {"pretrain", "open"}

    def test_loss_decreases_across_bench_epochs(self, bench_grid):
        """Stage losses at the last epoch sit below the first, seed-averaged."""
        for stage in ("pretrain", "open"):
            firsts, lasts = [], []
            for run in bench_grid.of("full"):
                recs = [r for r in run.log.records if r.stage == stage]
                assert [r.epoch for r in recs] == list(range(1, 11))
                firsts.append(recs[0].mean_loss)
                lasts.append(recs[-1].mean_loss)
            assert float(np.mean(lasts)) < float(np.mean(firsts))


def _zero_model(cfg, vocab, entries, M=3):
    return Model(EncoderParams(cfg, M, np.zeros(entries, np.float32)), vocab)


def _non_finite(cfg, vocab, size, name, value):
    p = init_params(cfg, 3, seed=5)
    p.tensors[name].ravel()[0] = value
    return Model(params=p, vocab=vocab)


# fault -> (encoder config, vocabulary, parameter count at M=3) -> a model to save
UNLOADABLE_MODELS = {
    "extra-tensor": lambda cfg, vocab, n: _zero_model(cfg, vocab, n + cfg.dim),
    "missing-block-tensor": lambda cfg, vocab, n: _zero_model(cfg, vocab, n - cfg.hidden**2),
    "dense_w-3x3": lambda cfg, vocab, n: _zero_model(cfg, vocab, n - cfg.hidden * cfg.dim + 9),
    "M-0": lambda cfg, vocab, n: _zero_model(cfg, vocab, n, M=0),
    "M-True": lambda cfg, vocab, n: _zero_model(cfg, vocab, n, M=True),
    "short-vocabulary": lambda cfg, vocab, n: Model(init_params(cfg, 3, 5), Vocab(vocab.id_to_token[:-1])),
    "inf": partial(_non_finite, name="layers.0.ffn_w2", value=np.inf),
    "nan": partial(_non_finite, name="head_b", value=np.nan),
}


class TestLogAndModelIo:
    def test_train_log_saves_jsonl(self, tmp_path):
        log = TrainLog()
        log.add(1, "pretrain", 0.5, 0.8, True)
        log.add(2, "pretrain", 0.4, 0.7, False)
        path = tmp_path / "log.jsonl"
        log.save(str(path))
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {
            "best": True, "epoch": 1, "mean_loss": 0.5, "stage": "pretrain", "val_known_acc": 0.8,
        }
        assert rows[1]["epoch"] == 2

    def test_save_load_model_round_trip(self, tmp_path):
        vocab, train_enc, _ = separable_sets()
        params = init_params(separable_encoder(vocab), 3, seed=5)
        meta = {"variant": "SNOiC", "seed": 5}
        log = TrainLog()
        log.add(1, "pretrain", 1.0, 0.5, True)
        save_model(Model(params=params, vocab=vocab), str(tmp_path / "m"), meta=meta, log=log)
        loaded, got_meta = load_model(str(tmp_path / "m"))
        assert got_meta == meta
        assert loaded.vocab.id_to_token == vocab.id_to_token
        for name in params.names():
            assert np.array_equal(loaded.params[name], params[name])
        assert (tmp_path / "m" / "train_log.jsonl").exists()

    @pytest.mark.parametrize("fault", list(UNLOADABLE_MODELS))
    def test_what_save_model_writes_load_model_reads(self, tmp_path, fault):
        """Each model that was saved and then refused by load_model, or
        that failed with a raw KeyError, is refused before any file exists.
        An extra, missing or mis-shaped tensor is a buffer of the wrong
        size; tensors in another order cannot be expressed, since a buffer
        of the right size has param_spec's layout."""
        vocab, _, _ = separable_sets()
        cfg = separable_encoder(vocab)
        size = sum(math.prod(shape) for _, shape, _ in param_spec(cfg, 3))
        out = tmp_path / "m"
        with pytest.raises(SnoicError):
            save_model(UNLOADABLE_MODELS[fault](cfg, vocab, size), str(out))
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


FULL_WIDTHS = (32, 32, 32, 32)
RAGGED_WIDTHS = (8, 9, 10, 7)


class TestStepMemory:
    """At the README default shape a warmed-up step takes its tape, scratch
    arrays and gradient buffer from the stage's workspace, writes every
    parameter gradient straight into that buffer and updates the optimizer
    state in place: what it allocates anew is its per-row vectors and the
    tape's dicts. It does so whether its batches are max_len wide or, as
    real batches are, 7 to 10 columns wide and of another width each step
    (of each widths tuple the last is the measured step's, the others warm
    the workspace up), and at every mix layer. The measured step may hold
    more real tokens than any warm-up step: packed buffers are kept at the
    padded size. Without a workspace one pretrain step allocates about
    13 MB and one open step 32-41 MB."""

    SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)
    M = 4

    def batch(self, seed, size=32, width=32):
        """A batch as the corpus cuts it: ``width`` columns, the longest row
        ``width`` tokens long."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, width + 1, size=size).astype(np.int32)
        lengths[0] = width
        tokens = rng.integers(3, 500, size=(size, width)).astype(np.int32)
        tokens *= np.arange(width) < lengths[:, None]
        labels = rng.integers(1, self.M + 1, size=size).astype(np.int32)
        return Batch(tokens=tokens, lengths=lengths, class_ids=labels)

    def pair(self, seed, size=32, width=32):
        first, second = self.batch(seed, size, width), self.batch(seed + 1, size, width)
        second.class_ids = (first.class_ids % self.M + 1).astype(np.int32)
        return PairedBatch(first=first, second=second)

    def params(self):
        return init_params(EncoderConfig(vocab_size=500, **self.SHAPE), self.M, seed=43)

    @staticmethod
    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def pretrain_peak(self, widths) -> int:
        params = self.params()
        opt = OptimizerState.for_params(params)
        ws = Workspace()

        def step(batch):
            tape = TapedForward(params, batch, ws)
            _, dlogits = pretrain_loss(tape.logits, batch.class_ids, self.M)
            optimizer_step(params, tape.backward(dlogits), opt, 1e-3, 0.01)

        for seed, size, width in zip((1, 2, 3), (32, 16, 32), widths):
            step(self.batch(seed, size, width))
        batch = self.batch(4, width=widths[-1])
        return self.peak_bytes(lambda: step(batch))

    def open_peak(self, widths, layer, full_pair=False) -> int:
        """The peak of an open step that mixes at block ``layer``; with
        ``full_pair`` every row of its pair is as long as the batch is wide."""
        params = self.params()
        opt = OptimizerState.for_params(params)
        ws = Workspace()

        def step(batch, pair, rng):
            mix_pass = NoisyMixupPass(params, batch, pair, TrainConfig(), rng, ws)
            _, dkl = kl_loss(soft_targets(batch.class_ids, self.M, 0.3), mix_pass.soft_logits)
            _, dopen = mixup_loss(mix_pass.logits)
            optimizer_step(params, mix_pass.backward(0.5 * dkl, 0.5 * dopen), opt, 1e-3, 0.01)

        depth = self.SHAPE["num_layers"]

        def mixing_at(layer):
            return np.random.default_rng(seed_for_layer(layer, depth))

        # mixing at the last block first runs every block on all stacked rows
        for seed, size, layer, width in zip((1, 3, 5), (32, 16, 32), (depth, 1, 1), widths):
            step(self.batch(seed, size, width), self.pair(seed + 10, size, width), mixing_at(layer))
        batch, pair, rng = self.batch(7, width=widths[-1]), self.pair(17, width=widths[-1]), mixing_at(layer)
        if full_pair:
            for half in (pair.first, pair.second):
                half.lengths[:] = half.tokens.shape[1]
                half.tokens[half.tokens == 0] = 3
        return self.peak_bytes(lambda: step(batch, pair, rng))

    def open_peaks(self, widths) -> dict[int, int]:
        """The open step's peak at every mix layer, each after the same warm-up."""
        return {layer: self.open_peak(widths, layer) for layer in range(1, self.SHAPE["num_layers"] + 1)}

    def test_pretrain_step(self):
        assert self.pretrain_peak(FULL_WIDTHS) <= 0.11e6

    def test_pretrain_step_at_ragged_widths(self):
        assert self.pretrain_peak(RAGGED_WIDTHS) <= 0.11e6

    def test_open_step(self):
        peaks = self.open_peaks(FULL_WIDTHS)
        assert max(peaks.values()) <= 0.18e6, peaks

    def test_open_step_at_ragged_widths(self):
        peaks = self.open_peaks(RAGGED_WIDTHS)
        assert max(peaks.values()) <= 0.18e6, peaks

    def test_open_step_with_a_full_union(self):
        """A pair with no padding mixes more union tokens than any warm-up
        step. The buffers of the union's rows are kept at the padded size,
        so only the per-row vectors grow; had the union's buffers grown to
        fit, this step would allocate about 1.2 MB."""
        assert self.open_peak(FULL_WIDTHS, 1, full_pair=True) <= 0.21e6


def bench_batch(rng, size, width, m=4, vocab=60):
    """A ``width``-wide batch whose longest row fills it, as the corpus cuts them."""
    lengths = rng.integers(1, width + 1, size=size).astype(np.int32)
    lengths[0] = width
    tokens = rng.integers(3, vocab, size=(size, width)).astype(np.int32)
    tokens *= np.arange(width) < lengths[:, None]
    return Batch(tokens=tokens, lengths=lengths, class_ids=rng.integers(1, m + 1, size=size).astype(np.int32))


def bench_pair(rng, size, widths, m=4):
    first, second = bench_batch(rng, size, widths[0], m), bench_batch(rng, size, widths[1], m)
    second.class_ids = (first.class_ids % m + 1).astype(np.int32)
    return PairedBatch(first=first, second=second)


def open_step(params, batch, pair, rng, ws, cfg=TrainConfig()):
    """One open-training step's pass and backward, as ``train_open`` runs it."""
    mix_pass = NoisyMixupPass(params, batch, pair, cfg, rng, ws)
    _, dkl = kl_loss(soft_targets(batch.class_ids, params.M, 0.3), mix_pass.soft_logits)
    _, dopen = mixup_loss(mix_pass.logits)
    return mix_pass.backward(0.5 * dkl, 0.5 * dopen)


def held_arrays(ws) -> list:
    """Every array a workspace holds: its attributes, the dicts among them
    and the flat buffer of its gradients."""
    found = []

    def visit(obj):
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, dict):
            for value in obj.values():
                visit(value)
        elif hasattr(obj, "flat") and hasattr(obj, "layout"):
            visit(obj.flat)

    for value in vars(ws).values():
        visit(value)
    return found


class TestWorkspaceGrowth:
    """Once a stage's workspace has seen its widest and fullest steps, at
    every mix layer, no later step adds a buffer, a byte or a cached view,
    whatever its batch width, tail size or union size."""

    def footprint(self, ws):
        arrays = held_arrays(ws)
        return {id(a) for a in arrays}, sum(a.nbytes for a in arrays), sum(a.base is not None for a in arrays)

    def test_open_steps_stop_growing(self):
        params = init_params(EncoderConfig(vocab_size=60, **BENCH_SHAPE), 4, seed=71)
        depth, full = BENCH_SHAPE["num_layers"], BENCH_SHAPE["max_len"]
        ws = Workspace()
        rng = np.random.default_rng(72)
        for layer in range(1, depth + 1):
            batch, pair = bench_batch(rng, 32, full), bench_pair(rng, 32, (full, full))
            for half in (pair.first, pair.second):
                half.lengths[:] = full
            open_step(params, batch, pair, np.random.default_rng(seed_for_layer(layer, depth)), ws)
        before = self.footprint(ws)
        assert before[2] == 0
        layers = set()
        for k in range(60):
            b, n = (32, 32) if k % 3 else tuple(rng.integers(2, 32, size=2))
            widths = rng.integers(2, full + 1, size=3)
            mix_rng = np.random.default_rng(100 + k)
            layers.add(int(np.random.default_rng(100 + k).integers(1, depth + 1)))
            open_step(params, bench_batch(rng, b, widths[0]), bench_pair(rng, n, widths[1:]), mix_rng, ws)
            assert self.footprint(ws) == before, k
        assert layers == set(range(1, depth + 1))

    def test_pretrain_steps_stop_growing(self):
        params = init_params(EncoderConfig(vocab_size=60, **BENCH_SHAPE), 4, seed=73)
        ws = Workspace()
        rng = np.random.default_rng(74)
        full = bench_batch(rng, 32, BENCH_SHAPE["max_len"])
        full.lengths[:] = BENCH_SHAPE["max_len"]
        tape = TapedForward(params, full, ws)
        tape.backward(pretrain_loss(tape.logits, full.class_ids, params.M)[1])
        before = self.footprint(ws)
        assert before[2] == 0
        for k in range(60):
            batch = bench_batch(rng, 32 if k % 3 else int(rng.integers(1, 32)), int(rng.integers(1, 17)))
            tape = TapedForward(params, batch, ws)
            tape.backward(pretrain_loss(tape.logits, batch.class_ids, params.M)[1])
            assert self.footprint(ws) == before, k


def profiled_calls(fn) -> int:
    """'call' and 'c_call' profile events while ``fn`` runs, counted as
    perfbench's CallCounter counts them: every Python function and every
    builtin called from Python, not the numpy kernels inside one C call."""
    n = 0

    def hook(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


class TestCallBudget:
    """A warm bench-shape training step makes at most 5% more Python and
    builtin calls than it did when each workspace buffer became one dict
    lookup and a slice, weight decay one multiply by a cached rate vector,
    and the sums and losses lost their Python wrappers: before that change
    the same steps made 629 (pretraining) and 818 and 770 (open training,
    mixing at block 1 and 2) calls. The counts include numpy's own Python
    wrappers, so they are those of numpy 2.4; another numpy may move them."""

    BUDGET = {"pretrain": 228, "open-1": 305, "open-2": 305}

    def counts(self) -> dict:
        params = init_params(EncoderConfig(vocab_size=60, **BENCH_SHAPE), 4, seed=75)
        rng = np.random.default_rng(76)
        batch, pair = bench_batch(rng, 32, 10), bench_pair(rng, 32, (9, 10))
        opt, ws = OptimizerState.for_params(params), Workspace()

        def pretrain_step(_):
            tape = TapedForward(params, batch, ws)
            value, dlogits = pretrain_loss(tape.logits, batch.class_ids, params.M)
            assert math.isfinite(value)
            optimizer_step(params, tape.backward(dlogits), opt, 1e-3, 0.01)

        def open_training_step(mix_rng):
            optimizer_step(params, open_step(params, batch, pair, mix_rng, ws), opt, 1e-3, 0.01)

        got = {}
        steps = [("pretrain", pretrain_step, 0)]
        steps += [(f"open-{rl}", open_training_step, rl) for rl in range(1, BENCH_SHAPE["num_layers"] + 1)]
        for name, step, layer in steps:
            seed = seed_for_layer(layer, BENCH_SHAPE["num_layers"]) if layer else 0
            for _ in range(3):  # warm the workspace and the caches up
                step(np.random.default_rng(seed))
            mix_rng = np.random.default_rng(seed)
            got[name] = profiled_calls(partial(step, mix_rng))
        return got

    def test_warm_steps_stay_within_budget(self):
        got = self.counts()
        assert got == self.counts(), "a warm step's call count must repeat exactly"
        for name, budget in self.BUDGET.items():
            assert got[name] <= 1.05 * budget, (name, got[name], budget)
