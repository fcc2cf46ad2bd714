"""Optimizer arithmetic, early stopping, two-stage training, prediction."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import golden
from gradcheck import seed_for_layer

from snoic.augment import NoisyMixupPass
from snoic.corpus import (
    Batch,
    ClassDataset,
    Dataset,
    EncodedDataset,
    LabeledExample,
    PairedBatch,
    build_vocab,
    encode_dataset,
)
from snoic.encoder import EncoderConfig, EncoderParams, TapedForward, Workspace, init_params
from snoic.errors import ConfigError, DataError, PairingError, TrainingError
from snoic.losses import kl_loss, mixup_loss, pretrain_loss, soft_targets
from snoic.trainer import (
    ADAM_EPS,
    BETA1,
    BETA2,
    Model,
    OptimizerState,
    TrainConfig,
    TrainLog,
    _stream_seed,
    known_accuracy,
    load_model,
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
    cfg = EncoderConfig(
        vocab_size=5, hidden=4, num_layers=1, ffn=4, dim=4, max_len=4, attention=False
    )
    p = init_params(cfg, m, seed=0)
    for name in p.names():
        p.tensors[name][:] = 0.0
    p.tensors["head_b"][:] = head_bias
    return p


def cls_only_dataset(class_ids, max_len=4):
    n = len(class_ids)
    tokens = np.zeros((n, max_len), dtype=np.int32)
    tokens[:, 0] = 2
    return EncodedDataset(
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
        cfg = EncoderConfig(vocab_size=3, hidden=1, num_layers=1, ffn=1, dim=1, max_len=2)
        return EncoderParams(cfg=cfg, M=1, tensors={"w": np.array([[value]])})

    def test_zero_gradient_zero_decay_is_identity(self):
        p = self.single_param(1.5)
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p, w=np.zeros((1, 1))), state, lr=0.1, weight_decay=0.0)
        assert p["w"][0, 0] == 1.5

    def test_first_step_moves_by_learning_rate(self):
        """Bias correction makes the first unit-gradient step lr/(1+eps)."""
        p = self.single_param(1.0)
        state = OptimizerState.for_params(p)
        optimizer_step(p, grads_of(p, w=np.ones((1, 1))), state, lr=0.1, weight_decay=0.0)
        assert p["w"][0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)
        assert p["w"][0, 0] == pytest.approx(0.9, abs=1e-6)
        assert state.step == 1

    def test_decay_applies_to_matrices_only(self):
        cfg = EncoderConfig(vocab_size=4, hidden=2, num_layers=1, ffn=2, dim=2, max_len=2, attention=False)
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
        assert p["w"][0, 0] == 2.0
        assert state.step == 1

    def test_non_finite_gradient_names_the_tensor(self):
        p = self.single_param()
        state = OptimizerState.for_params(p)
        with pytest.raises(TrainingError, match="'w'"):
            optimizer_step(p, grads_of(p, w=np.array([[np.inf]])), state, lr=0.1, weight_decay=0.0)

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
                optimizer_step(p, grads_of(p, w=np.full((1, 1), g)), state, lr=0.05, weight_decay=0.01)
            results.append(p["w"][0, 0])
        assert results[0] == results[1]


class TestFlatOptimizer:
    """The whole-buffer step against the per-tensor reference loop."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
    def test_equals_per_tensor_reference(self, attention, dtype, weight_decay):
        cfg = EncoderConfig(vocab_size=60, attention=attention, **BENCH_SHAPE)
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


class TestKnownAccuracy:
    def test_known_only_ignores_open_column(self):
        # Bias puts the open class far ahead; the known view cannot see it.
        p = bias_only_model([0.0, 1.0, 5.0])
        enc = cls_only_dataset([2, 2, 2])
        assert known_accuracy(p, enc, 2, known_only=True) == 1.0
        assert known_accuracy(p, enc, 2, known_only=False) == 0.0


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
        enc = EncodedDataset(tokens=tokens, lengths=lengths, class_ids=np.ones(n, dtype=np.int32))
        assert np.array_equal(predict(p, enc, 1), predict(p, enc, 64))


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


class TestPretrain:
    def test_learns_separable_intents(self):
        """Mean best validation accuracy over three seeds clears 0.95."""
        vocab, train_enc, val_enc = separable_sets()
        accs = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=30, patience=30, seed=seed)
            params = init_params(separable_encoder(vocab), 3, seed)
            best, log = pretrain(params, train_enc, val_enc, cfg)
            accs.append(known_accuracy(best, val_enc, 8, known_only=True))
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
        best_acc = known_accuracy(best, val_enc, 8, known_only=True)
        assert best_acc == pytest.approx(max(r.val_known_acc for r in log.records), abs=1e-12)

    def test_empty_sets_rejected(self):
        vocab, train_enc, val_enc = separable_sets()
        empty = EncodedDataset(
            tokens=train_enc.tokens[:0],
            lengths=train_enc.lengths[:0],
            class_ids=train_enc.class_ids[:0],
        )
        params = init_params(separable_encoder(vocab), 3, seed=0)
        cfg = TrainConfig(max_epochs=1)
        with pytest.raises(DataError, match="empty training"):
            pretrain(params, empty, val_enc, cfg)
        with pytest.raises(DataError, match="empty validation"):
            pretrain(params, train_enc, empty, cfg)

    def test_out_of_range_labels_rejected(self):
        vocab, train_enc, val_enc = separable_sets()
        params = init_params(separable_encoder(vocab), 1, seed=0)  # M=1 but ids go to 3
        with pytest.raises(DataError, match="outside 1"):
            pretrain(params, train_enc, val_enc, TrainConfig(max_epochs=1))

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
        solo = EncodedDataset(
            tokens=train_enc.tokens[solo_idx],
            lengths=train_enc.lengths[solo_idx],
            class_ids=train_enc.class_ids[solo_idx],
        )
        params = init_params(separable_encoder(vocab), 3, seed=0)
        with pytest.raises(PairingError, match="2 distinct"):
            train_open(params, solo, val_enc, self.short_cfg())


class TestTwoStage:
    def test_end_to_end_improves_on_initialization(self):
        vocab, train_enc, val_enc = separable_sets()
        cfg = TrainConfig(lr=1e-2, batch_size=12, max_epochs=6, patience=6, seed=0)
        params = init_params(separable_encoder(vocab), 3, seed=0)
        before = known_accuracy(params, val_enc, 8, known_only=False)
        best, log = train_two_stage(params, train_enc, val_enc, cfg)
        after = known_accuracy(best, val_enc, 8, known_only=False)
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
    the workspace up), and at every mix layer. Without a workspace one
    pretrain step allocates about 13 MB and one open step 32-41 MB."""

    SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)
    M = 4

    def batch(self, seed, size=32, width=32):
        """A batch as the corpus cuts it: ``width`` columns, the longest row
        ``width`` tokens long."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, width + 1, size=size)
        lengths[0] = width
        tokens = rng.integers(3, 500, size=(size, width)).astype(np.int32)
        mask = (np.arange(width)[None, :] < lengths[:, None]).astype(np.float32)
        tokens *= mask.astype(np.int32)
        labels = rng.integers(1, self.M + 1, size=size).astype(np.int32)
        return Batch(tokens=tokens, mask=mask, labels=labels)

    def pair(self, seed, size=32, width=32):
        first, second = self.batch(seed, size, width), self.batch(seed + 1, size, width)
        second.labels = (first.labels % self.M + 1).astype(np.int32)
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
            _, dlogits = pretrain_loss(tape.logits, batch.labels, self.M)
            optimizer_step(params, tape.backward(dlogits), opt, 1e-3, 0.01)

        for seed, size, width in zip((1, 2, 3), (32, 16, 32), widths):
            step(self.batch(seed, size, width))
        batch = self.batch(4, width=widths[-1])
        return self.peak_bytes(lambda: step(batch))

    def open_peak(self, widths, layer) -> int:
        """The peak of an open step that mixes at block ``layer``."""
        params = self.params()
        opt = OptimizerState.for_params(params)
        ws = Workspace()

        def step(batch, pair, rng):
            mix_pass = NoisyMixupPass(params, batch, pair, TrainConfig(), rng, ws)
            _, dkl = kl_loss(soft_targets(batch.labels, self.M, 0.3), mix_pass.soft_logits)
            _, dopen = mixup_loss(mix_pass.logits)
            optimizer_step(params, mix_pass.backward(0.5 * dkl, 0.5 * dopen), opt, 1e-3, 0.01)

        depth = self.SHAPE["num_layers"]

        def mixing_at(layer):
            return np.random.default_rng(seed_for_layer(layer, depth))

        # mixing at the last block first runs every block on all stacked rows
        for seed, size, layer, width in zip((1, 3, 5), (32, 16, 32), (depth, 1, 1), widths):
            step(self.batch(seed, size, width), self.pair(seed + 10, size, width), mixing_at(layer))
        batch, pair, rng = self.batch(7, width=widths[-1]), self.pair(17, width=widths[-1]), mixing_at(layer)
        return self.peak_bytes(lambda: step(batch, pair, rng))

    def open_peaks(self, widths) -> dict[int, int]:
        """The open step's peak at every mix layer, each after the same warm-up."""
        return {layer: self.open_peak(widths, layer) for layer in range(1, self.SHAPE["num_layers"] + 1)}

    def test_pretrain_step(self):
        assert self.pretrain_peak(FULL_WIDTHS) <= 0.15e6

    def test_pretrain_step_at_ragged_widths(self):
        assert self.pretrain_peak(RAGGED_WIDTHS) <= 0.15e6

    def test_open_step(self):
        peaks = self.open_peaks(FULL_WIDTHS)
        assert max(peaks.values()) <= 0.25e6, peaks

    def test_open_step_at_ragged_widths(self):
        peaks = self.open_peaks(RAGGED_WIDTHS)
        assert max(peaks.values()) <= 0.25e6, peaks
