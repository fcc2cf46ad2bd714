"""Encoder forward semantics, invariances, and checkpoint serialization."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from snoic.augment import NoisyMixupPass
from snoic.corpus import Batch, PairedBatch
from snoic.encoder import (
    FRESH,
    LN_EPS,
    Block,
    EncoderConfig,
    EncoderParams,
    TapedForward,
    Workspace,
    forward,
    head_logits,
    init_params,
    load_checkpoint,
    param_spec,
    run_from_layer,
    run_to_layer,
    save_checkpoint,
)
from snoic.errors import CheckpointError, DataError, TrainingError
from snoic.trainer import TrainConfig
from gradcheck import seed_for_layer, tiny_batch, tiny_pair, tiny_params


def small_config(attention=True, **overrides):
    base = dict(vocab_size=30, hidden=16, num_layers=3, ffn=24, dim=12, max_len=8)
    base.update(overrides)
    return EncoderConfig(attention=attention, **base)


def random_batch(cfg, seed, size=5, m=4, min_len=1):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_len, cfg.max_len + 1, size=size)
    tokens = np.zeros((size, cfg.max_len), dtype=np.int32)
    for i, ln in enumerate(lengths):
        tokens[i, 0] = 2
        if ln > 1:
            tokens[i, 1:ln] = rng.integers(3, cfg.vocab_size, size=ln - 1)
    mask = (np.arange(cfg.max_len)[None, :] < lengths[:, None]).astype(np.float32)
    labels = rng.integers(1, m + 1, size=size).astype(np.int32)
    return Batch(tokens=tokens, mask=mask, labels=labels)


class TestParamSpec:
    def test_canonical_order_starts_and_ends(self):
        names = [n for n, _, _ in param_spec(small_config(), 4)]
        assert names[0] == "token_embedding"
        assert names[1] == "position_embedding"
        assert names[-4:] == ["dense_w", "dense_b", "head_w", "head_b"]

    def test_head_shape_is_m_plus_one(self):
        spec = {n: s for n, s, _ in param_spec(small_config(), 6)}
        assert spec["head_w"] == (12, 7)
        assert spec["head_b"] == (7,)

    def test_attention_variant_has_attention_tensors(self):
        names = [n for n, _, _ in param_spec(small_config(attention=True), 2)]
        assert "layers.0.attn_q" in names
        assert "layers.2.norm1_gain" in names

    def test_no_attention_variant_drops_them(self):
        names = [n for n, _, _ in param_spec(small_config(attention=False), 2)]
        assert not any("attn" in n or "norm1" in n for n in names)
        assert "layers.0.ffn_w1" in names

    def test_m_lower_bound(self):
        with pytest.raises(DataError):
            param_spec(small_config(), 0)


class TestInit:
    def test_deterministic_per_seed(self):
        cfg = small_config()
        a = init_params(cfg, 3, seed=7)
        b = init_params(cfg, 3, seed=7)
        assert all(np.array_equal(a[n], b[n]) for n in a.names())

    def test_seeds_differ(self):
        cfg = small_config()
        a = init_params(cfg, 3, seed=1)
        b = init_params(cfg, 3, seed=2)
        assert not np.array_equal(a["token_embedding"], b["token_embedding"])

    def test_weights_within_glorot_bound(self):
        cfg = small_config()
        p = init_params(cfg, 3, seed=0)
        for name, shape, kind in param_spec(cfg, 3):
            if kind != "weight":
                continue
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            assert np.all(np.abs(p[name]) <= bound)

    def test_biases_zero_gains_one(self):
        cfg = small_config()
        p = init_params(cfg, 3, seed=0)
        for name, _, kind in param_spec(cfg, 3):
            if kind == "bias":
                assert np.all(p[name] == 0.0)
            elif kind == "gain":
                assert np.all(p[name] == 1.0)

    def test_float32_storage(self):
        p = init_params(small_config(), 3, seed=0)
        assert all(p[n].dtype == np.float32 for n in p.names())

    def test_config_validation(self):
        with pytest.raises(DataError):
            EncoderConfig(vocab_size=2)
        with pytest.raises(DataError):
            EncoderConfig(vocab_size=10, num_layers=0)
        with pytest.raises(DataError):
            EncoderConfig(vocab_size=10, max_len=1)

    @pytest.mark.parametrize("key, value", [("hidden", "4"), ("hidden", 4.0), ("ffn", True), ("attention", 1)])
    def test_config_rejects_wrong_types(self, key, value):
        with pytest.raises(DataError, match=key):
            EncoderConfig(vocab_size=10, **{key: value})

    def test_config_dict_round_trip(self):
        cfg = small_config(attention=False)
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="unknown encoder config keys"):
            EncoderConfig.from_dict({"vocab_size": 10, "heads": 4})
        with pytest.raises(DataError, match="missing"):
            EncoderConfig.from_dict({"hidden": 8})


class TestForward:
    @pytest.mark.parametrize("attention", [True, False])
    def test_output_shapes(self, attention):
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=0)
        batch = random_batch(cfg, 1)
        e, logits = forward(p, batch)
        assert e.shape == (5, cfg.dim)
        assert logits.shape == (5, 5)

    def test_representation_is_non_negative(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=0)
        e, _ = forward(p, random_batch(cfg, 2))
        assert np.all(e >= 0.0)

    @pytest.mark.parametrize("attention", [True, False])
    def test_cut_and_resume_composes_to_full_pass(self, attention):
        """Splitting at any block boundary reproduces the full forward."""
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=3)
        batch = random_batch(cfg, 4)
        e_full, logits_full = forward(p, batch)
        for rl in range(0, cfg.num_layers + 1):
            h = run_to_layer(p, batch.tokens, batch.mask, rl)
            e = run_from_layer(p, h, batch.mask, rl)
            assert np.allclose(e, e_full, atol=1e-6)
            assert np.allclose(head_logits(p, e), logits_full, atol=1e-6)

    def test_layer_zero_is_masked_embeddings(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=5)
        batch = random_batch(cfg, 6)
        h = run_to_layer(p, batch.tokens, batch.mask, 0)
        t = batch.tokens.shape[1]
        expected = (
            p["token_embedding"][batch.tokens] + p["position_embedding"][None, :t, :]
        ) * batch.mask[:, :, None]
        assert np.allclose(h, expected, atol=1e-7)

    @pytest.mark.parametrize("attention", [True, False])
    def test_padded_positions_stay_zero(self, attention):
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=7)
        batch = random_batch(cfg, 8, min_len=2)
        for rl in range(0, cfg.num_layers + 1):
            h = run_to_layer(p, batch.tokens, batch.mask, rl)
            assert np.all(h[batch.mask == 0.0] == 0.0)

    @pytest.mark.parametrize("attention", [True, False])
    def test_trailing_padding_is_inert(self, attention):
        """Extra pad columns beyond every real token change nothing."""
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=9)
        narrow = random_batch(small_config(attention=attention, max_len=5), 10)
        extra = cfg.max_len - 5
        wide = Batch(
            tokens=np.pad(narrow.tokens, ((0, 0), (0, extra))),
            mask=np.pad(narrow.mask, ((0, 0), (0, extra))),
            labels=narrow.labels,
        )
        e1, logits1 = forward(p, narrow)
        e2, logits2 = forward(p, wide)
        assert np.allclose(e1, e2, atol=1e-6)
        assert np.allclose(logits1, logits2, atol=1e-6)

    def test_row_permutation_equivariance(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=11)
        batch = random_batch(cfg, 12, size=7)
        perm = np.random.default_rng(0).permutation(7)
        shuffled = Batch(
            tokens=batch.tokens[perm], mask=batch.mask[perm], labels=batch.labels[perm]
        )
        e1, logits1 = forward(p, batch)
        e2, logits2 = forward(p, shuffled)
        assert np.allclose(e1[perm], e2, atol=1e-6)
        assert np.allclose(logits1[perm], logits2, atol=1e-6)

    def test_single_token_row_pools_to_itself(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=13)
        batch = random_batch(cfg, 14, size=4)
        # Row 0 keeps only its CLS token.
        batch.mask[0, 1:] = 0.0
        batch.tokens[0, 1:] = 0
        h = run_to_layer(p, batch.tokens, batch.mask, cfg.num_layers)
        pooled_row = h[0, 0]
        e = run_from_layer(p, h, batch.mask, cfg.num_layers)
        expected = np.maximum(pooled_row @ p["dense_w"] + p["dense_b"], 0.0)
        assert np.allclose(e[0], expected, atol=1e-6)

    def test_zeroed_head_gives_uniform_scores(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=15)
        p.tensors["head_w"][:] = 0.0
        p.tensors["head_b"][:] = 0.0
        _, logits = forward(p, random_batch(cfg, 16))
        assert np.all(logits == 0.0)

    def test_resume_layer_out_of_range(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=17)
        batch = random_batch(cfg, 18)
        with pytest.raises(DataError, match="out of range"):
            run_to_layer(p, batch.tokens, batch.mask, cfg.num_layers + 1)
        with pytest.raises(DataError, match="out of range"):
            run_to_layer(p, batch.tokens, batch.mask, -1)

    def test_all_padding_row_rejected_at_pooling(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=19)
        batch = random_batch(cfg, 20, size=3)
        batch.mask[1, :] = 0.0
        with pytest.raises(DataError, match="zero real tokens"):
            forward(p, batch)

    def test_sequence_longer_than_max_len_rejected(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=21)
        tokens = np.full((1, cfg.max_len + 1), 2, dtype=np.int32)
        mask = np.ones((1, cfg.max_len + 1), dtype=np.float32)
        with pytest.raises(DataError, match="max_len"):
            run_to_layer(p, tokens, mask, 0)


class TestStraightLineReference:
    def test_no_attention_block_matches_definition(self):
        """Hand-set weights through an independently coded forward pass."""
        cfg = EncoderConfig(
            vocab_size=4, hidden=2, num_layers=1, ffn=2, dim=2, max_len=2, attention=False
        )
        p = init_params(cfg, 1, seed=0)
        p.tensors["token_embedding"][:] = [[0, 0], [0, 0], [0.5, -0.5], [1.0, 2.0]]
        p.tensors["position_embedding"][:] = [[0.1, 0.1], [-0.1, 0.2]]
        p.tensors["layers.0.ffn_w1"][:] = np.eye(2)
        p.tensors["layers.0.ffn_b1"][:] = 0.0
        p.tensors["layers.0.ffn_w2"][:] = 0.5 * np.eye(2)
        p.tensors["layers.0.ffn_b2"][:] = 0.1
        p.tensors["dense_w"][:] = np.eye(2)
        p.tensors["dense_b"][:] = [0.0, -1.0]
        batch = Batch(
            tokens=np.array([[2, 3]], dtype=np.int32),
            mask=np.ones((1, 2), dtype=np.float32),
            labels=np.array([1], dtype=np.int32),
        )

        h = np.array([[0.5 + 0.1, -0.5 + 0.1], [1.0 - 0.1, 2.0 + 0.2]])
        r = np.maximum(h, 0.0)
        s = h + r @ (0.5 * np.eye(2)) + 0.1
        mu = s.mean(axis=-1, keepdims=True)
        var = ((s - mu) ** 2).mean(axis=-1, keepdims=True)
        n = (s - mu) / np.sqrt(var + LN_EPS)
        pooled = n.mean(axis=0)
        expected = np.maximum(pooled + np.array([0.0, -1.0]), 0.0)

        e, _ = forward(p, batch)
        assert np.allclose(e[0], expected, atol=1e-6)


BENCH_SHAPE = dict(hidden=32, num_layers=2, ffn=64, dim=32, max_len=16)
DEFAULT_SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)


class TestUntapedPass:
    """forward keeps no tape and works in place, through the same blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("shape", [BENCH_SHAPE, DEFAULT_SHAPE], ids=["H32", "H64"])
    def test_logits_equal_taped_logits(self, shape, attention, dtype):
        cfg = EncoderConfig(vocab_size=40, attention=attention, **shape)
        p = init_params(cfg, 4, seed=31).astype(dtype)
        batch = random_batch(cfg, 32, size=24)
        _, logits = forward(p, batch)
        assert logits.dtype == dtype
        assert np.array_equal(logits, TapedForward(p, batch).logits)

    @pytest.mark.parametrize("attention", [True, False])
    def test_runners_leave_their_inputs_unchanged(self, attention):
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=33)
        batch = random_batch(cfg, 34)
        tokens, mask = batch.tokens.copy(), batch.mask.copy()
        h = run_to_layer(p, batch.tokens, batch.mask, 1)
        assert np.array_equal(batch.tokens, tokens) and batch.mask.tobytes() == mask.tobytes()
        for start in (1, cfg.num_layers):
            h_before = h.tobytes()
            run_from_layer(p, h, batch.mask, start)
            assert h.tobytes() == h_before
            assert batch.mask.tobytes() == mask.tobytes()

    @pytest.mark.parametrize("attention", [True, False])
    def test_trimmed_batch_matches_full_width(self, attention):
        """A batch cut to its longest row, as the corpus batches are, gives
        the representations and logits of the same rows at max_len."""
        cfg = EncoderConfig(vocab_size=40, attention=attention, **DEFAULT_SHAPE)
        p = init_params(cfg, 4, seed=37)
        rng = np.random.default_rng(38)
        lengths = rng.integers(2, 11, size=32)
        full = Batch(
            tokens=rng.integers(3, cfg.vocab_size, size=(32, cfg.max_len)).astype(np.int32),
            mask=(np.arange(cfg.max_len)[None, :] < lengths[:, None]).astype(np.float32),
            labels=np.ones(32, dtype=np.int32),
        )
        full.tokens[full.mask == 0] = 0
        width = lengths.max()
        trimmed = Batch(tokens=full.tokens[:, :width], mask=full.mask[:, :width], labels=full.labels)
        for got, want in zip(forward(p, trimmed), forward(p, full)):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    def test_default_shape_peak_memory(self):
        """One 128-row default-shape pass allocates at most 8 MB at a time;
        with every block cache built and dropped it took over 30 MB."""
        cfg = EncoderConfig(vocab_size=500, **DEFAULT_SHAPE)
        p = init_params(cfg, 4, seed=35)
        batch = random_batch(cfg, 36, size=128)
        forward(p, batch)
        tracemalloc.start()
        try:
            forward(p, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestWorkspace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("attention", [True, False])
    def test_reused_workspace_matches_fresh_tape(self, attention, dtype):
        """Full, tail and full batches again: each pass recorded into one
        workspace gives the logits and gradients of a fresh pass."""
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=37).astype(dtype)
        ws = Workspace()
        for size, seed in ((8, 38), (3, 39), (8, 40)):
            batch = random_batch(cfg, seed, size=size)
            fresh = TapedForward(p, batch)
            reused = TapedForward(p, batch, ws)
            assert np.array_equal(reused.logits, fresh.logits)
            dlogits = np.random.default_rng(seed).standard_normal(fresh.logits.shape).astype(dtype)
            want, got = fresh.backward(dlogits), reused.backward(dlogits)
            assert got.layout == want.layout == p.layout
            for name in p.names():
                assert got[name].dtype == dtype and np.array_equal(got[name], want[name]), name

    def test_take_reuses_and_grows(self):
        ws = Workspace()
        a = ws.take("x", (4, 3), np.dtype(np.float32))
        b = ws.take("x", (2, 3), np.dtype(np.float32))
        assert b.base is a.base and b.flags.c_contiguous
        c = ws.take("x", (5, 3), np.dtype(np.float32))
        assert c.base is not a.base and c.shape == (5, 3)
        assert ws.take("x", (5, 3), np.dtype(np.float64)).dtype == np.float64

    def test_out_of_vocabulary_token_rejected(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=41)
        batch = random_batch(cfg, 42)
        batch.tokens[0, 0] = cfg.vocab_size
        with pytest.raises(DataError, match="token ids"):
            forward(p, batch)


class TestParamLayout:
    """EncoderParams: named views into one flat buffer, in param_spec order."""

    @pytest.mark.parametrize("attention", [True, False])
    def test_tensors_view_one_buffer_in_spec_order(self, attention):
        cfg = small_config(attention=attention)
        p = init_params(cfg, 4, seed=51)
        assert p.flat.flags.c_contiguous and p.flat.ndim == 1
        spec = param_spec(cfg, 4)
        assert p.names() == [name for name, _, _ in spec]
        base = p.flat.ctypes.data
        offset = 0
        for name, shape, _ in spec:
            t = p[name]
            assert t.shape == shape and t.base is p.flat, name
            assert t.ctypes.data == base + offset * p.flat.itemsize, name
            offset += t.size
        assert offset == p.flat.size

    def test_constructor_packs_a_dict(self):
        w, b = np.arange(4.0).reshape(2, 2), np.ones(3)
        p = EncoderParams(small_config(), 1, {"w": w, "b": b})
        assert np.array_equal(p.flat, [0.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        assert p.layout == {"w": (0, 4, (2, 2)), "b": (4, 7, (3,))}
        assert not np.shares_memory(p["w"], w)
        p["w"][1, 1] = 9.0
        assert p.flat[3] == 9.0 and w[1, 1] == 3.0

    def test_copy_is_independent(self):
        p = init_params(small_config(), 4, seed=52)
        before = p.flat.copy()
        q = p.copy()
        assert q.layout == p.layout and all(q[n].base is q.flat for n in q.names())
        q.flat += 1.0
        q.tensors["dense_w"][0, 0] = 7.0
        assert np.array_equal(p.flat, before)
        assert q.flat[q.layout["dense_w"][0]] == 7.0

    def test_tensors_cannot_be_rebound(self):
        """Rebinding a name would detach it from ``flat``; only in-place writes are allowed."""
        p = init_params(small_config(), 4, seed=53)
        with pytest.raises(TypeError):
            p.tensors["dense_w"] = np.zeros_like(p["dense_w"])
        with pytest.raises(TypeError):
            del p.tensors["dense_w"]
        p.tensors["dense_w"][:] = 2.0
        start, stop, _ = p.layout["dense_w"]
        assert np.all(p.flat[start:stop] == 2.0)

    def test_astype_keeps_layout(self):
        """Perturbing a float64 copy's tensor in place moves its flat buffer,
        which is what the gradient check's probes rely on."""
        p = init_params(small_config(), 4, seed=53)
        q = p.astype(np.float64)
        assert q.flat.dtype == np.float64 and q.flat.flags.c_contiguous
        assert q.layout == p.layout and q.names() == p.names()
        assert np.array_equal(q.flat, p.flat)
        start = q.layout["layers.1.ffn_w2"][0]
        q.tensors["layers.1.ffn_w2"][0, 1] += 0.5
        shift = q.flat - p.flat
        assert shift[start + 1] == 0.5 and np.count_nonzero(shift) == 1


def _reloaded(p, tmp_path):
    save_checkpoint(p, str(tmp_path / "m.ckpt"))
    return load_checkpoint(str(tmp_path / "m.ckpt"))


def _workspace_grads(p, tmp_path):
    ws = Workspace()
    grads = ws.grads(p, ws.record())
    grads.flat.fill(0.0)  # np.empty storage, which may hold NaNs
    return grads


# every way an EncoderParams is made, from init_params' p and a scratch directory
PARAM_SOURCES = {
    "init_params": lambda p, tmp_path: p,
    "copy": lambda p, tmp_path: p.copy(),
    "astype": lambda p, tmp_path: p.astype(np.float64),
    "with_flat": lambda p, tmp_path: p.with_flat(np.zeros_like(p.flat)),
    "load_checkpoint": _reloaded,
    "workspace_grads": _workspace_grads,
}


class TestBlockViews:
    """``blocks``: one read-only record per block whose fields are the
    block's tensors, the same views into ``flat`` as the named ones."""

    @pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
    @pytest.mark.parametrize("source", list(PARAM_SOURCES))
    def test_fields_are_the_named_views(self, source, attention, tmp_path):
        q = PARAM_SOURCES[source](init_params(small_config(attention=attention), 4, seed=54), tmp_path)
        assert isinstance(q.blocks, tuple) and len(q.blocks) == q.cfg.num_layers == 3
        for i, block in enumerate(q.blocks):
            assert type(block) is Block
            for field, view in block._asdict().items():
                name = f"layers.{i}.{field}"
                if not attention and field.startswith(("attn_", "norm1_")):
                    assert view is None and name not in q.layout
                    continue
                start, stop, shape = q.layout[name]
                assert view.shape == shape and np.shares_memory(view, q[name]) and np.shares_memory(view, q.flat)
                want = q.flat.copy()
                want[start:stop] = i + 0.5
                view[...] = i + 0.5
                assert np.array_equal(q.flat, want), name

    @pytest.mark.parametrize("source", list(PARAM_SOURCES))
    def test_fields_cannot_be_reassigned(self, source, tmp_path):
        q = PARAM_SOURCES[source](init_params(small_config(), 4, seed=55), tmp_path)
        block = q.blocks[1]
        with pytest.raises(AttributeError):
            block.ffn_w1 = np.zeros_like(block.ffn_w1)
        with pytest.raises(TypeError):
            block[0] = np.zeros_like(block.attn_q)
        assert block.ffn_w1 is q.blocks[1].ffn_w1 and np.shares_memory(block.ffn_w1, q.flat)


def narrow(batch, width=4):
    """The batch's first ``width`` columns, fewer than the tiny max_len."""
    return Batch(tokens=batch.tokens[:, :width], mask=batch.mask[:, :width], labels=batch.labels)


def record_pass(kind, p, seed, ws=FRESH):
    """Record one narrow pass into ``ws``; returns a function that runs its
    backward with unit output gradients."""
    batch = narrow(tiny_batch(seed))
    if kind == "taped":
        tape = TapedForward(p, batch, ws)
        return lambda: tape.backward(np.ones_like(tape.logits))
    layer = 1 if kind == "mix-first" else p.cfg.num_layers
    pair = tiny_pair(seed + 1)
    pair = PairedBatch(first=narrow(pair.first), second=narrow(pair.second))
    rng = np.random.default_rng(seed_for_layer(layer, p.cfg.num_layers, start=seed))
    mix = NoisyMixupPass(p, batch, pair, TrainConfig(), rng, ws)
    return lambda: mix.backward(np.ones_like(mix.soft_logits), np.ones_like(mix.logits))


PASS_KINDS = ["taped", "mix-first", "mix-last"]


class TestGradientBuffer:
    """A backward's gradients: ``p``'s layout over the workspace's gradient
    buffer, every range of which the backward writes."""

    @pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
    @pytest.mark.parametrize("kind", PASS_KINDS)
    def test_every_range_is_written(self, kind, attention):
        """A NaN-filled buffer comes back finite and equal to the first run,
        down to the position rows past the batch width."""
        p = tiny_params(attention, seed=7)
        backward = record_pass(kind, p, 80, Workspace())
        first = backward().copy()
        backward().flat.fill(np.nan)
        grads = backward()
        assert grads.layout == p.layout
        assert np.isfinite(grads.flat).all()
        assert np.array_equal(grads.flat, first.flat)
        assert np.all(grads["position_embedding"][4:] == 0.0)

    def test_views_are_built_once_per_workspace(self):
        p = tiny_params(True, seed=7)
        ws = Workspace()
        got = [record_pass(kind, p, 81 + k, ws)() for k, kind in enumerate(PASS_KINDS)]
        assert got[0] is got[1] is got[2]
        assert all(np.shares_memory(got[0][n], got[0].flat) for n in p.names())

    @pytest.mark.parametrize("kind", PASS_KINDS)
    @pytest.mark.parametrize("stale_kind", PASS_KINDS)
    def test_stale_tape_raises(self, stale_kind, kind):
        """Recording a pass overwrites the tape of the one before it in the
        same workspace; its backward raises instead of returning wrong
        gradients, and the newest tape's backward may run again."""
        p = tiny_params(True, seed=7)
        ws = Workspace()
        stale = record_pass(stale_kind, p, 84, ws)
        newest = record_pass(kind, p, 85, ws)
        with pytest.raises(TrainingError, match="stale tape"):
            stale()
        want = newest().copy()
        assert np.array_equal(newest().flat, want.flat)

    def test_fresh_tapes_never_go_stale(self):
        p = tiny_params(True, seed=7)
        first = record_pass("taped", p, 86)
        want = first().copy()
        record_pass("mix-last", p, 87)()
        assert np.array_equal(first().flat, want.flat)


class TestCheckpoint:
    def make(self, attention=True, m=3, seed=0):
        cfg = small_config(attention=attention)
        return init_params(cfg, m, seed=seed)

    def test_round_trip_preserves_values(self, tmp_path):
        p = self.make()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        loaded = load_checkpoint(path)
        assert loaded.M == p.M
        assert loaded.cfg == p.cfg
        for name in p.names():
            assert np.array_equal(loaded[name], p[name])

    def test_resave_is_byte_identical(self, tmp_path):
        p = self.make(attention=False)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(p, str(a))
        save_checkpoint(load_checkpoint(str(a)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_is_sorted_json_line(self, tmp_path):
        p = self.make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, str(path))
        header_line = path.read_bytes().split(b"\n", 1)[0]
        header = json.loads(header_line)
        assert header["dtype"] == "f32"
        assert header["M"] == 3
        assert header["names"] == p.names()

    def test_missing_newline_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"{}")
        with pytest.raises(CheckpointError, match="header terminator"):
            load_checkpoint(str(path))

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not json\nrest")
        with pytest.raises(CheckpointError, match="malformed header"):
            load_checkpoint(str(path))

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"names": []}\n')
        with pytest.raises(CheckpointError, match="header missing"):
            load_checkpoint(str(path))

    def test_unsupported_dtype_rejected(self, tmp_path):
        p = self.make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, str(path))
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        doc = json.loads(header)
        doc["dtype"] = "f64"
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="unsupported dtype"):
            load_checkpoint(str(path))

    def test_head_width_mismatch_names_width(self, tmp_path):
        """Tampering M makes the expected shapes disagree with the header."""
        p = self.make(m=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, str(path))
        blob = path.read_bytes()
        header, payload = blob.split(b"\n", 1)
        doc = json.loads(header)
        doc["M"] = 5
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="head width 6"):
            load_checkpoint(str(path))

    def test_truncated_payload_rejected(self, tmp_path):
        p = self.make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="payload"):
            load_checkpoint(str(path))

    def test_non_finite_tensor_rejected(self, tmp_path):
        p = self.make()
        p.tensors["dense_w"][0, 0] = np.nan
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        with pytest.raises(CheckpointError, match="non-finite values in tensor 'dense_w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, retype",
        [("hidden", str), ("hidden", float), ("num_layers", bool), ("attention", int),
         ("M", str), ("M", float), ("M", bool), ("config", list)],
    )
    def test_wrongly_typed_header_value_names_the_file(self, tmp_path, key, retype):
        """Each value is rewritten as an equal one of another type (True for
        the values 1), which fits the saved shapes."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_params(small_config(num_layers=1), 1, seed=0), str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        section = doc if key in doc else doc["config"]
        section[key] = retype(section[key])
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(str(path))

    def test_round_trip_is_byte_equal(self, tmp_path):
        p = self.make()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        loaded = load_checkpoint(path)
        assert loaded.flat.dtype == np.float32 and loaded.flat.flags.writeable
        assert loaded.flat.tobytes() == p.flat.tobytes()
        assert loaded.layout == p.layout

    def test_loading_preserves_forward_behavior(self, tmp_path):
        cfg = small_config()
        p = init_params(cfg, 4, seed=31)
        batch = random_batch(cfg, 32)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(p, path)
        _, logits1 = forward(p, batch)
        _, logits2 = forward(load_checkpoint(path), batch)
        assert np.array_equal(logits1, logits2)
