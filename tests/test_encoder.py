"""Encoder forward semantics, invariances, and checkpoint serialization."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from snoic import encoder
from snoic.augment import NoisyMixupPass
from snoic.corpus import Batch, PairedBatch
from snoic.encoder import (
    ATTN_MASK_VALUE,
    FRESH,
    LN_EPS,
    WGRAD_ROWS,
    Block,
    EncoderConfig,
    EncoderParams,
    Packing,
    TapedForward,
    Workspace,
    _attention_backward,
    _attention_forward,
    _pool_forward,
    backward_to_layer,
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
from gradcheck import (
    attention_on,
    packing,
    prefix_mask,
    real_of,
    seed_for_layer,
    tiny_batch,
    tiny_pair,
    tiny_params,
    unpacked,
    zero_topped,
)


def small_config(**overrides):
    base = dict(vocab_size=30, hidden=16, num_layers=3, ffn=24, dim=12, max_len=8)
    base.update(overrides)
    return EncoderConfig(**base)


def random_batch(cfg, seed, size=5, m=4, min_len=1):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_len, cfg.max_len + 1, size=size).astype(np.int32)
    tokens = np.zeros((size, cfg.max_len), dtype=np.int32)
    for i, ln in enumerate(lengths):
        tokens[i, 0] = 2
        if ln > 1:
            tokens[i, 1:ln] = rng.integers(3, cfg.vocab_size, size=ln - 1)
    labels = rng.integers(1, m + 1, size=size).astype(np.int32)
    return Batch(tokens=tokens, lengths=lengths, class_ids=labels)


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
        names = [n for n, _, _ in param_spec(small_config(), 2)]
        assert "layers.0.attn_q" in names
        assert "layers.2.norm1_gain" in names

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

    @pytest.mark.parametrize("key, value", [("hidden", "4"), ("hidden", 4.0), ("ffn", True)])
    def test_config_rejects_wrong_types(self, key, value):
        with pytest.raises(DataError, match=key):
            EncoderConfig(vocab_size=10, **{key: value})

    def test_config_dict_round_trip(self):
        cfg = small_config()
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DataError, match="unknown encoder config keys"):
            EncoderConfig.from_dict({"vocab_size": 10, "heads": 4})
        with pytest.raises(DataError, match="missing"):
            EncoderConfig.from_dict({"hidden": 8})


class TestForward:
    @attention_on()
    def test_output_shapes(self, attention):
        cfg = small_config()
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

    @attention_on()
    def test_cut_and_resume_composes_to_full_pass(self, attention):
        """Splitting at any block boundary reproduces the full forward."""
        cfg = small_config()
        p = init_params(cfg, 4, seed=3)
        batch = random_batch(cfg, 4)
        e_full, logits_full = forward(p, batch)
        pk = packing(batch, p.flat.dtype)
        for rl in range(0, cfg.num_layers + 1):
            h = run_to_layer(p, batch.tokens, pk, rl)
            assert h.shape == (int(batch.lengths.sum()), cfg.hidden)
            e = run_from_layer(p, h, pk, rl)
            assert np.allclose(e, e_full, atol=1e-6)
            assert np.allclose(head_logits(p, e), logits_full, atol=1e-6)

    def test_layer_zero_is_masked_embeddings(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=5)
        batch = random_batch(cfg, 6)
        h = run_to_layer(p, batch.tokens, packing(batch, p.flat.dtype), 0)
        t = batch.tokens.shape[1]
        expected = p["token_embedding"][batch.tokens] + p["position_embedding"][None, :t, :]
        assert np.allclose(h, expected[real_of(batch)], atol=1e-7)

    @attention_on()
    def test_trailing_padding_is_inert(self, attention):
        """Extra pad columns beyond every real token change nothing."""
        cfg = small_config()
        p = init_params(cfg, 4, seed=9)
        narrow = random_batch(small_config(max_len=5), 10)
        extra = cfg.max_len - 5
        wide = Batch(
            tokens=np.pad(narrow.tokens, ((0, 0), (0, extra))),
            lengths=narrow.lengths,
            class_ids=narrow.class_ids,
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
            tokens=batch.tokens[perm], lengths=batch.lengths[perm], class_ids=batch.class_ids[perm]
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
        batch.lengths[0] = 1
        batch.tokens[0, 1:] = 0
        pk = packing(batch, p.flat.dtype)
        h = run_to_layer(p, batch.tokens, pk, cfg.num_layers)
        pooled_row = h[0]  # row 0's one real token is the first packed row
        e = run_from_layer(p, h, pk, cfg.num_layers)
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
        pk = packing(batch, p.flat.dtype)
        h = run_to_layer(p, batch.tokens, pk, 1)
        for rl in (cfg.num_layers + 1, -1):
            with pytest.raises(DataError, match="out of range"):
                run_to_layer(p, batch.tokens, pk, rl)
            with pytest.raises(DataError, match="out of range"):
                run_from_layer(p, h, pk, rl)

    def test_arrays_that_do_not_match_their_packing_rejected(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=17)
        batch = random_batch(cfg, 18)
        pk = packing(batch, p.flat.dtype)
        with pytest.raises(DataError, match="do not match"):
            run_to_layer(p, batch.tokens[:, :-1], pk, 1)
        h = run_to_layer(p, batch.tokens, pk, 1)
        with pytest.raises(DataError, match="do not match"):
            run_from_layer(p, h[1:], pk, 1)

    def test_all_padding_row_rejected_at_pooling(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=19)
        batch = random_batch(cfg, 20, size=3)
        batch.lengths[1] = 0
        with pytest.raises(DataError, match="zero real tokens"):
            forward(p, batch)

    def test_sequence_longer_than_max_len_rejected(self):
        cfg = small_config()
        p = init_params(cfg, 4, seed=21)
        tokens = np.full((1, cfg.max_len + 1), 2, dtype=np.int32)
        with pytest.raises(DataError, match="max_len"):
            run_to_layer(p, tokens, Packing([cfg.max_len + 1], cfg.max_len + 1, p.flat.dtype), 0)


def reference_packing(lengths, t, dtype):
    """What a packing of ``lengths`` at width ``t`` holds, worked out from
    the prefix mask of real positions."""
    real = prefix_mask(lengths, t)
    idx = np.flatnonzero(real)
    pos = np.zeros(real.size, np.intp)
    pos[idx] = np.arange(1, idx.size + 1)
    seq, col = np.nonzero(real)
    bias = np.where(real, 0.0, ATTN_MASK_VALUE).astype(dtype)[:, None, :]
    return dict(idx=idx, pos=pos, seq=seq, col=col, counts=real.sum(axis=1).astype(dtype), bias=bias)


# each takes a batch's lengths and width
BAD_LENGTHS = {
    "float": lambda lengths, t: lengths.astype(np.float32),
    "negative": lambda lengths, t: np.concatenate([[-1], lengths[1:]]),
    "too long": lambda lengths, t: np.concatenate([[t + 1], lengths[1:]]),
    "wrong count": lambda lengths, t: lengths[:-1],
}


def random_lengths(n, t):
    """n lengths in 0..t, an empty and a full row among them."""
    rng = np.random.default_rng(n * t)
    lengths = rng.integers(0, t + 1, size=n)
    lengths[: min(n, 2)] = (0, t)[: min(n, 2)]
    rng.shuffle(lengths)
    return lengths.tolist()


RANDOM_SHAPES = [(32, 9), (96, 12), (128, 10), (128, 32), (5, 3), (0, 4)]


class TestPacking:
    """A packing is built from row lengths and a width; the positions of
    each row's first ``lengths[i]`` columns are its real tokens."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "lengths, t",
        [([3, 5, 1, 0, 2], 5), ([4, 4, 4], 4), ([1, 1], 6), ([0, 2, 0], 3)]
        + [(random_lengths(n, t), t) for n, t in RANDOM_SHAPES],
        ids=["ragged", "full-width", "one-token", "zero-length"] + [f"random-{n}x{t}" for n, t in RANDOM_SHAPES],
    )
    def test_equals_the_prefix_mask_reference(self, lengths, t, dtype):
        lengths = np.array(lengths, np.int32)
        want = reference_packing(lengths, t, dtype)
        ws = Workspace()
        Packing(np.full(len(lengths) + 2, t), t, dtype, ws)  # a wider pass leaves every buffer full
        for pk in (Packing(lengths, t, dtype), Packing(lengths, t, dtype, ws)):
            assert pk.shape == (len(lengths), t) and pk.positions == lengths.size * t and pk.rows == lengths.sum()
            for name, value in want.items():
                got = getattr(pk, name)
                assert got.dtype == value.dtype and got.shape == value.shape and np.array_equal(got, value), name

    @pytest.mark.parametrize("bad", list(BAD_LENGTHS))
    @pytest.mark.parametrize("entry", ["forward", "run_to_layer", "run_from_layer"])
    def test_bad_lengths_rejected(self, entry, bad):
        cfg = small_config()
        p = init_params(cfg, 4, seed=23)
        batch = random_batch(cfg, 24)
        t = batch.tokens.shape[1]
        lengths = BAD_LENGTHS[bad](batch.lengths, t)
        h = run_to_layer(p, batch.tokens, packing(batch, p.flat.dtype), 1)
        with pytest.raises(DataError):
            if entry == "forward":
                forward(p, Batch(tokens=batch.tokens, lengths=lengths, class_ids=batch.class_ids))
            elif entry == "run_to_layer":
                run_to_layer(p, batch.tokens, Packing(lengths, t, p.flat.dtype), 1)
            else:
                run_from_layer(p, h, Packing(lengths, t, p.flat.dtype), 1)


class TestStraightLineReference:
    def test_no_attention_block_matches_definition(self):
        """Hand-set weights through an independently coded forward pass.

        A zero output projection silences attention, whatever its other
        weights, so the block is its first layer norm and then the
        feed-forward sublayer.
        """
        cfg = EncoderConfig(vocab_size=4, hidden=2, num_layers=1, ffn=2, dim=2, max_len=2)
        p = init_params(cfg, 1, seed=0)
        p.tensors["token_embedding"][:] = [[0, 0], [0, 0], [0.5, -0.5], [1.0, 2.0]]
        p.tensors["position_embedding"][:] = [[0.1, 0.1], [-0.1, 0.2]]
        p.tensors["layers.0.attn_out"][:] = 0.0
        p.tensors["layers.0.norm1_gain"][:] = 1.0
        p.tensors["layers.0.norm1_bias"][:] = 0.0
        p.tensors["layers.0.ffn_w1"][:] = np.eye(2)
        p.tensors["layers.0.ffn_b1"][:] = 0.0
        p.tensors["layers.0.ffn_w2"][:] = 0.5 * np.eye(2)
        p.tensors["layers.0.ffn_b2"][:] = 0.1
        p.tensors["dense_w"][:] = np.eye(2)
        p.tensors["dense_b"][:] = [0.0, -1.0]
        batch = Batch(
            tokens=np.array([[2, 3]], dtype=np.int32),
            lengths=np.array([2], dtype=np.int32),
            class_ids=np.array([1], dtype=np.int32),
        )

        def layernorm(x):
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(var + LN_EPS)

        h = layernorm(np.array([[0.5 + 0.1, -0.5 + 0.1], [1.0 - 0.1, 2.0 + 0.2]]))
        s = h + np.maximum(h, 0.0) @ (0.5 * np.eye(2)) + 0.1
        pooled = layernorm(s).mean(axis=0)
        expected = np.maximum(pooled + np.array([0.0, -1.0]), 0.0)

        e, _ = forward(p, batch)
        assert np.allclose(e[0], expected, atol=1e-6)

    def test_attention_block_matches_definition(self):
        """Hand-set weights through an independently coded forward pass.

        With zero query and key weights every score is 0, so attention is
        uniform over a row's real tokens; identity value and output weights
        make each real position's attention output the mean of the row's
        embeddings. The padded third position must not enter that mean.
        """
        cfg = EncoderConfig(vocab_size=4, hidden=3, num_layers=1, ffn=3, dim=3, max_len=3)
        p = init_params(cfg, 1, seed=0)
        p.tensors["token_embedding"][:] = [[0, 0, 0], [0, 0, 0], [0.5, -0.5, 0.2], [1.0, 2.0, -1.0]]
        p.tensors["position_embedding"][:] = [[0.1, 0.1, 0.0], [-0.1, 0.2, 0.3], [5.0, 5.0, 5.0]]
        p.tensors["layers.0.attn_q"][:] = 0.0
        p.tensors["layers.0.attn_k"][:] = 0.0
        p.tensors["layers.0.attn_v"][:] = np.eye(3)
        p.tensors["layers.0.attn_out"][:] = np.eye(3)
        p.tensors["layers.0.norm1_gain"][:] = [2.0, 0.5, 1.0]
        p.tensors["layers.0.norm1_bias"][:] = [0.1, -0.2, 0.0]
        p.tensors["layers.0.ffn_w1"][:] = np.eye(3)
        p.tensors["layers.0.ffn_b1"][:] = 0.0
        p.tensors["layers.0.ffn_w2"][:] = 0.5 * np.eye(3)
        p.tensors["layers.0.ffn_b2"][:] = 0.1
        p.tensors["dense_w"][:] = np.eye(3)
        p.tensors["dense_b"][:] = [0.0, -1.0, 0.5]
        batch = Batch(
            tokens=np.array([[2, 3, 0]], dtype=np.int32),
            lengths=np.array([2], dtype=np.int32),
            class_ids=np.array([1], dtype=np.int32),
        )

        def layernorm(x, gain, bias):
            mu = x.mean(axis=-1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
            return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias

        h = np.array([[0.5 + 0.1, -0.5 + 0.1, 0.2 + 0.0], [1.0 - 0.1, 2.0 + 0.2, -1.0 + 0.3]])
        n1 = layernorm(h + h.mean(axis=0), np.array([2.0, 0.5, 1.0]), np.array([0.1, -0.2, 0.0]))
        s2 = n1 + np.maximum(n1, 0.0) @ (0.5 * np.eye(3)) + 0.1
        pooled = layernorm(s2, 1.0, 0.0).mean(axis=0)
        expected = np.maximum(pooled + np.array([0.0, -1.0, 0.5]), 0.0)

        e, _ = forward(p, batch)
        assert np.allclose(e[0], expected, atol=1e-6)


BENCH_SHAPE = dict(hidden=32, num_layers=2, ffn=64, dim=32, max_len=16)
DEFAULT_SHAPE = dict(hidden=64, num_layers=4, ffn=128, dim=64, max_len=32)


class TestUntapedPass:
    """forward keeps no tape and works in place, through the same blocks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @attention_on()
    @pytest.mark.parametrize("shape", [BENCH_SHAPE, DEFAULT_SHAPE], ids=["H32", "H64"])
    def test_logits_equal_taped_logits(self, shape, attention, dtype):
        cfg = EncoderConfig(vocab_size=40, **shape)
        p = init_params(cfg, 4, seed=31).astype(dtype)
        batch = random_batch(cfg, 32, size=24)
        _, logits = forward(p, batch)
        assert logits.dtype == dtype
        assert np.array_equal(logits, TapedForward(p, batch).logits)

    @attention_on()
    def test_runners_leave_their_inputs_unchanged(self, attention):
        cfg = small_config()
        p = init_params(cfg, 4, seed=33)
        batch = random_batch(cfg, 34)
        tokens, lengths = batch.tokens.copy(), batch.lengths.copy()
        pk = packing(batch, p.flat.dtype)
        h = run_to_layer(p, batch.tokens, pk, 1)
        assert np.array_equal(batch.tokens, tokens) and batch.lengths.tobytes() == lengths.tobytes()
        for start in (1, cfg.num_layers):
            h_before = h.tobytes()
            run_from_layer(p, h, pk, start)
            assert h.tobytes() == h_before
            assert batch.lengths.tobytes() == lengths.tobytes()

    @attention_on()
    def test_trimmed_batch_matches_full_width(self, attention):
        """A batch cut to its longest row, as the corpus batches are, gives
        the representations and logits of the same rows at max_len."""
        cfg = EncoderConfig(vocab_size=40, **DEFAULT_SHAPE)
        p = init_params(cfg, 4, seed=37)
        rng = np.random.default_rng(38)
        lengths = rng.integers(2, 11, size=32).astype(np.int32)
        full = Batch(
            tokens=rng.integers(3, cfg.vocab_size, size=(32, cfg.max_len)).astype(np.int32),
            lengths=lengths,
            class_ids=np.ones(32, dtype=np.int32),
        )
        full.tokens[~real_of(full)] = 0
        trimmed = Batch(tokens=full.tokens[:, : lengths.max()], lengths=lengths, class_ids=full.class_ids)
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
    @attention_on()
    def test_reused_workspace_matches_fresh_tape(self, attention, dtype):
        """Full, tail and full batches again: each pass recorded into one
        workspace gives the logits and gradients of a fresh pass."""
        cfg = small_config()
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

    @attention_on()
    def test_tensors_view_one_buffer_in_spec_order(self, attention):
        cfg = small_config()
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
        cfg = small_config(num_layers=1)
        tensors = {name: np.full(shape, k, np.float64) for k, (name, shape, _) in enumerate(param_spec(cfg, 1))}
        p = EncoderParams(cfg, 1, tensors)
        assert p.flat.dtype == np.float64
        assert np.array_equal(p.flat, np.concatenate([t.ravel() for t in tensors.values()]))
        start, stop, shape = p.layout["dense_w"]
        assert shape == tensors["dense_w"].shape and stop - start == tensors["dense_w"].size
        assert not np.shares_memory(p["dense_w"], tensors["dense_w"])
        p["dense_w"][1, 1] = 99.0
        assert p.flat[start + shape[1] + 1] == 99.0 and tensors["dense_w"][1, 1] != 99.0

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

    @attention_on("attn")
    @pytest.mark.parametrize("source", list(PARAM_SOURCES))
    def test_fields_are_the_named_views(self, source, attention, tmp_path):
        q = PARAM_SOURCES[source](init_params(small_config(), 4, seed=54), tmp_path)
        assert isinstance(q.blocks, tuple) and len(q.blocks) == q.cfg.num_layers == 3
        for i, block in enumerate(q.blocks):
            assert type(block) is Block
            for field, view in block._asdict().items():
                name = f"layers.{i}.{field}"
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
    return Batch(tokens=batch.tokens[:, :width], lengths=np.minimum(batch.lengths, width), class_ids=batch.class_ids)


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

    @attention_on("attn")
    @pytest.mark.parametrize("kind", PASS_KINDS)
    def test_every_range_is_written(self, kind, attention):
        """A NaN-filled buffer comes back finite and equal to the first run,
        down to the position rows past the batch width."""
        p = tiny_params(seed=7)
        backward = record_pass(kind, p, 80, Workspace())
        first = backward().copy()
        backward().flat.fill(np.nan)
        grads = backward()
        assert grads.layout == p.layout
        assert np.isfinite(grads.flat).all()
        assert np.array_equal(grads.flat, first.flat)
        assert np.all(grads["position_embedding"][4:] == 0.0)

    def test_views_are_built_once_per_workspace(self):
        p = tiny_params(seed=7)
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
        p = tiny_params(seed=7)
        ws = Workspace()
        stale = record_pass(stale_kind, p, 84, ws)
        newest = record_pass(kind, p, 85, ws)
        with pytest.raises(TrainingError, match="stale tape"):
            stale()
        want = newest().copy()
        assert np.array_equal(newest().flat, want.flat)

    def test_fresh_tapes_never_go_stale(self):
        p = tiny_params(seed=7)
        first = record_pass("taped", p, 86)
        want = first().copy()
        record_pass("mix-last", p, 87)()
        assert np.array_equal(first().flat, want.flat)


def _stacked_transposed(args) -> bool:
    """Whether a matmul's operands pair a >= 3-D array with a 2-D one that is
    not C-contiguous, which numpy multiplies in its own loop instead of BLAS."""
    a, b = (np.asarray(arg) for arg in args[:2])
    return any(x.ndim >= 3 and y.ndim == 2 and not y.flags.c_contiguous for x, y in ((a, b), (b, a)))


class TestBackwardProducts:
    """No backward product at the default shape runs a stacked matmul with
    a transposed 2-D operand. The spy sees ``np.matmul`` calls, the form of
    every backward product with a 3-D operand; ``@`` appears only on 2-D
    arrays there."""

    def test_guard_sees_the_slow_form(self):
        x, w = np.ones((4, 3, 5)), np.ones((6, 5))
        assert _stacked_transposed((x, w.T)) and _stacked_transposed((w.T, x.swapaxes(1, 2)))
        assert not _stacked_transposed((x, np.ones((5, 6))))
        assert not _stacked_transposed((x.reshape(-1, 5), w.T))

    @pytest.mark.parametrize("kind", ["taped", "mix"])
    def test_backward_runs_no_stacked_transposed_product(self, kind, monkeypatch):
        cfg = EncoderConfig(vocab_size=500, **DEFAULT_SHAPE)
        p = init_params(cfg, 4, seed=93)
        batch = random_batch(cfg, 94, size=32)
        ws = Workspace()
        if kind == "taped":
            tape = TapedForward(p, batch, ws)
            backward = lambda: tape.backward(np.ones_like(tape.logits))
        else:
            first, second = random_batch(cfg, 95, size=32), random_batch(cfg, 96, size=32)
            second.class_ids = first.class_ids % 4 + 1
            pair = PairedBatch(first=first, second=second)
            mix = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(97), ws)
            backward = lambda: mix.backward(np.ones_like(mix.soft_logits), np.ones_like(mix.logits))
        calls, matmul = [], np.matmul

        def recording(*args, **kwargs):
            calls.append(_stacked_transposed(args))
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        backward()
        assert len(calls) > 6 * cfg.num_layers
        assert not any(calls)


class TestEmbedBackward:
    """The token-embedding gradient is the row scatter dtok[ids] += dh at real positions,
    bit for bit, whichever way ``_embed_backward`` runs it. The embedding
    stage alone (``run_to_layer`` at layer 0) and its backward run it on the
    packed real-token rows of a padded gradient's real positions."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ws", [FRESH, Workspace()], ids=["fresh", "workspace"])
    def test_token_gradient_equals_a_row_add_at(self, dtype, ws):
        cfg = small_config(vocab_size=6)
        p = init_params(cfg, 3, seed=98).astype(dtype)
        rng = np.random.default_rng(99)
        width = cfg.max_len - 3
        lengths = np.array([width, 2, 1, width - 1, 3, width])
        mask = prefix_mask(lengths, width).astype(dtype)
        # six rows over a six-token vocabulary: every id repeats, PAD columns included
        tokens = rng.integers(1, cfg.vocab_size, size=mask.shape).astype(np.int32) * mask.astype(np.int32)
        dh = rng.standard_normal(mask.shape + (cfg.hidden,)).astype(dtype)
        grads = p.with_flat(np.full_like(p.flat, np.nan))
        want = np.zeros_like(p["token_embedding"])
        np.add.at(want, tokens.reshape(-1), (dh * mask[:, :, None]).reshape(-1, cfg.hidden))
        for _ in range(2):  # a second call into a used workspace
            cache: dict = {}
            run_to_layer(p, tokens, Packing(lengths, width, dtype, ws), 0, cache)
            backward_to_layer(p, cache, zero_topped(dh[mask > 0]), grads)
            assert grads["token_embedding"].dtype == dtype
            assert np.array_equal(grads["token_embedding"], want)
        assert np.array_equal(grads["position_embedding"][:width], (dh * mask[:, :, None]).sum(axis=0))
        assert not grads["position_embedding"][width:].any()


ATTENTION = ("attn_q", "attn_k", "attn_v", "attn_out")


def plain_attention(w, h, lengths, dout):
    """The attention sublayer as four projections, sequence by sequence in
    float64: q, k, v = h Wq, h Wk, h Wv, then softmax(q k^T / sqrt(H)) v Wo
    over the sequence's real tokens, which is what the padding bias leaves.
    Returns the output, and under the output gradient ``dout`` the input
    gradient and the four weight gradients."""
    wq, wk, wv, wo = (getattr(w, name).astype(np.float64) for name in ATTENTION)
    h, dout = h.astype(np.float64), dout.astype(np.float64)
    scale = 1.0 / math.sqrt(h.shape[1])
    out, dh = np.empty_like(h), np.empty_like(h)
    dw = [np.zeros_like(wq) for _ in ATTENTION]
    for stop, length in zip(np.cumsum(lengths), lengths):
        rows = slice(stop - length, stop)
        x, dy = h[rows], dout[rows]
        q, k, v = x @ wq, x @ wk, x @ wv
        scores = q @ k.T * scale
        att = np.exp(scores - scores.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        ctx = att @ v
        out[rows] = ctx @ wo
        dctx = dy @ wo.T
        datt = dctx @ v.T
        dscores = att * (datt - (datt * att).sum(axis=1, keepdims=True)) * scale
        dq, dk, dv = dscores @ k, dscores.T @ q, att.T @ dctx
        for grad, d in zip(dw, (dq, dk, dv)):
            grad += x.T @ d
        dw[3] += ctx.T @ dy
        dh[rows] = dq @ wq.T + dk @ wk.T + dv @ wv.T
    return out, dh, dw


class TestFoldedAttention:
    """Attention runs in its bilinear form, u = h A and g = h B with
    A = Wq Wk^T / sqrt(H) and B = Wv Wo. On a ragged batch its output, its
    input gradient and the four weight gradients match the four-projection
    form, each to a tolerance relative to the reference array's largest
    entry: 1e-12 in float64, and in float32, against the float64 reference
    of the same float32 inputs, 2e-6, about 17 float32 ulps of 1."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 2e-6)], ids=["f64", "f32"])
    @pytest.mark.parametrize("shape", [BENCH_SHAPE, DEFAULT_SHAPE], ids=["H32", "H64"])
    def test_matches_the_four_projections(self, shape, dtype, tol):
        cfg = EncoderConfig(vocab_size=40, **shape)
        p = init_params(cfg, 4, seed=111).astype(dtype)
        i, t = 1, cfg.max_len
        rng = np.random.default_rng(112)
        lengths = np.concatenate([[t, 1, 2], rng.integers(1, t + 1, size=9)])
        pk = Packing(lengths, t, dtype, Workspace())
        h = rng.standard_normal((pk.rows, cfg.hidden)).astype(dtype)
        dout = rng.standard_normal(h.shape).astype(dtype)
        tape: dict = {}
        out = _attention_forward(p.blocks[i], i, h, pk, tape)
        grads = p.with_flat(np.full_like(p.flat, np.nan))
        dh = _attention_backward(p.blocks[i], grads.blocks[i], tape[i, "attn"], dout, pk)
        want_out, want_dh, want_dw = plain_attention(p.blocks[i], h, lengths, dout)
        got_dw = [getattr(grads.blocks[i], name) for name in ATTENTION]
        for name, got, want in [("out", out, want_out), ("dh", dh, want_dh), *zip(ATTENTION, got_dw, want_dw)]:
            assert got.dtype == dtype
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= tol, (name, err)


class TestWeightGradient:
    """A weight gradient x.T @ dy is summed over blocks of WGRAD_ROWS rows,
    at every row count: none, fewer than a block, a block exactly, a block
    and a row, and several blocks with a partial last one."""

    @pytest.mark.parametrize("rows", [0, 1, WGRAD_ROWS, WGRAD_ROWS + 1, 3 * WGRAD_ROWS + 37])
    def test_equals_the_plain_product(self, rows):
        rng = np.random.default_rng(rows)
        x, dy = rng.standard_normal((rows, 8)), rng.standard_normal((rows, 5))
        out = np.full((8, 5), np.nan)
        assert encoder._wgrad(x, dy, out, Workspace()) is out
        np.testing.assert_allclose(out, x.T @ dy, rtol=0, atol=1e-12 * max(rows, 1))


FFN = ("ffn_w1", "ffn_w2")


class TestPackedRows:
    """Token-wise sublayers run on the real tokens only: each of their GEMMs
    has one row per real token, and what sits at a padded position is never
    read."""

    CFG = EncoderConfig(vocab_size=40, **DEFAULT_SHAPE)

    def pair(self):
        first, second = random_batch(self.CFG, 102, size=12), random_batch(self.CFG, 103, size=12)
        second.class_ids = first.class_ids % 4 + 1
        return PairedBatch(first=first, second=second)

    def run(self, kind, p, batch, ws):
        """The logits of a pass of ``kind`` over ``batch``, and the pass (None
        for ``forward``, which keeps none)."""
        if kind == "forward":
            return forward(p, batch)[1], None
        if kind == "taped":
            tape = TapedForward(p, batch, ws)
            return tape.logits, tape
        mix = NoisyMixupPass(p, batch, self.pair(), TrainConfig(), np.random.default_rng(104), ws)
        return np.concatenate([mix.soft_logits, mix.logits]), mix

    @pytest.mark.parametrize("kind", ["forward", "taped", "mix"])
    def test_token_wise_products_see_only_real_tokens(self, kind, monkeypatch):
        """Per block, every product with a token-sized dimension has exactly
        the block's real tokens there: u = h A, g = h B and the feed-forward
        products x @ W forward, dy @ W.T backward, and the weight-gradient
        products x.T @ dy, which write a feed-forward weight's gradient or
        the gradient of A or B. A weight-gradient product is the sum of the
        products of consecutive blocks of at most WGRAD_ROWS of its rows,
        which cover them in order. The products that fold the attention
        weights into A and B, and the gradients of A and B back into them,
        multiply H x H matrices alone."""
        p = init_params(self.CFG, 4, seed=100)
        batch = random_batch(self.CFG, 101, size=12, min_len=2)
        calls, wgrads, matmul, wgrad = [], [], np.matmul, encoder._wgrad

        def recording(a, b, out=None):
            calls.append((a, b, out))  # held, so no array's address is reused during the pass
            return matmul(a, b, out=out)

        def blocked(x, dy, out, ws):
            first = len(calls)
            wgrad(x, dy, out, ws)
            wgrads.append((x, dy, out, calls[first:], first))  # its blocks, checked as parts of its sum
            del calls[first:]
            return out

        monkeypatch.setattr(np, "matmul", recording)
        monkeypatch.setattr(encoder, "_wgrad", blocked)
        logits, tape = self.run(kind, p, batch, Workspace())
        if kind == "taped":
            grads = tape.backward(np.ones_like(logits))
        elif kind == "mix":
            grads = tape.backward(np.ones_like(tape.soft_logits), np.ones_like(tape.logits))
        monkeypatch.undo()
        depth = self.CFG.num_layers
        assert len(wgrads) == (0 if kind == "forward" else 4 * depth + 2)
        for x, dy, _, blocks, _ in wgrads:
            starts = range(0, x.shape[0], WGRAD_ROWS)
            assert [(a.ctypes.data, a.shape, b.ctypes.data) for a, b, _ in blocks] == [
                (x[s:].ctypes.data, (x.shape[1], min(WGRAD_ROWS, x.shape[0] - s)), dy[s:].ctypes.data) for s in starts
            ]
        if kind == "mix":  # its stacked rows take more than one block
            assert max(len(blocks) for _, _, _, blocks, _ in wgrads) > 1
        addr = [(a.ctypes.data, b.ctypes.data, None if out is None else out.ctypes.data) for a, b, out in calls]
        hd, real = self.CFG.hidden, int(batch.lengths.sum())
        assert real < batch.tokens.size
        for i in range(depth):
            want = real
            if kind == "mix":  # the stacked batch below the mix layer, the soft and mixed rows from it on
                pair = self.pair()
                want += int(tape.union.sum()) if i >= tape.layer else int(pair.first.lengths.sum() + pair.second.lengths.sum())
            attn = {getattr(p.blocks[i], name).ctypes.data for name in ATTENTION}
            ffn = {getattr(p.blocks[i], name).ctypes.data for name in FFN}
            dattn, dffn = set(), set()
            if kind != "forward":
                dattn = {getattr(grads.blocks[i], name).ctypes.data for name in ATTENTION}
                dffn = {getattr(grads.blocks[i], name).ctypes.data for name in FFN}
            folding = [k for k, (a, b, _) in enumerate(addr) if a in attn or b in attn]
            assert len(folding) == (2 if kind == "forward" else 6)
            assert all(calls[k][0].shape == calls[k][1].shape == (hd, hd) for k in folding), i
            # A and B are what the forward folds write; the gradients of A and B are what
            # the backward folds read, each the last weight-gradient product to write it before that
            folded = {addr[k][2] for k in folding if addr[k][2] not in dattn}
            sums = {k for k, (_, _, out, _, _) in enumerate(wgrads) if out.ctypes.data in dffn}
            for k in folding:
                if addr[k][2] in dattn:
                    read = addr[k][0] if addr[k][0] not in attn else addr[k][1]
                    sums.add(max(j for j, (_, _, out, _, at) in enumerate(wgrads) if at <= k and out.ctypes.data == read))
            rows = [calls[k][0].shape[0] for k in range(len(calls)) if addr[k][1] in folded | ffn]
            rows += [wgrads[j][0].shape[0] for j in sorted(sums)]
            assert rows == [want] * (4 if kind == "forward" else 12), (i, want, rows)

    @pytest.mark.parametrize("kind", ["forward", "taped", "mix"])
    def test_padded_token_ids_are_never_read(self, kind):
        """Other valid ids at the padded positions give bit-identical logits."""
        p = init_params(self.CFG, 4, seed=105)
        batch = random_batch(self.CFG, 106, size=12, min_len=2)
        ids = np.random.default_rng(107).integers(1, self.CFG.vocab_size, size=batch.tokens.shape)
        other = Batch(tokens=np.where(real_of(batch), batch.tokens, ids).astype(batch.tokens.dtype), lengths=batch.lengths, class_ids=batch.class_ids)
        assert not np.array_equal(other.tokens, batch.tokens)
        assert np.array_equal(self.run(kind, p, batch, Workspace())[0], self.run(kind, p, other, Workspace())[0])


def reference_pool(h_padded, real):
    """The mean over real positions as an axis-1 sum of the zero-padded state."""
    return h_padded.sum(axis=1) / real.sum(axis=1, dtype=h_padded.dtype)[:, None]


class TestPool:
    """The pool's einsum equals, bit for bit, the axis-1 sum over the
    unpacked state, at every sequence width on both sides of numpy's
    8-wide pairwise block, in both float dtypes, from a fresh pass and
    from a workspace. At hidden width 1 the summed axis is contiguous and
    the two add in different orders, so there they agree to rounding."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("hidden", [1, 2, 5, 32])
    def test_equals_the_axis_sum(self, dtype, taped, hidden):
        rng = np.random.default_rng(hidden)
        ws = Workspace() if taped else FRESH
        for t in range(1, 33):
            lengths = rng.integers(1, t + 1, size=7)
            lengths[0] = t
            real = prefix_mask(lengths, t)
            pk = Packing(lengths, t, dtype, ws)
            h = (rng.normal(size=(pk.rows, hidden)) * rng.choice([1e-3, 1.0, 1e3], size=(pk.rows, 1))).astype(dtype)
            padded = unpacked(h, real)
            got, want = _pool_forward(h, pk), reference_pool(padded, real)
            assert got.dtype == dtype
            if hidden == 1:
                bound = t * np.finfo(dtype).eps * reference_pool(np.abs(padded), real)
                assert np.all(np.abs(got - want) <= bound), t
            else:
                assert np.array_equal(got, want), t

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_full_pass_pools_the_padded_state(self, taped):
        cfg = small_config(max_len=12)
        p = init_params(cfg, 4, seed=21)
        batch = random_batch(cfg, 22, size=9)
        h = run_to_layer(p, batch.tokens, packing(batch, p.flat.dtype), cfg.num_layers)
        want = np.maximum(reference_pool(unpacked(h, real_of(batch)), real_of(batch)) @ p["dense_w"] + p["dense_b"], 0.0)
        e = TapedForward(p, batch, Workspace()).e if taped else forward(p, batch)[0]
        assert np.array_equal(e, want)


class TestCheckpoint:
    def make(self, m=3, seed=0):
        return init_params(small_config(), m, seed=seed)

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
        p = self.make()
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

    @pytest.mark.parametrize("header", [b"42", b"null", b'"names shapes dtype M config"'], ids=["int", "null", "str"])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, header):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(header + b"\nrest")
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: malformed header: expected a JSON object")):
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
        [("hidden", str), ("hidden", float), ("num_layers", bool),
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

    def test_attention_key_in_header_is_refused(self, tmp_path):
        """The encoder has no attention switch: a header config that still
        names one is an unknown key, like any other."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.make(), str(path))
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"]["attention"] = True
        path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match=r"unknown encoder config keys: \['attention'\]"):
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
