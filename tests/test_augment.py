"""Mixing weight sampling, mixup, noise injection and the stacked mixup pass."""

import numpy as np
import pytest

from snoic.augment import NoisyMixupPass, inject_noise, mixup, sample_lambda
from snoic.corpus import Batch, PairedBatch
from snoic.encoder import (
    Packing,
    Workspace,
    backward_from_layer,
    backward_to_layer,
    head_backward,
    head_logits,
    run_from_layer,
    run_to_layer,
)
from snoic.errors import ConfigError, DataError
from snoic.losses import kl_loss, mixup_loss, soft_targets
from snoic.trainer import TrainConfig
from gradcheck import (
    TINY,
    attention_on,
    packing,
    real_of,
    seed_for_layer,
    tiny_batch,
    tiny_pair,
    tiny_params,
    unpacked,
    zero_topped,
)


class FixedNormals:
    """Generator stand-in whose normal draws are a constant."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if out is None:
            return np.full(size, self.value, dtype)
        out[...] = self.value
        return out


class ZeroGammas:
    def standard_gamma(self, alpha):
        return 0.0


class TestSampleLambda:
    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for alpha in (0.5, 1.0, 2.0, 8.0):
            draws = [sample_lambda(rng, alpha) for _ in range(500)]
            assert all(0.0 <= d <= 1.0 for d in draws)

    def test_deterministic_under_seeding(self):
        a = [sample_lambda(np.random.default_rng(4), 2.0) for _ in range(3)]
        b = [sample_lambda(np.random.default_rng(4), 2.0) for _ in range(3)]
        assert a == b

    def test_zero_gamma_sum_falls_back_to_half(self):
        assert sample_lambda(ZeroGammas(), 0.5) == 0.5

    def test_alpha_must_be_positive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            sample_lambda(rng, 0.0)
        with pytest.raises(DataError):
            sample_lambda(rng, -1.0)


class TestMixup:
    def hidden_pair(self, seed=0, shape=(15, 4)):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape), rng.standard_normal(shape)

    def test_lambda_one_returns_first(self):
        h1, h2 = self.hidden_pair()
        assert np.array_equal(mixup(h1, h2, 1.0), h1)

    def test_lambda_zero_returns_second(self):
        h1, h2 = self.hidden_pair()
        assert np.array_equal(mixup(h1, h2, 0.0), h2)

    def test_scalar_midpoint(self):
        mixed = mixup(np.full((1, 1), 2.0), np.full((1, 1), 4.0), 0.5)
        assert mixed[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_mix_is_elementwise_convex(self):
        h1, h2 = self.hidden_pair(seed=5)
        mixed = mixup(h1, h2, 0.3)
        lo = np.minimum(h1, h2)
        hi = np.maximum(h1, h2)
        assert np.all(mixed >= lo - 1e-9) and np.all(mixed <= hi + 1e-9)

    def test_zero_row_mixes_to_the_other_share(self):
        """A union position real on one side only is mixed against the zero
        row that the pass gathers for the other side."""
        h1, h2 = self.hidden_pair(seed=6)
        h1[2] = 0.0
        assert np.allclose(mixup(h1, h2, 0.4)[2], 0.6 * h2[2], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        h1, h2 = self.hidden_pair()
        with pytest.raises(DataError, match="shapes differ"):
            mixup(h1, h2[:2], 0.5)

    def test_lambda_out_of_range_rejected(self):
        h1, h2 = self.hidden_pair()
        for lam in (-0.01, 1.01):
            with pytest.raises(DataError, match="mixing weight"):
                mixup(h1, h2, lam)

    def test_in_place_into_the_first_state(self):
        """out=h1 overwrites h1 with the bits a fresh result holds."""
        h1, h2 = (h.astype(np.float32) for h in self.hidden_pair(seed=7))
        fresh = mixup(h1, h2, 0.3)
        mixed = mixup(h1, h2, 0.3, out=h1)
        assert mixed is h1 and np.array_equal(mixed, fresh)


class TestInjectNoise:
    def test_zero_deltas_are_an_exact_identity(self):
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal((6, 4))
        noisy, scale = inject_noise(mixed, np.random.default_rng(8), 0.0, 0.0)
        assert np.array_equal(noisy, mixed)
        assert np.all(scale == 1.0)

    def test_rng_consumption_ignores_delta_values(self):
        """Noise draws happen even at zero magnitude, keeping streams aligned."""
        mixed = np.zeros((6, 4))
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        inject_noise(mixed, rng_a, 0.0, 0.0)
        inject_noise(mixed, rng_b, 0.4, 0.2)
        assert rng_a.random() == rng_b.random()

    def test_fixed_unit_draws_arithmetic(self):
        # (1 + 0.2 * 1) * 10 + 0.4 * 1 = 12.4
        mixed = np.full((1, 1), 10.0)
        noisy, scale = inject_noise(mixed, FixedNormals(1.0), 0.4, 0.2)
        assert noisy[0, 0] == pytest.approx(12.4, abs=1e-12)
        assert scale[0, 0] == pytest.approx(1.2, abs=1e-12)

    def test_multiplicative_draw_comes_first(self):
        rng = np.random.default_rng(10)
        mixed = rng.standard_normal((8, 3))
        probe = np.random.default_rng(11)
        xi_mul = probe.standard_normal(mixed.shape)
        xi_add = probe.standard_normal(mixed.shape)
        expected = (1.0 + 0.2 * xi_mul) * mixed + 0.4 * xi_add
        noisy, scale = inject_noise(mixed, np.random.default_rng(11), 0.4, 0.2)
        assert np.allclose(noisy, expected, atol=1e-12)
        assert np.allclose(scale, 1.0 + 0.2 * xi_mul, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_draw_in_the_state_dtype(self, dtype):
        """Both fields are the two halves of one (2,) + shape standard-normal
        draw in the state's dtype, and nothing else is drawn."""
        rng = np.random.default_rng(15)
        mixed = rng.standard_normal((6, 4)).astype(dtype)
        probe = np.random.default_rng(16)
        xi_mul, xi_add = probe.standard_normal((2,) + mixed.shape, dtype=dtype)
        draws = np.random.default_rng(16)
        noisy, scale = inject_noise(mixed, draws, 0.4, 0.2)
        assert draws.bit_generator.state == probe.bit_generator.state
        assert scale.dtype == noisy.dtype == dtype
        assert np.array_equal(scale, xi_mul * 0.2 + 1.0)
        assert np.array_equal(noisy, scale * mixed + xi_add * 0.4)

    def test_in_place_into_the_state(self):
        """out=x overwrites x with the bits a fresh result holds, from the same draws."""
        mixed = np.random.default_rng(17).standard_normal((6, 4)).astype(np.float32)
        fresh, fresh_scale = inject_noise(mixed, np.random.default_rng(18), 0.4, 0.2)
        noisy, scale = inject_noise(mixed, np.random.default_rng(18), 0.4, 0.2, out=mixed)
        assert noisy is mixed and np.array_equal(noisy, fresh) and np.array_equal(scale, fresh_scale)

    def test_mean_is_unbiased(self):
        """Noise is centered: averaging draws recovers the clean mix."""
        rng = np.random.default_rng(13)
        mixed = rng.standard_normal((6, 4))
        draws = np.random.default_rng(14)
        total = np.zeros_like(mixed)
        n = 2000
        for _ in range(n):
            noisy, _ = inject_noise(mixed, draws, 0.4, 0.2)
            total += noisy
        se = np.sqrt((0.2 * mixed) ** 2 + 0.4**2) / np.sqrt(n)
        assert np.all(np.abs(total / n - mixed) <= 5.0 * se)


def separate_segments_reference(p, batch, pair, cfg, seed, dsoft, dmix):
    """The stacked pass rebuilt from one encoder pass per row group.

    Returns (soft logits, mixed logits, grads); each parameter's gradient
    is summed over the soft, first-half and second-half segments. A
    backward overwrites the ranges it reaches, so each segment writes into
    a zeroed buffer of its own and the buffers are added up at the end.
    The mixed rows are built in the padded layout, where a half's padding
    is zero, and packed by the larger of each pair's two lengths.
    """
    rng = np.random.default_rng(seed)
    rl = int(rng.integers(1, p.cfg.num_layers + 1))
    lam = sample_lambda(rng, cfg.alpha)
    dtype = p["token_embedding"].dtype
    segments = []

    def segment_grads():
        segments.append(p.with_flat(np.zeros_like(p.flat)))
        return segments[-1]

    def to_layer(b):
        cache = {}
        return run_to_layer(p, b.tokens, packing(b, dtype), rl, cache=cache), real_of(b), cache

    def from_layer(h, pk, dlogits):
        cache = {}
        e = run_from_layer(p, h, pk, rl, cache=cache)
        grads = segment_grads()
        de = head_backward(p, e, dlogits, grads)
        return head_logits(p, e), backward_from_layer(p, cache, de, grads)

    hs, _, cs = to_layer(batch)
    h1, r1, c1 = to_layer(pair.first)
    h2, r2, c2 = to_layer(pair.second)
    soft_logits, dhs = from_layer(hs, packing(batch, dtype), dsoft)
    backward_to_layer(p, cs, dhs, segment_grads())
    on = r1 | r2
    mixed = mixup(unpacked(h1, r1)[on], unpacked(h2, r2)[on], lam)
    noisy, scale = inject_noise(mixed, rng, cfg.delta_add, cfg.delta_mul)
    union = Packing(np.maximum(pair.first.lengths, pair.second.lengths), on.shape[1], dtype)
    mix_logits, dh = from_layer(noisy, union, dmix)
    dmixed = unpacked(dh[1:] * scale, on)
    backward_to_layer(p, c1, zero_topped(lam * dmixed[r1]), segment_grads())
    backward_to_layer(p, c2, zero_topped((1.0 - lam) * dmixed[r2]), segment_grads())
    return soft_logits, mix_logits, p.with_flat(sum(g.flat for g in segments))


class TestMixupConfig:
    """The mixup settings NoisyMixupPass reads from the stage's TrainConfig."""

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.alpha == 2.0
        assert cfg.delta_add == 0.4
        assert cfg.delta_mul == 0.2

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(delta_add=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(delta_mul=-0.1)


class TestNoisyMixupPass:
    def test_documented_draw_order(self):
        """One stream feeds layer, lambda, then the two noise fields."""
        p = tiny_params(seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        cfg = TrainConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
        rng = np.random.default_rng(21)
        mix = NoisyMixupPass(p, batch, pair, cfg, rng)

        probe = np.random.default_rng(21)
        layer = int(probe.integers(1, p.cfg.num_layers + 1))
        g1 = probe.standard_gamma(2.0)
        g2 = probe.standard_gamma(2.0)
        lam = g1 / (g1 + g2)
        assert mix.layer == layer
        assert mix.lam == pytest.approx(lam, abs=1e-12)

        real1, real2 = real_of(pair.first), real_of(pair.second)
        h1 = unpacked(run_to_layer(p, pair.first.tokens, packing(pair.first), layer), real1)
        h2 = unpacked(run_to_layer(p, pair.second.tokens, packing(pair.second), layer), real2)
        union = real1 | real2
        mixed = (lam * h1 + (1 - lam) * h2)[union]
        xi_mul, xi_add = probe.standard_normal((2,) + mixed.shape)
        assert mixed.shape == (int(union.sum()), p.cfg.hidden)
        expected = (1 + 0.2 * xi_mul) * mixed + 0.4 * xi_add
        e = run_from_layer(p, expected, Packing(union.sum(axis=1), union.shape[1], np.float64), layer)
        assert np.allclose(mix.logits, head_logits(p, e), atol=1e-9)
        assert rng.bit_generator.state == probe.bit_generator.state

    def test_outputs_are_finite_and_shaped(self):
        p = tiny_params(seed=3)
        batch = tiny_batch(11, size=5)
        pair = tiny_pair(12)
        mix = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(2))
        assert mix.soft_logits.shape == (len(batch), p.M + 1)
        assert mix.logits.shape == (len(pair.first), p.M + 1)
        assert np.isfinite(mix.soft_logits).all() and np.isfinite(mix.logits).all()
        assert 0.0 <= mix.lam <= 1.0
        assert 1 <= mix.layer <= TINY["num_layers"]
        assert np.array_equal(mix.union, np.maximum(pair.first.lengths, pair.second.lengths))

    def test_deterministic_per_seed(self):
        p = tiny_params(seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        a = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(33))
        b = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(33))
        assert np.array_equal(a.soft_logits, b.soft_logits)
        assert np.array_equal(a.logits, b.logits)

    def test_backward_touches_every_parameter(self):
        p = tiny_params(seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        mix = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(5))
        grads = mix.backward(np.ones_like(mix.soft_logits), np.ones_like(mix.logits))
        assert grads.layout == p.layout
        assert np.isfinite(grads.flat).all()

    @pytest.mark.parametrize("dtype, rel_tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @attention_on("attn")
    @pytest.mark.parametrize("seed", [21, 22])
    def test_stacked_pass_matches_separate_segments(self, dtype, rel_tol, attention, seed):
        p = tiny_params(seed=3, dtype=dtype)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        cfg = TrainConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
        mix = NoisyMixupPass(p, batch, pair, cfg, np.random.default_rng(seed))
        _, dsoft = kl_loss(soft_targets(batch.class_ids, p.M, 0.3), mix.soft_logits)
        _, dmix = mixup_loss(mix.logits)
        grads = mix.backward(0.6 * dsoft, 0.4 * dmix)
        soft_ref, mix_ref, grads_ref = separate_segments_reference(
            p, batch, pair, cfg, seed, 0.6 * dsoft, 0.4 * dmix
        )

        def rel_err(got, want):
            assert got.dtype == dtype
            return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

        assert rel_err(mix.soft_logits, soft_ref) <= rel_tol
        assert rel_err(mix.logits, mix_ref) <= rel_tol
        assert grads.layout == grads_ref.layout == p.layout
        for name in p.names():
            assert rel_err(grads[name], grads_ref[name]) <= rel_tol, name


class TestWorkspaceReuse:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @attention_on("attn")
    def test_reused_workspace_matches_fresh_pass(self, attention, dtype):
        """Steps change the row count (full, then tail batch) and the mix
        layer (rl = L, then rl = 1): passes recorded into one workspace
        give the logits and gradients of fresh passes."""
        p = tiny_params(seed=5, dtype=dtype)
        depth = TINY["num_layers"]
        ws = Workspace()
        steps = [(6, depth), (3, 1), (6, 1), (3, depth)]
        for k, (size, layer) in enumerate(steps):
            batch, pair = tiny_batch(40 + k, size=size), tiny_pair(50 + k, size=size)
            seed = seed_for_layer(layer, start=10 * k)
            fresh = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(seed))
            reused = NoisyMixupPass(p, batch, pair, TrainConfig(), np.random.default_rng(seed), ws)
            assert reused.layer == layer
            assert np.array_equal(reused.soft_logits, fresh.soft_logits)
            assert np.array_equal(reused.logits, fresh.logits)
            rng = np.random.default_rng(60 + k)
            dsoft = rng.standard_normal(fresh.soft_logits.shape).astype(dtype)
            dmix = rng.standard_normal(fresh.logits.shape).astype(dtype)
            want, got = fresh.backward(dsoft, dmix), reused.backward(dsoft, dmix)
            assert got.layout == want.layout == p.layout
            for name in p.names():
                assert got[name].dtype == dtype and np.array_equal(got[name], want[name]), name


def cut(batch, width):
    """The batch with its columns from ``width`` on dropped."""
    return Batch(tokens=batch.tokens[:, :width], lengths=np.minimum(batch.lengths, width), class_ids=batch.class_ids)


def ragged_batch(seed, longest, size=4):
    """A max_len-wide tiny batch whose longest row has ``longest`` tokens."""
    batch = tiny_batch(seed, size=size)
    np.minimum(batch.lengths, longest, out=batch.lengths)
    batch.lengths[0] = longest
    batch.tokens[:, 0] = 2
    batch.tokens[~real_of(batch)] = 0
    batch.tokens[0, 1:longest] = 3
    return batch


def state_after_pass(seed, p, cfg, noise_shape, dtype):
    """The state of a generator seeded ``seed`` once a pass has drawn from
    it: mix layer, lambda, then one noise field of ``(2,) + noise_shape``."""
    probe = np.random.default_rng(seed)
    probe.integers(1, p.cfg.num_layers + 1)
    sample_lambda(probe, cfg.alpha)
    probe.standard_normal((2,) + noise_shape, dtype=dtype)
    return probe.bit_generator.state


class TestRaggedWidths:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @attention_on("attn")
    @pytest.mark.parametrize("widths", [(3, 5, 4), (5, 2, 3), (2, 4, 6)])
    def test_parts_of_different_widths_match_max_len(self, widths, attention, dtype):
        """Soft batch and pair halves cut to three widths give the logits
        and gradients of the same rows padded to max_len, noise included:
        the noise is drawn for the union's real tokens, (2, U, H) of it
        whatever the stacked width, so both runs draw the same field."""
        p = tiny_params(seed=6, dtype=dtype)
        soft, first, second = (ragged_batch(70 + k, w) for k, w in enumerate(widths))
        second.class_ids = (first.class_ids % p.M + 1).astype(np.int32)
        ragged = (cut(soft, widths[0]), PairedBatch(cut(first, widths[1]), cut(second, widths[2])))
        full = (soft, PairedBatch(first=first, second=second))
        cfg = TrainConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
        union = int(np.maximum(first.lengths, second.lengths).sum())
        rng = np.random.default_rng(9)
        dsoft = rng.standard_normal((len(soft), p.M + 1)).astype(dtype)
        dmix = rng.standard_normal((len(first), p.M + 1)).astype(dtype)
        runs = []
        for batch, pair in (ragged, full):
            rng = np.random.default_rng(71)
            mix = NoisyMixupPass(p, batch, pair, cfg, rng, Workspace())
            grads = mix.backward(dsoft, dmix)
            noise_shape = (union, TINY["hidden"])
            assert rng.bit_generator.state == state_after_pass(71, p, cfg, noise_shape, dtype)
            runs.append((mix, grads.copy()))
        (got, got_grads), (want, want_grads) = runs
        assert (got.layer, got.lam) == (want.layer, want.lam)

        def rel_err(a, b):
            return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

        assert rel_err(got.soft_logits, want.soft_logits) <= 1e-5
        assert rel_err(got.logits, want.logits) <= 1e-5
        for name in p.names():
            assert rel_err(got_grads[name], want_grads[name]) <= 1e-5, name
