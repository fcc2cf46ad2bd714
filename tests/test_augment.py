"""Mixing weight sampling, layer selection, mixup, and noise injection."""

import numpy as np
import pytest

from snoic.augment import (
    MixupConfig,
    NoisyMixupPass,
    inject_noise,
    mixup,
    sample_lambda,
    select_mix_layer,
)
from snoic.encoder import (
    Grads,
    Workspace,
    backward_from_layer,
    backward_to_layer,
    head_backward,
    head_logits,
    run_from_layer,
    run_to_layer,
)
from snoic.errors import DataError
from snoic.losses import kl_loss, mixup_loss, soft_targets
from gradcheck import TINY, tiny_batch, tiny_pair, tiny_params


class FixedNormals:
    """Generator stand-in whose normal draws are a constant."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
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


class TestSelectMixLayer:
    def test_single_layer_range_is_constant(self):
        rng = np.random.default_rng(1)
        assert all(select_mix_layer(rng, 2, 2) == 2 for _ in range(20))

    def test_draws_cover_range_uniformly(self):
        rng = np.random.default_rng(2)
        draws = np.array([select_mix_layer(rng, 1, 4) for _ in range(10_000)])
        assert set(draws.tolist()) == {1, 2, 3, 4}
        for layer in range(1, 5):
            assert abs(np.mean(draws == layer) - 0.25) < 0.02

    def test_invalid_ranges_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DataError):
            select_mix_layer(rng, 0, 2)
        with pytest.raises(DataError):
            select_mix_layer(rng, 3, 2)


class TestMixup:
    def hidden_pair(self, seed=0, shape=(3, 5, 4)):
        rng = np.random.default_rng(seed)
        h1 = rng.standard_normal(shape)
        h2 = rng.standard_normal(shape)
        mask = np.ones(shape[:2])
        return h1 * mask[:, :, None], h2 * mask[:, :, None], mask

    def test_lambda_one_returns_first(self):
        h1, h2, mask = self.hidden_pair()
        mixed, union = mixup(h1, mask, h2, mask, 1.0)
        assert np.array_equal(mixed, h1)
        assert np.array_equal(union, mask)

    def test_lambda_zero_returns_second(self):
        h1, h2, mask = self.hidden_pair()
        mixed, _ = mixup(h1, mask, h2, mask, 0.0)
        assert np.array_equal(mixed, h2)

    def test_scalar_midpoint(self):
        h1 = np.full((1, 1, 1), 2.0)
        h2 = np.full((1, 1, 1), 4.0)
        mask = np.ones((1, 1))
        mixed, _ = mixup(h1, mask, h2, mask, 0.5)
        assert mixed[0, 0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_mix_is_elementwise_convex(self):
        h1, h2, mask = self.hidden_pair(seed=5)
        mixed, _ = mixup(h1, mask, h2, mask, 0.3)
        lo = np.minimum(h1, h2)
        hi = np.maximum(h1, h2)
        assert np.all(mixed >= lo - 1e-9) and np.all(mixed <= hi + 1e-9)

    def test_union_mask_and_off_mask_zeroing(self):
        rng = np.random.default_rng(6)
        h1 = rng.standard_normal((2, 4, 3))
        h2 = rng.standard_normal((2, 4, 3))
        mask1 = np.array([[1, 1, 0, 0], [1, 1, 1, 0]], dtype=float)
        mask2 = np.array([[1, 1, 1, 0], [1, 0, 0, 0]], dtype=float)
        h1 = h1 * mask1[:, :, None]
        h2 = h2 * mask2[:, :, None]
        mixed, union = mixup(h1, mask1, h2, mask2, 0.4)
        assert np.array_equal(union, np.maximum(mask1, mask2))
        assert np.all(mixed[union == 0.0] == 0.0)
        # A position real on only one side mixes against an implicit zero.
        assert np.allclose(mixed[0, 2], 0.6 * h2[0, 2], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        h1, h2, mask = self.hidden_pair()
        with pytest.raises(DataError, match="shapes differ"):
            mixup(h1, mask, h2[:, :2], mask[:, :2], 0.5)
        with pytest.raises(DataError, match="mask shapes"):
            mixup(h1, mask[:, :2], h2, mask[:, :2], 0.5)

    def test_lambda_out_of_range_rejected(self):
        h1, h2, mask = self.hidden_pair()
        for lam in (-0.01, 1.01):
            with pytest.raises(DataError, match="mixing weight"):
                mixup(h1, mask, h2, mask, lam)


class TestInjectNoise:
    def test_zero_deltas_are_an_exact_identity(self):
        rng = np.random.default_rng(7)
        mixed = rng.standard_normal((2, 3, 4))
        mask = np.ones((2, 3))
        noisy, scale = inject_noise(mixed, mask, np.random.default_rng(8), 0.0, 0.0)
        assert np.array_equal(noisy, mixed)
        assert np.all(scale == 1.0)

    def test_rng_consumption_ignores_delta_values(self):
        """Noise draws happen even at zero magnitude, keeping streams aligned."""
        mixed = np.zeros((2, 3, 4))
        mask = np.ones((2, 3))
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        inject_noise(mixed, mask, rng_a, 0.0, 0.0)
        inject_noise(mixed, mask, rng_b, 0.4, 0.2)
        assert rng_a.random() == rng_b.random()

    def test_fixed_unit_draws_arithmetic(self):
        # (1 + 0.2 * 1) * 10 + 0.4 * 1 = 12.4
        mixed = np.full((1, 1, 1), 10.0)
        mask = np.ones((1, 1))
        noisy, scale = inject_noise(mixed, mask, FixedNormals(1.0), 0.4, 0.2)
        assert noisy[0, 0, 0] == pytest.approx(12.4, abs=1e-12)
        assert scale[0, 0, 0] == pytest.approx(1.2, abs=1e-12)

    def test_multiplicative_draw_comes_first(self):
        rng = np.random.default_rng(10)
        mixed = rng.standard_normal((2, 4, 3))
        mask = np.ones((2, 4))
        probe = np.random.default_rng(11)
        xi_mul = probe.standard_normal(mixed.shape)
        xi_add = probe.standard_normal(mixed.shape)
        expected = (1.0 + 0.2 * xi_mul) * mixed + 0.4 * xi_add
        noisy, scale = inject_noise(mixed, mask, np.random.default_rng(11), 0.4, 0.2)
        assert np.allclose(noisy, expected, atol=1e-12)
        assert np.allclose(scale, 1.0 + 0.2 * xi_mul, atol=1e-12)

    def test_masked_positions_are_rezeroed(self):
        mixed = np.ones((1, 3, 2))
        mask = np.array([[1, 0, 1]], dtype=float)
        noisy, _ = inject_noise(mixed, mask, np.random.default_rng(12), 0.4, 0.2)
        assert np.all(noisy[0, 1] == 0.0)

    def test_mean_is_unbiased(self):
        """Noise is centered: averaging draws recovers the clean mix."""
        rng = np.random.default_rng(13)
        mixed = rng.standard_normal((2, 3, 4))
        mask = np.ones((2, 3))
        draws = np.random.default_rng(14)
        total = np.zeros_like(mixed)
        n = 2000
        for _ in range(n):
            noisy, _ = inject_noise(mixed, mask, draws, 0.4, 0.2)
            total += noisy
        se = np.sqrt((0.2 * mixed) ** 2 + 0.4**2) / np.sqrt(n)
        assert np.all(np.abs(total / n - mixed) <= 5.0 * se)


class TestMixupConfig:
    def test_defaults(self):
        cfg = MixupConfig()
        assert cfg.alpha == 2.0
        assert cfg.delta_add == 0.4
        assert cfg.delta_mul == 0.2
        assert cfg.layer_range is None

    def test_validation(self):
        with pytest.raises(DataError):
            MixupConfig(alpha=0.0)
        with pytest.raises(DataError):
            MixupConfig(delta_add=-0.1)
        with pytest.raises(DataError):
            MixupConfig(layer_range=(0, 2))
        with pytest.raises(DataError):
            MixupConfig(layer_range=(3, 2))


def separate_segments_reference(p, batch, pair, cfg, seed, dsoft, dmix):
    """The stacked pass rebuilt from one encoder pass per row group.

    Returns (soft logits, mixed logits, grads); each parameter's gradient
    is accumulated over the soft, first-half and second-half segments.
    """
    rng = np.random.default_rng(seed)
    rl = select_mix_layer(rng, 1, p.cfg.num_layers)
    lam = sample_lambda(rng, cfg.alpha)
    dtype = p["token_embedding"].dtype
    grads = Grads(p)

    def to_layer(b):
        mask = b.mask.astype(dtype)
        cache = {}
        return run_to_layer(p, b.tokens, mask, rl, cache=cache), mask, cache

    def from_layer(h, mask, dlogits):
        cache = {}
        e = run_from_layer(p, h, mask, rl, cache=cache)
        de = head_backward(p, e, dlogits, grads)
        return head_logits(p, e), backward_from_layer(p, cache, de, grads)

    hs, ms, cs = to_layer(batch)
    h1, m1, c1 = to_layer(pair.first)
    h2, m2, c2 = to_layer(pair.second)
    soft_logits, dhs = from_layer(hs, ms, dsoft)
    backward_to_layer(p, cs, dhs, grads)
    mixed, union = mixup(h1, m1, h2, m2, lam)
    noisy, scale = inject_noise(mixed, union, rng, cfg.delta_add, cfg.delta_mul)
    mix_logits, dh = from_layer(noisy, union, dmix)
    dmixed = dh * union[:, :, None] * scale
    backward_to_layer(p, c1, lam * dmixed, grads)
    backward_to_layer(p, c2, (1.0 - lam) * dmixed, grads)
    return soft_logits, mix_logits, grads


class TestNoisyMixupPass:
    def test_documented_draw_order(self):
        """One stream feeds layer, lambda, then the two noise fields."""
        p = tiny_params(attention=True, seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        cfg = MixupConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
        mix = NoisyMixupPass(p, batch, pair, cfg, np.random.default_rng(21))

        probe = np.random.default_rng(21)
        layer = int(probe.integers(1, p.cfg.num_layers + 1))
        g1 = probe.standard_gamma(2.0)
        g2 = probe.standard_gamma(2.0)
        lam = g1 / (g1 + g2)
        assert mix.layer == layer
        assert mix.lam == pytest.approx(lam, abs=1e-12)

        mask1 = pair.first.mask.astype(np.float64)
        mask2 = pair.second.mask.astype(np.float64)
        union = np.maximum(mask1, mask2)
        h1 = run_to_layer(p, pair.first.tokens, mask1, layer)
        h2 = run_to_layer(p, pair.second.tokens, mask2, layer)
        mixed = (lam * h1 + (1 - lam) * h2) * union[:, :, None]
        xi_mul = probe.standard_normal(mixed.shape)
        xi_add = probe.standard_normal(mixed.shape)
        expected = ((1 + 0.2 * xi_mul) * mixed + 0.4 * xi_add) * union[:, :, None]
        e = run_from_layer(p, expected, union, layer)
        assert np.allclose(mix.logits, head_logits(p, e), atol=1e-9)

    def test_layer_range_is_respected(self):
        p = tiny_params(attention=False, seed=4)
        pair = tiny_pair(15)
        cfg = MixupConfig(layer_range=(2, 2))
        for seed in range(5):
            mix = NoisyMixupPass(p, pair.first, pair, cfg, np.random.default_rng(seed))
            assert mix.layer == 2

    def test_layer_range_beyond_depth_rejected(self):
        p = tiny_params(attention=True, seed=3)
        pair = tiny_pair(12)
        cfg = MixupConfig(layer_range=(1, TINY["num_layers"] + 1))
        with pytest.raises(DataError, match="encoder depth"):
            NoisyMixupPass(p, pair.first, pair, cfg, np.random.default_rng(0))

    def test_outputs_are_finite_and_shaped(self):
        p = tiny_params(attention=True, seed=3)
        batch = tiny_batch(11, size=5)
        pair = tiny_pair(12)
        mix = NoisyMixupPass(p, batch, pair, MixupConfig(), np.random.default_rng(2))
        assert mix.soft_logits.shape == (len(batch), p.M + 1)
        assert mix.logits.shape == (len(pair.first), p.M + 1)
        assert np.isfinite(mix.soft_logits).all() and np.isfinite(mix.logits).all()
        assert 0.0 <= mix.lam <= 1.0
        assert 1 <= mix.layer <= TINY["num_layers"]
        assert np.array_equal(
            mix.union, np.maximum(pair.first.mask, pair.second.mask).astype(np.float64)
        )

    def test_deterministic_per_seed(self):
        p = tiny_params(attention=True, seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        a = NoisyMixupPass(p, batch, pair, MixupConfig(), np.random.default_rng(33))
        b = NoisyMixupPass(p, batch, pair, MixupConfig(), np.random.default_rng(33))
        assert np.array_equal(a.soft_logits, b.soft_logits)
        assert np.array_equal(a.logits, b.logits)

    def test_backward_touches_every_parameter(self):
        p = tiny_params(attention=True, seed=3)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        mix = NoisyMixupPass(p, batch, pair, MixupConfig(), np.random.default_rng(5))
        grads = mix.backward(np.ones_like(mix.soft_logits), np.ones_like(mix.logits))
        assert set(grads) == set(p.names())
        assert all(np.isfinite(grads[n]).all() for n in grads)

    @pytest.mark.parametrize("dtype, rel_tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
    @pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_stacked_pass_matches_separate_segments(self, dtype, rel_tol, attention, seed):
        p = tiny_params(attention, seed=3 if attention else 4, dtype=dtype)
        batch = tiny_batch(11)
        pair = tiny_pair(12)
        cfg = MixupConfig(alpha=2.0, delta_add=0.4, delta_mul=0.2)
        mix = NoisyMixupPass(p, batch, pair, cfg, np.random.default_rng(seed))
        _, dsoft = kl_loss(soft_targets(batch.labels, p.M, 0.3), mix.soft_logits)
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
        assert set(grads) == set(grads_ref) == set(p.names())
        for name in p.names():
            assert rel_err(grads[name], grads_ref[name]) <= rel_tol, name


class TestWorkspaceReuse:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
    def test_reused_workspace_matches_fresh_pass(self, attention, dtype):
        """Steps change the row count (full, then tail batch) and the mix
        layer (rl = L, then rl = 1): passes recorded into one workspace
        give the logits and gradients of fresh passes."""
        p = tiny_params(attention, seed=5, dtype=dtype)
        depth = TINY["num_layers"]
        ws = Workspace()
        steps = [(6, depth), (3, 1), (6, 1), (3, depth)]
        for k, (size, layer) in enumerate(steps):
            batch, pair = tiny_batch(40 + k, size=size), tiny_pair(50 + k, size=size)
            cfg = MixupConfig(layer_range=(layer, layer))
            fresh = NoisyMixupPass(p, batch, pair, cfg, np.random.default_rng(k))
            reused = NoisyMixupPass(p, batch, pair, cfg, np.random.default_rng(k), ws)
            assert reused.layer == layer
            assert np.array_equal(reused.soft_logits, fresh.soft_logits)
            assert np.array_equal(reused.logits, fresh.logits)
            rng = np.random.default_rng(60 + k)
            dsoft = rng.standard_normal(fresh.soft_logits.shape).astype(dtype)
            dmix = rng.standard_normal(fresh.logits.shape).astype(dtype)
            want, got = fresh.backward(dsoft, dmix), reused.backward(dsoft, dmix)
            assert set(got) == set(want) == set(p.names())
            for name in p.names():
                assert got[name].dtype == dtype and np.array_equal(got[name], want[name]), name
