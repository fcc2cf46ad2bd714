"""Loss values against closed-form hand computations, plus gradient checks."""

import math
import tracemalloc

import numpy as np
import pytest

from snoic.encoder import ATTN_MASK_VALUE
from snoic.errors import DataError
from snoic.losses import (
    colsum,
    kl_loss,
    mixup_loss,
    pretrain_loss,
    rowmax,
    rowsum,
    soft_targets,
    softmax,
    total_loss,
)


def fd_logits(fn, logits, dlogits, eps=1e-6):
    """Central-difference check of a (value, dlogits) pair, all coordinates."""
    worst = 0.0
    for idx in np.ndindex(logits.shape):
        orig = logits[idx]
        logits[idx] = orig + eps
        f_plus = fn(logits)
        logits[idx] = orig - eps
        f_minus = fn(logits)
        logits[idx] = orig
        fd = (f_plus - f_minus) / (2 * eps)
        an = dlogits[idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    return worst


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax(np.zeros((1, 4))), 0.25)

    def test_two_to_one_ratio(self):
        probs = softmax(np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(probs, [2 / 3, 1 / 3])

    def test_no_overflow_on_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 7))
        assert np.allclose(softmax(x), softmax(x + 3.7), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e4, 1e4, size=(8, 5))
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(128, 10, 10), (64, 32, 32), (32, 113), (3, 4)])
    def test_rows_sum_to_one_at_pass_shapes(self, dtype, shape):
        x = np.random.default_rng(2).standard_normal(shape).astype(dtype) * 4
        x[..., -2:] = ATTN_MASK_VALUE
        total = softmax(x).sum(axis=-1, dtype=np.float64)
        assert np.max(np.abs(total - 1.0)) <= 1e-6

    def test_masked_columns_get_no_mass(self):
        x = np.random.default_rng(3).standard_normal((64, 9, 9)).astype(np.float32)
        x[:, :, 5:] += ATTN_MASK_VALUE
        probs = softmax(x)
        assert np.all(probs[:, :, 5:] == 0.0)
        want = np.exp(x[:, :, :5] - x[:, :, :5].max(-1, keepdims=True))
        np.testing.assert_allclose(probs[:, :, :5], want / want.sum(-1, keepdims=True), rtol=1e-6)


class TestReductions:
    """rowmax is exactly ``x.max(-1)``; rowsum and colsum are ``np.sum``
    to rounding, the latter written into its ``out`` view."""

    # attention-score blocks, single columns, and a few rows over many or few columns
    SHAPES = [(128, 10, 10), (64, 32, 32), (64, 1), (5, 1), (32, 113), (3, 4)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rowmax_is_max_bit_for_bit(self, dtype, shape):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(shape).astype(dtype)
        x[..., -1] += ATTN_MASK_VALUE  # the masked key of attention scores
        x.reshape(-1, shape[-1])[::7] = ATTN_MASK_VALUE  # rows with every key masked
        got = rowmax(x)
        assert got.shape == shape[:-1] + (1,) and got.dtype == x.dtype
        assert np.array_equal(got, x.max(axis=-1, keepdims=True))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rowmax_propagates_nan(self, shape):
        x = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
        rows = x.reshape(-1, shape[-1])
        rows[0, -1] = np.nan
        rows[2, 0] = np.nan
        got, want = rowmax(x), x.max(axis=-1, keepdims=True)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got.reshape(-1)[[0, 2]]).all() and np.isnan(got).sum() == 2

    def test_softmax_subtracts_the_exact_maximum(self):
        x = np.random.default_rng(6).standard_normal((128, 10, 10)).astype(np.float32)
        z = np.exp(x - x.max(axis=-1, keepdims=True))
        got = softmax(x)
        assert np.array_equal(got.argmax(-1), x.argmax(-1))
        assert np.array_equal(np.exp(x - rowmax(x)), z)
        np.testing.assert_allclose(got, z / z.sum(-1, keepdims=True), rtol=1e-6)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("shape", [(128, 10, 64), (32, 7, 128), (16, 9), (4, 1)])
    def test_rowsum_and_colsum_are_sums(self, dtype, rtol, shape):
        x = np.random.default_rng(7).uniform(0.5, 1.5, size=shape).astype(dtype)
        want_rows = np.sum(x.astype(np.float64), axis=-1, keepdims=True)
        want_cols = np.sum(x.astype(np.float64).reshape(-1, shape[-1]), axis=0)
        got_rows = rowsum(x)
        assert got_rows.shape == want_rows.shape and got_rows.dtype == x.dtype
        np.testing.assert_allclose(got_rows, want_rows, rtol=rtol)
        out = np.empty(shape[-1], dtype)
        assert colsum(x, out=out) is out
        np.testing.assert_allclose(out, want_cols, rtol=rtol)

    def test_colsum_writes_a_gradient_view_in_place(self):
        x = np.random.default_rng(8).standard_normal((128, 10, 64)).astype(np.float32)
        flat = np.full(200, 7.0, np.float32)
        view = flat[50:114]
        colsum(x, out=view)
        np.testing.assert_allclose(view, x.sum(axis=(0, 1)), rtol=1e-5, atol=1e-4)
        assert np.all(flat[:50] == 7.0) and np.all(flat[114:] == 7.0)

    def test_colsum_allocates_no_copy_of_its_input(self):
        x = np.random.default_rng(9).standard_normal((128, 10, 64)).astype(np.float32)
        out = np.empty(64, np.float32)
        colsum(x, out=out)  # warm up
        tracemalloc.start()
        try:
            colsum(x, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 8  # the ones vector is x.nbytes / 64


class TestPretrainLoss:
    def test_uniform_known_logits(self):
        logits = np.zeros((3, 5))
        value, _ = pretrain_loss(logits, np.array([1, 2, 3]), M=4)
        assert value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_hand_computed_two_class(self):
        # Each row's known logits put margin 1 on the gold class, so the
        # per-row loss is log(1 + e^-1) regardless of the open column.
        logits = np.array([[1.0, 0.0, 9.0], [0.0, 1.0, -4.0]])
        value, _ = pretrain_loss(logits, np.array([1, 2]), M=2)
        assert value == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        value, _ = pretrain_loss(logits, np.array([1]), M=2)
        assert value < 1e-12

    def test_open_column_excluded_from_value(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((4, 4))
        labels = np.array([1, 2, 3, 1])
        value, _ = pretrain_loss(logits, labels, M=3)
        shifted = logits.copy()
        shifted[:, -1] += 100.0
        value2, _ = pretrain_loss(shifted, labels, M=3)
        assert value == value2

    def test_open_column_gradient_is_zero(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 4))
        _, dlogits = pretrain_loss(logits, np.array([1, 2, 3, 1]), M=3)
        assert np.all(dlogits[:, -1] == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((5, 4))
        labels = np.array([1, 3, 2, 1, 3])
        _, dlogits = pretrain_loss(logits, labels, M=3)
        err = fd_logits(lambda lg: pretrain_loss(lg, labels, 3)[0], logits, dlogits)
        assert err < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 5))
        _, dlogits = pretrain_loss(logits, np.array([1, 2, 3, 4, 1, 2]), M=4)
        assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range_rejected(self):
        logits = np.zeros((2, 3))
        with pytest.raises(DataError, match="labels must be in"):
            pretrain_loss(logits, np.array([1, 3]), M=2)
        with pytest.raises(DataError, match="labels must be in"):
            pretrain_loss(logits, np.array([0, 1]), M=2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DataError, match="does not match"):
            pretrain_loss(np.zeros((2, 3)), np.array([1, 1]), M=3)

    def test_one_dimensional_logits_rejected(self):
        with pytest.raises(DataError):
            pretrain_loss(np.zeros(3), np.array([1]), M=2)


def soft_row(label, M, rho):
    """The soft_targets row of one 1-based label."""
    return soft_targets(np.array([label]), M, rho)[0]


class TestSoftTarget:
    def test_relocation_example(self):
        t = soft_row(3, M=3, rho=0.3)
        assert t[2] == 1.0 - 0.3
        assert t[3] == 0.3
        assert t[0] == 0.0 and t[1] == 0.0

    def test_zero_rho_is_one_hot(self):
        t = soft_row(2, M=4, rho=0.0)
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.array_equal(t, expected)

    def test_single_known_class(self):
        assert np.allclose(soft_row(1, M=1, rho=0.5), [0.5, 0.5])

    def test_sums_to_one_across_rho(self):
        for rho in np.linspace(0.0, 0.999, 41):
            t = soft_row(1, M=5, rho=float(rho))
            assert abs(t.sum() - 1.0) <= 1e-6

    def test_batch_version_stacks(self):
        t = soft_targets(np.array([1, 2]), M=2, rho=0.2)
        assert t.shape == (2, 3)
        assert np.array_equal(t[0], soft_row(1, 2, 0.2))
        assert np.array_equal(t[1], soft_row(2, 2, 0.2))

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(DataError):
            soft_row(1, M=2, rho=1.0)
        with pytest.raises(DataError):
            soft_row(1, M=2, rho=-0.1)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            soft_row(3, M=2, rho=0.3)
        with pytest.raises(DataError):
            soft_row(0, M=2, rho=0.3)


class TestKlLoss:
    def test_zero_when_distributions_match(self):
        logits = np.log(np.array([[0.2, 0.5, 0.3]]))
        targets = np.array([[0.2, 0.5, 0.3]])
        value, _ = kl_loss(targets, logits)
        assert abs(value) < 1e-12

    def test_point_mass_against_uniform(self):
        value, _ = kl_loss(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_computed_value(self):
        targets = np.array([[0.7, 0.3]])
        logits = np.log(np.array([[0.6, 0.4]]))
        value, _ = kl_loss(targets, logits)
        expected = 0.7 * math.log(0.7 / 0.6) + 0.3 * math.log(0.3 / 0.4)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.021601, abs=5e-7)

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            targets = rng.dirichlet(np.ones(4), size=3)
            logits = rng.standard_normal((3, 4))
            value, _ = kl_loss(targets, logits)
            assert value >= -1e-12

    def test_gradient_is_softmax_minus_targets(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((4, 5))
        targets = rng.dirichlet(np.ones(5), size=4)
        _, dlogits = kl_loss(targets, logits)
        assert np.allclose(dlogits, (softmax(logits) - targets) / 4, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((3, 4))
        targets = soft_targets(np.array([1, 2, 3]), M=3, rho=0.3)
        _, dlogits = kl_loss(targets, logits)
        err = fd_logits(lambda lg: kl_loss(targets, lg)[0], logits, dlogits)
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_confidently_wrong_row_keeps_value_and_gradient(self, dtype):
        """softmax([0, 40, 0]) puts e^-40 on both target classes. The KL is
        taken through the log-softmax, not a floored log of the softmax, so
        the row scores its whole divergence and gets (softmax - targets)."""
        logits = np.array([[0.0, 40.0, 0.0]], dtype)
        value, dlogits = kl_loss(np.array([[0.7, 0.0, 0.3]]), logits)
        # log q = -40 - log(1 + 2e^-40) on the target classes
        expected = 0.7 * (math.log(0.7) + 40.0) + 0.3 * (math.log(0.3) + 40.0)
        assert value == pytest.approx(expected, rel=1e-6)
        assert value == pytest.approx(39.39, abs=5e-3)
        assert dlogits.dtype == dtype
        assert np.allclose(dlogits, [[-0.7, 1.0, -0.3]], atol=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="target shape"):
            kl_loss(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMixupLoss:
    def test_confident_open_is_near_zero(self):
        value, _ = mixup_loss(np.array([[0.0, 0.0, 50.0]]))
        assert value < 1e-12

    def test_uniform_logits(self):
        value, _ = mixup_loss(np.zeros((2, 5)))
        assert value == pytest.approx(math.log(5.0), abs=1e-12)

    def test_hand_computed_value(self):
        logits = np.array([[0.2, -0.1, 0.5]])
        value, _ = mixup_loss(logits)
        expected = math.log(math.exp(0.2) + math.exp(-0.1) + math.exp(0.5)) - 0.5
        assert value == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((4, 3))
        _, dlogits = mixup_loss(logits)
        err = fd_logits(lambda lg: mixup_loss(lg)[0], logits, dlogits)
        assert err < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(10)
        _, dlogits = mixup_loss(rng.standard_normal((5, 4)))
        assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)


class TestOneCore:
    """The cross-entropy objectives are the KL toward one-hot targets: each
    returns exactly what kl_loss returns for those targets."""

    @staticmethod
    def logits(dtype, b=32, M=4, seed=3):
        rng = np.random.default_rng(seed)
        return (3 * rng.standard_normal((b, M + 1))).astype(dtype), rng.integers(1, M + 1, size=b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixup_loss_is_the_kl_toward_the_open_class(self, dtype):
        x, _ = self.logits(dtype)
        onehot = np.zeros(x.shape)
        onehot[:, -1] = 1.0
        value, grad = mixup_loss(x)
        want_value, want_grad = kl_loss(onehot, x)
        assert value == want_value
        assert grad.dtype == want_grad.dtype == dtype and np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pretrain_loss_is_the_kl_over_the_known_columns(self, dtype):
        x, labels = self.logits(dtype)
        M = x.shape[1] - 1
        value, grad = pretrain_loss(x, labels, M)
        want_value, want_grad = kl_loss(np.eye(M)[labels - 1], x[:, :M])
        assert value == want_value
        assert grad.dtype == want_grad.dtype == dtype and np.array_equal(grad[:, :M], want_grad)
        assert not grad[:, M].any()


class TestTotalLoss:
    def test_endpoints(self):
        assert total_loss(2.0, 5.0, 1.0) == 2.0
        assert total_loss(2.0, 5.0, 0.0) == 5.0

    def test_midpoint(self):
        assert total_loss(0.4, 0.6, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_stays_between_components(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, b = rng.uniform(0, 3, size=2)
            g = float(rng.uniform(0, 1))
            t = total_loss(a, b, g)
            assert min(a, b) - 1e-12 <= t <= max(a, b) + 1e-12

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(DataError):
            total_loss(1.0, 1.0, 1.5)
        with pytest.raises(DataError):
            total_loss(1.0, 1.0, -0.1)
