"""Reverse-pass gradients against finite differences of the forward pass."""

import numpy as np
import pytest

from snoic.augment import inject_noise, mixup
from snoic.encoder import (
    Grads,
    TapedForward,
    backward_from_layer,
    head_backward,
    head_logits,
    run_from_layer,
    run_to_layer,
)
from snoic.losses import mixup_loss, pretrain_loss
from gradcheck import (
    REL_TOL,
    build_cases,
    max_rel_err,
    tiny_batch,
    tiny_pair,
    tiny_params,
)


@pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
@pytest.mark.parametrize("case", ["pretrain_ce", "soft_kl", "open_ce", "blended"])
def test_parameter_gradients_match_finite_differences(attention, case):
    p = tiny_params(attention, seed=3 if attention else 4)
    batch = tiny_batch(11)
    pair = tiny_pair(12)
    cases = {name: (fn, grads) for name, fn, grads in build_cases(p, batch, pair)}
    value_fn, grads = cases[case]
    err, checked = max_rel_err(p, value_fn, grads, n_coords=60, seed=17)
    assert checked == 60
    assert err < REL_TOL


def test_unused_token_embedding_rows_get_zero_gradient():
    p = tiny_params(attention=True, seed=3)
    batch = tiny_batch(11)
    unused = sorted(set(range(p.cfg.vocab_size)) - set(batch.tokens.reshape(-1).tolist()))
    assert unused, "batch unexpectedly covers the whole vocabulary"
    tape = TapedForward(p, batch)
    _, dlogits = pretrain_loss(tape.logits, batch.labels, p.M)
    grads = tape.backward(dlogits)
    for tid in unused:
        assert np.all(grads["token_embedding"][tid] == 0.0)


def test_padding_rows_get_zero_position_gradient():
    p = tiny_params(attention=False, seed=4)
    batch = tiny_batch(13)
    # Shorten every row so the last position is padding everywhere.
    batch.mask[:, -1] = 0.0
    batch.tokens[:, -1] = 0
    tape = TapedForward(p, batch)
    _, dlogits = pretrain_loss(tape.logits, batch.labels, p.M)
    grads = tape.backward(dlogits)
    assert np.all(grads["position_embedding"][-1] == 0.0)


@pytest.mark.parametrize("attention", [True, False], ids=["attn", "noattn"])
def test_cut_point_gradients_split_by_mixing_weight(attention):
    """d loss / d h1 is lam * scale * union times the resumed gradient,
    and d loss / d h2 carries the (1 - lam) share; both match FD probes
    through the mix, noise, and resume chain."""
    p = tiny_params(attention, seed=3 if attention else 4)
    pair = tiny_pair(19)
    rl = 1
    lam = 0.37
    noise_seed = 55
    mask1 = pair.first.mask.astype(np.float64)
    mask2 = pair.second.mask.astype(np.float64)
    h1 = run_to_layer(p, pair.first.tokens, mask1, rl)
    h2 = run_to_layer(p, pair.second.tokens, mask2, rl)

    def loss_of(a, b):
        mixed, union = mixup(a, mask1, b, mask2, lam)
        noisy, _ = inject_noise(mixed, union, np.random.default_rng(noise_seed), 0.4, 0.2)
        e = run_from_layer(p, noisy, union, rl)
        return mixup_loss(head_logits(p, e))[0]

    mixed, union = mixup(h1, mask1, h2, mask2, lam)
    noisy, scale = inject_noise(mixed, union, np.random.default_rng(noise_seed), 0.4, 0.2)
    cache = {}
    e = run_from_layer(p, noisy, union, rl, cache=cache)
    _, dlogits = mixup_loss(head_logits(p, e))
    grads = Grads(p)
    de = head_backward(p, e, dlogits, grads)
    dh = backward_from_layer(p, cache, de, grads)
    dmixed = dh * union[:, :, None] * scale
    analytic = {"h1": lam * dmixed, "h2": (1.0 - lam) * dmixed}

    rng = np.random.default_rng(23)
    eps = 1e-5
    worst = 0.0
    for name, target in (("h1", h1), ("h2", h2)):
        flat = rng.choice(target.size, size=60, replace=False)
        for f in flat:
            idx = np.unravel_index(int(f), target.shape)
            orig = target[idx]
            target[idx] = orig + eps
            f_plus = loss_of(h1, h2)
            target[idx] = orig - eps
            f_minus = loss_of(h1, h2)
            target[idx] = orig
            fd = (f_plus - f_minus) / (2 * eps)
            an = float(analytic[name][idx])
            denom = max(abs(fd), abs(an))
            if denom < 1e-6:
                assert abs(fd - an) <= 1e-8
            else:
                worst = max(worst, abs(fd - an) / denom)
    assert worst < REL_TOL
