"""Reverse-pass gradients against finite differences of the forward pass."""

import numpy as np
import pytest

from snoic.augment import inject_noise, mixup
from snoic.encoder import (
    Packing,
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
    attention_on,
    build_cases,
    max_rel_err,
    packing,
    real_of,
    tiny_batch,
    tiny_pair,
    tiny_params,
    unpacked,
)


@attention_on("attn")
@pytest.mark.parametrize("case", ["pretrain_ce", "soft_kl", "open_ce", "blended"])
def test_parameter_gradients_match_finite_differences(attention, case):
    p = tiny_params(seed=3)
    batch = tiny_batch(11)
    pair = tiny_pair(12)
    cases = {name: (fn, grads) for name, fn, grads in build_cases(p, batch, pair)}
    value_fn, grads = cases[case]
    err, checked = max_rel_err(p, value_fn, grads, n_coords=60, seed=17)
    assert checked == 60
    assert err < REL_TOL


def test_unused_token_embedding_rows_get_zero_gradient():
    p = tiny_params(seed=3)
    batch = tiny_batch(11)
    unused = sorted(set(range(p.cfg.vocab_size)) - set(batch.tokens.reshape(-1).tolist()))
    assert unused, "batch unexpectedly covers the whole vocabulary"
    tape = TapedForward(p, batch)
    _, dlogits = pretrain_loss(tape.logits, batch.class_ids, p.M)
    grads = tape.backward(dlogits)
    for tid in unused:
        assert np.all(grads["token_embedding"][tid] == 0.0)


def test_padding_rows_get_zero_position_gradient():
    p = tiny_params(seed=4)
    batch = tiny_batch(13)
    # Shorten every row so the last position is padding everywhere.
    np.minimum(batch.lengths, batch.tokens.shape[1] - 1, out=batch.lengths)
    batch.tokens[:, -1] = 0
    tape = TapedForward(p, batch)
    _, dlogits = pretrain_loss(tape.logits, batch.class_ids, p.M)
    grads = tape.backward(dlogits)
    assert np.all(grads["position_embedding"][-1] == 0.0)


@attention_on("attn")
def test_cut_point_gradients_split_by_mixing_weight(attention):
    """d loss / d h1 is lam * scale times the resumed gradient at h1's
    union rows, and d loss / d h2 carries the (1 - lam) share; both match
    FD probes of the packed rows through the mix, noise, and resume chain."""
    p = tiny_params(seed=3)
    pair = tiny_pair(19)
    rl = 1
    lam = 0.37
    noise_seed = 55
    real1, real2 = real_of(pair.first), real_of(pair.second)
    on = real1 | real2
    pu = Packing(np.maximum(pair.first.lengths, pair.second.lengths), on.shape[1], np.float64)
    h1 = run_to_layer(p, pair.first.tokens, packing(pair.first), rl)
    h2 = run_to_layer(p, pair.second.tokens, packing(pair.second), rl)

    def noisy_of(a, b):
        mixed = mixup(unpacked(a, real1)[on], unpacked(b, real2)[on], lam)
        return inject_noise(mixed, np.random.default_rng(noise_seed), 0.4, 0.2)

    def loss_of(a, b):
        e = run_from_layer(p, noisy_of(a, b)[0], pu, rl)
        return mixup_loss(head_logits(p, e))[0]

    noisy, scale = noisy_of(h1, h2)
    cache = {}
    e = run_from_layer(p, noisy, pu, rl, cache=cache)
    _, dlogits = mixup_loss(head_logits(p, e))
    grads = p.with_flat(np.empty_like(p.flat))
    de = head_backward(p, e, dlogits, grads)
    dh = backward_from_layer(p, cache, de, grads)
    assert not dh[0].any()
    dmixed = unpacked(dh[1:] * scale, on)
    analytic = {"h1": lam * dmixed[real1], "h2": (1.0 - lam) * dmixed[real2]}

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
