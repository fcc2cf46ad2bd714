"""Synthetic corpus: pinned file bytes and draw-for-draw RNG accounting."""

import hashlib
from itertools import product

import numpy as np
import pytest

from snoic import synth
from snoic.synth import CORE_WORDS, FILLER_WORDS, SHARED_WORDS, class_names, write_corpus

# sha256 of train/val/test.jsonl; the acceptance grid, the golden fixture
# and every perfbench set-up read these files, so they must not change
DEFAULT_DIGESTS = {
    "train": "2e11cb4f3b24772e5fcd3300f2a45d2ff0f0e821cbe868ea13705c401ae293a9",
    "val": "d7fb5fe924497813bd96beb56b48eb21e4bfcb853f3bcf809bbe3c24ae6bb37c",
    "test": "a87cbcf1d91dcf44a84db1f13cd81be4681d2d355d3a8255d482cdd559af5342",
}

# perfbench corpora: default train/val counts, test_per_class 1024 or 512
BENCH_DIGESTS = {
    1: {
        "train": "b35f8c62ca1cfb949c98444359b4e66d7f7512fa95ad9312d2ad931dbf4c045a",
        "val": "6c8b9227bd727360352316f0c279eca9e1092991607cd64a5d18b660a38b13fb",
        1024: "cbe6402b222e8a281498aa9749d0939bec0dda7b5f25bdf09fcb432e5dc5fc62",
        512: "6bd83f76c37d73b9c913bb5522414730e0bb8b199b515c08ed811a2b2fa263e9",
    },
    2477: {
        "train": "cf3da38419430570b149a7ac0df8492cbd4be09b9b799c1edd1acad202beca3b",
        "val": "5f1a8b6244f85fadbcbc6f551bb2fd1c5d5e6d8d953b788098bbbc7ae984cbd2",
        1024: "0743cfc571714d1d8a272f269dd47109f396c10bf663b27f72a2e656accde5af",
        512: "8ba52882631a6e6a2e23bfebe1fe858fb9fdd8071ab9d9d393d7d7d23340bb1f",
    },
    90001: {
        "train": "a2a4600d9d273ecc8bb7bfe629a40f113f532b1d36c0ca1eb2b379f5b6650f9d",
        "val": "3b0d366e39a4fc438a7e8182068017e28ab9b289b6f2521ba671d0856f64150d",
        1024: "6948b64b1fb567e62a61e9af58896c2212469bb8c69518344317b054d53a77f0",
        512: "9a212e22571fbb7050df383b1b2a3f29b65d7cd7c3f1895c30497b134c5a127d",
    },
}


def file_digests(paths):
    return {role: hashlib.sha256(open(path, "rb").read()).hexdigest() for role, path in paths.items()}


def reference_sentence(rng, core, shared, rare):
    """The choice-based sentence the replay reproduces: eight Generator
    calls, two of them choice(..., replace=False)."""
    n_core = int(rng.integers(1, 4))
    n_shared = int(rng.integers(1, 3))
    n_filler = int(rng.integers(1, 4))
    picks = [core[i] for i in rng.choice(len(core), size=n_core, replace=False)]
    picks += [shared[i] for i in rng.choice(len(shared), size=n_shared, replace=False)]
    picks += [FILLER_WORDS[i] for i in rng.integers(0, len(FILLER_WORDS), size=n_filler)]
    if rare is not None:
        picks.append(rare)
    order = rng.permutation(len(picks))
    return " ".join(picks[i] for i in order)


def shared_pool(label):
    return [w for pair, words in sorted(SHARED_WORDS.items()) if label in pair for w in words]


def test_default_corpus_bytes_are_pinned(tmp_path):
    assert file_digests(write_corpus(str(tmp_path), seed=0)) == DEFAULT_DIGESTS


@pytest.mark.parametrize("seed,test_per_class", list(product(BENCH_DIGESTS, (1024, 512))))
def test_bench_corpus_bytes_are_pinned(tmp_path, seed, test_per_class):
    pinned = BENCH_DIGESTS[seed]
    expected = {"train": pinned["train"], "val": pinned["val"], "test": pinned[test_per_class]}
    assert file_digests(write_corpus(str(tmp_path), seed=seed, test_per_class=test_per_class)) == expected


class CountingPCG64(np.random.PCG64):
    """A PCG64 stream that records how many raw outputs each random_raw call asks for."""

    def __init__(self, seed=None):
        super().__init__(seed)
        self.requests = []

    def random_raw(self, size=None, output=True):
        self.requests.append(size)
        return super().random_raw(size, output)


def consumed(draws):
    """The raw outputs ``draws`` has used up."""
    return sum(draws.bit_generator.requests) - (len(draws.words) - draws.pos)


def replayed_state(seed, draws):
    """The PCG64 state of a Generator that drew what ``draws`` drew: the
    outputs it consumed, and its kept 32-bit half (held or stale)."""
    state = np.random.PCG64(seed).advance(consumed(draws)).state
    state["has_uint32"], state["uinteger"] = int(draws.has_half), draws.half
    return state


def draw_pair(seed):
    return synth._Draws(CountingPCG64(seed)), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [0, 11])
def test_every_sentence_consumes_the_reference_draws(seed):
    """After each sentence the text and the full bit-generator state (the
    kept half of a 64-bit PCG64 output included) equal the reference's,
    for every (core, shared, filler) count combination with and without a
    rare token."""
    labels = class_names()
    draws, ref = draw_pair(seed)
    seen = set()
    for i in range(2400):
        label = labels[i % len(labels)]
        core, shared = CORE_WORDS[label], shared_pool(label)
        rare = f"zq{i}" if i % 3 == 0 else None
        text = synth._make_sentence(draws, core, shared, rare)
        assert text == reference_sentence(ref, core, shared, rare), i
        assert replayed_state(seed, draws) == ref.bit_generator.state, i
        words = text.split()
        counts = tuple(sum(w in pool for w in words) for pool in (core, shared, FILLER_WORDS))
        seen.add(counts + (rare is not None,))
    assert seen == set(product((1, 2, 3), (1, 2), (1, 2, 3), (False, True)))


@pytest.mark.parametrize("n", [1, 2, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_integers_replay_lemire(n):
    """integers(0, n) value for value and state for state, rejections
    included: at 2**31 + 1 about half the 32-bit draws are rejected and at
    3 * 2**30 a quarter; at n == 1 nothing is drawn."""
    draws, ref = draw_pair(5)
    for i in range(2100):
        assert draws.integers(n) == ref.integers(0, n), i
        assert replayed_state(5, draws) == ref.bit_generator.state, i
    taken = 2 * consumed(draws) - draws.has_half  # 32-bit draws
    assert taken == 0 if n == 1 else taken >= 2100
    if n in (2**31 + 1, 3 * 2**30):
        assert taken > 2500


def test_shuffle_replays_permutation():
    """shuffle(list(range(n))) is permutation(n), masked rejections included."""
    draws, ref = draw_pair(6)
    for n in list(range(1, 41)) * 3:
        order = list(range(n))
        draws.shuffle(order)
        assert order == ref.permutation(n).tolist(), n
        assert replayed_state(6, draws) == ref.bit_generator.state, n


def test_random_keeps_the_held_half():
    """A random() between two 32-bit draws takes a whole output and leaves
    the half kept by an odd run of 32-bit draws for the next one."""
    draws, ref = draw_pair(7)
    for i, run in enumerate([1, 3, 0, 2, 5, 1, 1, 4, 7, 0, 0, 3] * 20):
        for _ in range(run):
            assert draws.integers(7) == ref.integers(0, 7), i
        assert draws.random() == ref.random(), i
        assert replayed_state(7, draws) == ref.bit_generator.state, i
        assert draws.has_half == bool(ref.bit_generator.state["has_uint32"])


def test_a_role_draws_raw_chunks_and_no_generator(monkeypatch):
    """generate_role reads each (role, class) stream through random_raw,
    _CHUNK outputs a call, and builds no Generator: every output each
    stream advanced by was returned by a random_raw call."""
    streams = []

    def counting(seed):
        streams.append(CountingPCG64(seed))
        return streams[-1]

    def no_generator(*args, **kwargs):
        raise AssertionError("generate_role built a numpy Generator")

    monkeypatch.setattr(np.random, "PCG64", counting)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    per_class = 1024
    rows = synth.generate_role("val", 3, per_class)
    monkeypatch.undo()
    assert len(rows) == per_class * len(class_names()) and len(streams) == len(class_names())
    for ci, stream in enumerate(streams):
        # a sentence takes about 9 outputs, so a call serves about 200 sentences
        assert 1 <= len(stream.requests) <= 1 + per_class * 10 // synth._CHUNK, ci
        assert stream.requests == [synth._CHUNK] * len(stream.requests), ci
        fresh = np.random.PCG64([3, 1, ci]).advance(sum(stream.requests))
        assert stream.state["state"] == fresh.state["state"] and not stream.state["has_uint32"], ci
