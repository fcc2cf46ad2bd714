"""Synthetic corpus: pinned file bytes, the scan replayed draw for draw, and exact quoting."""

import hashlib
import json
import random
import re
import tracemalloc
from collections import Counter
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


def stream_halves(seed, outputs):
    """The 32-bit halves of a PCG64 stream's first ``outputs`` raw outputs,
    each output's low half, then its high half."""
    return [w >> s & 0xFFFFFFFF for w in np.random.PCG64(seed).random_raw(outputs).tolist() for s in (0, 32)]


def rebuilt_state(seed, halves, h):
    """The PCG64 state of a Generator that drew ``halves`` up to index h:
    every output up to the one holding halves[h] used up, and PCG64's kept
    32-bit half, held if halves[h] is a low half and stale if a high one."""
    state = np.random.PCG64(seed).advance(h // 2 + 1).state
    state["has_uint32"], state["uinteger"] = int(h % 2 == 0), halves[h | 1]
    return state


class PerDraw:
    """numpy Generator's draws, one Python call each, over a list of 32-bit
    halves laid out as ``synth._sentence`` reads them. It counts every
    redraw and every draw accepted at the threshold, by bound."""

    def __init__(self, halves):
        self.halves = halves
        self.next = 0  # the low half of the first output not drawn from
        self.kept = None  # the index of PCG64's kept high half, if held
        self.latest = None  # the index of the last high half kept, held or not
        self.redraws, self.at_threshold, self.masked = Counter(), Counter(), Counter()

    def uint32(self):
        if self.kept is not None:
            i, self.kept = self.kept, None
        else:
            i, self.kept, self.next = self.next, self.next + 1, self.next + 2
            self.latest = self.kept
        return self.halves[i]

    def random(self):
        lo, hi = self.halves[self.next], self.halves[self.next + 1]
        self.next += 2
        return ((hi << 32 | lo) >> 11) * 2.0**-53

    def integers(self, n):
        if n == 1:
            return 0
        threshold = (2**32 - n) % n
        m = self.uint32() * n
        while m & 0xFFFFFFFF < threshold:
            self.redraws[n] += 1
            m = self.uint32() * n
        self.at_threshold[n] += m & 0xFFFFFFFF == threshold
        return m >> 32

    def choice(self, pop, size):
        picks = []
        for j in range(pop - size, pop):
            d = self.integers(j + 1)
            picks.append(j if d in picks else d)
        for i in range(size - 1, 0, -1):
            d = self.integers(i + 1)
            picks[i], picks[d] = picks[d], picks[i]
        return picks

    def permutation(self, n):
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.uint32() & mask
            while j > i:
                self.masked[i] += 1
                j = self.uint32() & mask
            order[i], order[j] = order[j], order[i]
        return order

    def sentence(self, core, shared, rare):
        carries = self.random() < synth.RARE_TOKEN_RATE
        n_core, n_shared, n_filler = 1 + self.integers(3), 1 + self.integers(2), 1 + self.integers(3)
        picks = [core[i] for i in self.choice(len(core), n_core)]
        picks += [shared[i] for i in self.choice(len(shared), n_shared)]
        picks += [FILLER_WORDS[self.integers(len(FILLER_WORDS))] for _ in range(n_filler)]
        if carries:
            picks.append(rare)
        return " ".join(picks[i] for i in self.permutation(len(picks)))

    def last(self):
        """The index of the last half drawn."""
        return self.next - 1 if self.kept is None else self.kept - 1

    def state(self, seed):
        """The PCG64 state of a Generator on stream ``seed`` that drew what this drew."""
        state = np.random.PCG64(seed).advance(self.next // 2).state
        state["has_uint32"] = int(self.kept is not None)
        state["uinteger"] = 0 if self.latest is None else self.halves[self.latest]
        return state


# The per-draw reference is the oracle of the crafted-halves tests below;
# these three check it draw for draw against numpy's Generator.


@pytest.mark.parametrize("n", [1, 2, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_integers_replay_lemire(n):
    """PerDraw.integers(n) is integers(0, n) value for value and state for
    state, rejections included: at 2**31 + 1 about half the 32-bit draws
    are rejected and at 3 * 2**30 a quarter; at n == 1 nothing is drawn."""
    per_draw, ref = PerDraw(stream_halves(5, 6000)), np.random.default_rng(5)
    for i in range(2100):
        assert per_draw.integers(n) == ref.integers(0, n), i
        assert per_draw.state(5) == ref.bit_generator.state, i
    taken = per_draw.next - (per_draw.kept is not None)  # 32-bit draws
    assert taken == 0 if n == 1 else taken >= 2100
    if n in (2**31 + 1, 3 * 2**30):
        assert per_draw.redraws[n] > 400


def test_shuffle_replays_permutation():
    """PerDraw.permutation(n) is permutation(n), masked rejections included."""
    per_draw, ref = PerDraw(stream_halves(6, 6000)), np.random.default_rng(6)
    for n in list(range(1, 41)) * 3:
        assert per_draw.permutation(n) == ref.permutation(n).tolist(), n
        assert per_draw.state(6) == ref.bit_generator.state, n
    assert sum(per_draw.masked.values()) > 500


def test_random_keeps_the_held_half():
    """A random() between two 32-bit draws takes a whole output and leaves
    the half kept by an odd run of 32-bit draws for the next one."""
    per_draw, ref = PerDraw(stream_halves(7, 2000)), np.random.default_rng(7)
    for i, run in enumerate([1, 3, 0, 2, 5, 1, 1, 4, 7, 0, 0, 3] * 20):
        for _ in range(run):
            assert per_draw.integers(7) == ref.integers(0, 7), i
        assert per_draw.random() == ref.random(), i
        assert per_draw.state(7) == ref.bit_generator.state, i


def test_pools_have_the_sizes_the_scan_draws_from():
    """_sentence's bounds are written for 8 core words, 4 shared words and
    14 fillers; a pool of another size would draw the wrong words."""
    assert len(FILLER_WORDS) == 14
    for label in class_names():
        assert len(CORE_WORDS[label]) == 8 and len(shared_pool(label)) == 4, label


@pytest.mark.parametrize("seed", [0, 11])
def test_every_sentence_consumes_the_reference_draws(seed):
    """After each sentence the scan's text equals the reference's, drawn
    with numpy's Generator and replayed per draw, and the PCG64 state rebuilt
    from its last half (the kept 32-bit half included) equals the
    Generator's, for every (core, shared, filler) count combination with
    and without a rare token; some sentences start on a kept half."""
    labels = class_names()
    halves = stream_halves(seed, 2400 * 12)
    ref, per_draw = np.random.default_rng(seed), PerDraw(halves)
    h, seen, kept = -1, set(), 0
    for i in range(2400):
        label = labels[i % len(labels)]
        core, shared = CORE_WORDS[label], shared_pool(label)
        kept += h % 2 == 0
        text, h = synth._sentence(halves, h, core, shared, f"zq{i}")
        rare = f"zq{i}" if ref.random() < synth.RARE_TOKEN_RATE else None
        assert text == reference_sentence(ref, core, shared, rare) == per_draw.sentence(core, shared, f"zq{i}"), i
        assert rebuilt_state(seed, halves, h) == ref.bit_generator.state, i
        assert h == per_draw.last(), i
        words = text.split()
        counts = tuple(sum(w in pool for w in words) for pool in (core, shared, FILLER_WORDS))
        seen.add(counts + (rare is not None,))
    assert seen == set(product((1, 2, 3), (1, 2), (1, 2, 3), (False, True)))
    assert 500 < kept < 1900


def redrawn_at(n):
    """Every 32-bit x whose Lemire product x * n has low bits at most the
    threshold (2**32 - n) % n: the redrawn ones and the first accepted."""
    threshold = (2**32 - n) % n
    return [(k << 32 | r) // n for k in range(n) for r in range(threshold + 1) if (k << 32 | r) % n == 0]


def crafted_halves(seed, size, special):
    """Halves drawn half from ``special``, half uniformly."""
    gen = random.Random(seed)
    return [gen.choice(special) if gen.random() < 0.5 else gen.getrandbits(32) for _ in range(size)]


def scan_equals_per_draw(halves, sentences):
    """Scan ``sentences`` sentences of ``halves`` and check each against
    PerDraw; returns the PerDraw."""
    labels, per_draw, h = class_names(), PerDraw(halves), -1
    for i in range(sentences):
        label = labels[i % len(labels)]
        core, shared = CORE_WORDS[label], shared_pool(label)
        text, h = synth._sentence(halves, h, core, shared, f"zq{i}")
        assert text == per_draw.sentence(core, shared, f"zq{i}"), i
        assert h == per_draw.last(), i
    return per_draw


@pytest.mark.parametrize("n,threshold", [(3, 1), (6, 4), (7, 4), (14, 4)])
def test_lemire_redraws_below_the_threshold(n, threshold):
    """The bounded draws the corpus makes at n = 3, 6, 7 and 14 redraw
    below their thresholds and accept at them: on halves crafted from the
    32-bit values whose products land there (a zero half at n = 3), the
    scan equals the per-draw reference, which saw both happen."""
    assert (2**32 - n) % n == threshold
    special = redrawn_at(n)
    assert 0 in special and len(special) >= 2
    per_draw = scan_equals_per_draw(crafted_halves(n, 40000, special), 1500)
    assert per_draw.redraws[n] >= 5 and per_draw.at_threshold[n] >= 5, (per_draw.redraws, per_draw.at_threshold)


def test_permutation_redraws_above_the_bound():
    """The word-order shuffle draws again while its masked draw is above i,
    at every i whose mask can exceed it (2, 4, 5, 6 and 8), also at a
    9-word sentence; the 32-bit values are crafted to make rare tokens
    common."""
    # near 2**32 with low bits above the masked bounds: the largest counts
    # and masked redraws; near 0: random() < RARE_TOKEN_RATE
    special = [0xFFFFFFF0 | b for b in (3, 5, 6, 7, 9, 11, 13, 14, 15)] + [0, 1, 2]
    per_draw = scan_equals_per_draw(crafted_halves(5, 60000, special), 2000)
    assert all(per_draw.masked[i] >= 5 for i in (2, 4, 5, 6, 8)), per_draw.masked


def test_a_kept_half_crosses_random():
    """A sentence ending on a low half hands that output's high half to the
    next sentence as its first 32-bit draw, across the next random(); here
    the kept half is zero, so the first count is drawn again at n = 3."""
    # random() below RARE_TOKEN_RATE; counts 1, 1, 1; the core, shared and
    # filler word; three swaps that keep the order: 9 draws, ending on the
    # low half of output 5. Then the kept zero and the next random().
    halves = [0, 0, 1, 1, 1, 1, 1, 1, 3, 2, 1] + [0] + [0x9ABCDEF0, 0xFFFFFFFF]
    halves += [0x12345678, 0x9ABCDEF0, 0xFFFFFFFF] * 20
    core, shared = CORE_WORDS["alarms"], shared_pool("alarms")
    assert synth._sentence(halves, -1, core, shared, "zq0") == ("alarm schedule please zq0", 10)
    per_draw = scan_equals_per_draw(halves, 2)
    assert per_draw.redraws[3] >= 1 and per_draw.last() > 14


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_chunks_of_any_size_give_the_same_rows(monkeypatch, chunk):
    """generate_role gives the per-draw reference's rows when each
    random_raw call returns only ``chunk`` outputs: some sentences
    straddle two chunks (or more), and some kept halves sit in one chunk
    while random() reads the next."""
    straddles = kept_across = 0
    expected = []
    for ci, label in enumerate(class_names()):
        halves = stream_halves([9, 1, ci], 300 * 12)
        per_draw, last = PerDraw(halves), -1
        core, shared = CORE_WORDS[label], shared_pool(label)
        for j in range(300):
            text = per_draw.sentence(core, shared, f"zq1x{ci}x{j}")
            expected.append({"text": text, "label": label})
            if last % 2 == 0 and (last + 2) % (2 * chunk) == 0:
                kept_across += 1
            straddles += (last + 1) // (2 * chunk) != per_draw.last() // (2 * chunk)
            last = per_draw.last()
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    assert synth.generate_role("val", 9, 300) == expected
    assert straddles >= 50 and kept_across >= 3, (straddles, kept_across)


def test_transient_memory_stays_within_a_chunk():
    """generate_role keeps at most about one chunk of halves alive: its
    traced peak above the rows it returns stays within 256 KB."""
    synth.generate_role("test", 3, 4)
    tracemalloc.start()
    try:
        rows = synth.generate_role("test", 3, 1024)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 1024 * len(class_names())
    assert peak - retained <= 256 * 1024, peak - retained


def generated_words():
    """Every word the generator can emit, from its pools and its rare-token
    format: each role and class index at rows 0 and 10**6."""
    words = {w for pool in CORE_WORDS.values() for w in pool}
    words |= {w for pool in SHARED_WORDS.values() for w in pool}
    words |= set(FILLER_WORDS) | set(class_names())
    rare = {f"zq{r}x{ci}x{j}" for r in synth._ROLE_INDEX.values() for ci in range(len(class_names())) for j in (0, 10**6)}
    return words, rare


def test_every_word_is_plain_ascii():
    """write_corpus quotes labels and texts without escaping, which is exact
    because every word it can write is lowercase ASCII letters and digits;
    a generated role uses no other word."""
    words, rare = generated_words()
    for word in words | rare:
        assert re.fullmatch("[a-z0-9]+", word), word
    for row in synth.generate_role("train", 4, 50):
        assert row["label"] in words
        for word in row["text"].split():
            assert word in words or re.fullmatch(r"zq0x\d+x\d+", word), word


@pytest.mark.parametrize("kwargs", [{"seed": 0}, {"seed": 2477, "test_per_class": 1024}])
def test_every_line_is_json_dumps_of_its_row(tmp_path, kwargs):
    """Each line write_corpus writes is json.dumps(row, sort_keys=True) of
    its generate_role row, for the default corpus and a perfbench one."""
    paths = write_corpus(str(tmp_path), **kwargs)
    counts = {"train": 220, "val": 60, "test": kwargs.get("test_per_class", 60)}
    for role, path in paths.items():
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        rows = synth.generate_role(role, kwargs["seed"], counts[role])
        assert lines == [json.dumps(row, sort_keys=True) for row in rows], role


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
