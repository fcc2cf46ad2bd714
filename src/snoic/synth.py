"""Seeded synthetic intent corpus for desk-scale open-set experiments.

Eight intent classes, each with a pool of core words unique to the class
plus a few polysemous words shared with one partner class (book a flight
or a table, cancel an alarm or a booking), on top of neutral fillers.
Every utterance mixes core, shared, and filler words in shuffled order,
and a small fraction carries a unique rare token so min_freq >= 2
vocabularies expose the model to unknown ids during training.

When a class split hides some classes from training, their core words
map to the unknown id at test time while their shared words may stay in
vocabulary and point at a known partner class. Hidden-class utterances
therefore look like weak, partly out-of-vocabulary examples of known
intents rather than pure noise, which is what makes rejecting them a
calibration problem instead of a token-counting trick.

Run as a module to write train/val/test JSON Lines files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, integer

CORE_WORDS: dict[str, list[str]] = {
    "alarms": ["alarm", "wake", "timer", "snooze", "clock", "remind", "morning", "nap"],
    "banking": ["balance", "account", "transfer", "deposit", "loan", "savings", "withdraw", "interest"],
    "email": ["email", "inbox", "reply", "attachment", "draft", "compose", "subject", "unread"],
    "flights": ["flight", "plane", "airport", "ticket", "gate", "airline", "boarding", "layover"],
    "food": ["pizza", "restaurant", "burger", "menu", "delivery", "sushi", "dinner", "lunch"],
    "music": ["song", "music", "album", "band", "playlist", "volume", "singer", "radio"],
    "sports": ["score", "game", "team", "match", "football", "league", "player", "season"],
    "weather": ["weather", "rain", "sunny", "forecast", "temperature", "snow", "wind", "storm"],
}

# each word list is shared by exactly the two named classes
SHARED_WORDS: dict[tuple[str, str], list[str]] = {
    ("alarms", "flights"): ["schedule", "cancel", "change", "delay"],
    ("banking", "food"): ["order", "pay", "charge", "bill"],
    ("email", "weather"): ["check", "update", "alert", "daily"],
    ("music", "sports"): ["play", "live", "start", "top"],
}

FILLER_WORDS = [
    "please", "can", "you", "me", "the", "a", "my",
    "for", "today", "now", "i", "want", "to", "this",
]

RARE_TOKEN_RATE = 0.08

_ROLE_INDEX = {"train": 0, "val": 1, "test": 2}


def class_names() -> list[str]:
    return sorted(CORE_WORDS)


# raw 64-bit outputs a draw source takes from its stream per random_raw call
_CHUNK = 2048


class _Draws:
    """numpy Generator draws replayed from one PCG64 stream's raw 64-bit
    outputs, taken _CHUNK at a time. Each method returns what the Generator
    method it names returns on a generator over the same stream, and uses
    up the same outputs. A 32-bit draw takes the low half of the next
    output and keeps its high half for the next 32-bit draw, across any
    random() in between, as PCG64's has_uint32 and uinteger do. Outputs
    taken but not drawn are never seen, as each stream has one source."""

    def __init__(self, bit_generator: np.random.PCG64):
        self.bit_generator = bit_generator
        self.words: list[int] = []
        self.pos = 0  # outputs of words used up
        self.has_half = False
        self.half = 0  # the kept high half, stale once has_half is False

    def _word(self) -> int:
        if self.pos == len(self.words):
            self.words, self.pos = self.bit_generator.random_raw(_CHUNK).tolist(), 0
        self.pos += 1
        return self.words[self.pos - 1]

    def _uint32(self) -> int:
        if self.has_half:
            self.has_half = False
            return self.half
        word = self._word()
        self.has_half, self.half = True, word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """random(): the top 53 bits of one output, times 2**-53."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        """integers(0, n) for 1 <= n < 2**32: Lemire's bounded 32-bit draw,
        none at n == 1."""
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32

    def sample(self, pop: int, size: int) -> list[int]:
        """choice(pop, size, replace=False) for size <= pop <= 10000: Floyd's
        draws in [0, j] for j from pop - size to pop - 1, then a shuffle of
        the picks with draws in [0, i] for i from size - 1 down to 1."""
        picks: list[int] = []
        for j in range(pop - size, pop):
            d = self.integers(j + 1)
            picks.append(j if d in picks else d)
        for i in range(size - 1, 0, -1):
            d = self.integers(i + 1)
            picks[i], picks[d] = picks[d], picks[i]
        return picks

    def shuffle(self, x: list) -> None:
        """shuffle(x) in place, the order permutation(len(x)) gives: Fisher-
        Yates from the top, each swap index a 32-bit draw masked to i's bit
        length and drawn again while above i."""
        for i in range(len(x) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            x[i], x[j] = x[j], x[i]


def _make_sentence(draws: _Draws, core: list[str], shared: list[str], rare: str | None) -> str:
    """The draws of scalar integers() for the three counts, choice(...,
    replace=False) for the core and shared words, integers() for the
    fillers and permutation() for the word order, in that order."""
    n_core, n_shared, n_filler = 1 + draws.integers(3), 1 + draws.integers(2), 1 + draws.integers(3)
    picks = [core[i] for i in draws.sample(len(core), n_core)]
    picks += [shared[i] for i in draws.sample(len(shared), n_shared)]
    picks += [FILLER_WORDS[draws.integers(len(FILLER_WORDS))] for _ in range(n_filler)]
    if rare is not None:
        picks.append(rare)
    draws.shuffle(picks)
    return " ".join(picks)


def generate_role(role: str, seed: int, per_class: int) -> list[dict]:
    """Deterministic per-(role, class) example streams across count changes."""
    if role not in _ROLE_INDEX:
        raise ValueError(f"role must be train, val, or test, got {role!r}")
    rows = []
    for ci, label in enumerate(class_names()):
        core = CORE_WORDS[label]
        shared = [w for pair, words in sorted(SHARED_WORDS.items()) if label in pair for w in words]
        # the stream of default_rng([seed, role, class])
        draws = _Draws(np.random.PCG64([seed, _ROLE_INDEX[role], ci]))
        for j in range(per_class):
            rare = None
            if draws.random() < RARE_TOKEN_RATE:
                rare = f"zq{_ROLE_INDEX[role]}x{ci}x{j}"
            rows.append({"text": _make_sentence(draws, core, shared, rare), "label": label})
    return rows


def write_corpus(
    out_dir: str,
    seed: int = 0,
    train_per_class: int = 220,
    val_per_class: int = 60,
    test_per_class: int = 60,
) -> dict[str, str]:
    """Write train/val/test JSON Lines files; returns their paths."""
    integer("seed", seed, 0, ConfigError)
    counts = {"train": train_per_class, "val": val_per_class, "test": test_per_class}
    for role, per_class in counts.items():
        integer(f"{role}_per_class", per_class, 1, ConfigError)
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for role, per_class in counts.items():
        path = os.path.join(out_dir, f"{role}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            # the bytes of json.dumps(row, sort_keys=True), one line per row
            f.writelines(
                f'{{"label": {json.dumps(row["label"])}, "text": {json.dumps(row["text"])}}}\n'
                for row in generate_role(role, seed, per_class)
            )
        paths[role] = path
    return paths


def main(argv: list[str] | None = None) -> int:
    """Exit 0 on success, 1 when the files cannot be written, 2 on bad usage."""
    parser = argparse.ArgumentParser(description="generate the synthetic intent corpus")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-per-class", type=int, default=220)
    parser.add_argument("--val-per-class", type=int, default=60)
    parser.add_argument("--test-per-class", type=int, default=60)
    args = parser.parse_args(argv)
    try:
        paths = write_corpus(
            args.out, args.seed, args.train_per_class, args.val_per_class, args.test_per_class
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for role, path in paths.items():
        print(f"{role}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
