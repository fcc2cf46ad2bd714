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


# raw 64-bit outputs generate_role takes from a stream per random_raw call
_CHUNK = 2048

# Fisher-Yates masks: the smallest all-ones mask covering each swap bound i
_MASKS = [(1 << i.bit_length()) - 1 for i in range(9)]


def _sentence(halves: list[int], h: int, core: list[str], shared: list[str], rare: str) -> tuple[str, int]:
    """One sentence read from a stream's 32-bit halves: random() for the
    rare token, scalar integers() for the core, shared and filler counts,
    choice(..., replace=False) for the core and the shared words,
    integers() for the fillers and permutation() for the word order, each
    as numpy's Generator draws it. Returns the text and the index of the
    sentence's last half; raises IndexError, changing nothing, if
    ``halves`` ends first.

    ``halves`` holds each raw output's low half, then its high half, and
    ``h`` is the index of the last half the previous sentence drew (-1 at
    the start). random() takes the output after the one holding halves[h].
    If halves[h] is a low half, PCG64 keeps its high half, and that is the
    first 32-bit draw; the rest follow random()'s output in order.

    A draw in [0, n) is Lemire's x * n >> 32, drawn again while the low 32
    bits of x * n are below (2**32 - n) % n: 1 at n = 3, 4 at n = 6, 7 and
    14, and 0 at a power of two, where it is a shift (x >> 31 at n = 2).
    choice(pop, size) is Floyd's draws in [0, j] for j from pop - size to
    pop - 1, a repeat taking j, then a shuffle of the picks with draws in
    [0, i] for i from size - 1 down to 1. permutation() is Fisher-Yates
    from the top, each swap index a 32-bit draw masked to i's bit length
    and drawn again while above i. The bounds are those of 8 core words, 4
    shared words and 14 fillers."""
    H = halves
    # random()'s output, and the first 32-bit draw: the high half PCG64
    # kept, or else the low half of the output after random()'s
    if h & 1:
        rnd, u = H[h + 1] | H[h + 2] << 32, H[h + 3]
    else:
        rnd, u = H[h + 2] | H[h + 3] << 32, H[h + 1]
    p = h + 4
    m = u * 3
    while m & 0xFFFFFFFF < 1:
        m = H[p] * 3
        p += 1
    n_core = 1 + (m >> 32)
    n_shared = 1 + (H[p] >> 31)
    m = H[p + 1] * 3
    p += 2
    while m & 0xFFFFFFFF < 1:
        m = H[p] * 3
        p += 1
    n_filler = 1 + (m >> 32)
    # choice(8, n_core): Floyd's picks a, b, c, then their shuffle
    if n_core == 1:
        words = [core[H[p] >> 29]]
        p += 1
    elif n_core == 2:
        m = H[p] * 7
        p += 1
        while m & 0xFFFFFFFF < 4:
            m = H[p] * 7
            p += 1
        a, b = m >> 32, H[p] >> 29
        if b == a:
            b = 7
        words = [core[a], core[b]] if H[p + 1] >> 31 else [core[b], core[a]]
        p += 2
    else:
        m = H[p] * 6
        p += 1
        while m & 0xFFFFFFFF < 4:
            m = H[p] * 6
            p += 1
        a = m >> 32
        m = H[p] * 7
        p += 1
        while m & 0xFFFFFFFF < 4:
            m = H[p] * 7
            p += 1
        b = m >> 32
        if b == a:
            b = 6
        c = H[p] >> 29
        if c == a or c == b:
            c = 7
        m = H[p + 1] * 3
        p += 2
        while m & 0xFFFFFFFF < 1:
            m = H[p] * 3
            p += 1
        words = [core[a], core[b], core[c]]
        i = m >> 32
        words[2], words[i] = words[i], words[2]
        if not H[p] >> 31:
            words[0], words[1] = words[1], words[0]
        p += 1
    # choice(4, n_shared)
    if n_shared == 1:
        words.append(shared[H[p] >> 30])
        p += 1
    else:
        m = H[p] * 3
        p += 1
        while m & 0xFFFFFFFF < 1:
            m = H[p] * 3
            p += 1
        a, b = m >> 32, H[p] >> 30
        if b == a:
            b = 3
        words += (shared[a], shared[b]) if H[p + 1] >> 31 else (shared[b], shared[a])
        p += 2
    for _ in range(n_filler):
        m = H[p] * 14
        p += 1
        while m & 0xFFFFFFFF < 4:
            m = H[p] * 14
            p += 1
        words.append(FILLER_WORDS[m >> 32])
    if (rnd >> 11) * 2.0**-53 < RARE_TOKEN_RATE:
        words.append(rare)
    for i in range(len(words) - 1, 0, -1):
        mask = _MASKS[i]
        j = H[p] & mask
        p += 1
        while j > i:
            j = H[p] & mask
            p += 1
        words[i], words[j] = words[j], words[i]
    return " ".join(words), p - 1


def generate_role(role: str, seed: int, per_class: int) -> list[dict]:
    """Deterministic per-(role, class) example streams across count changes."""
    if role not in _ROLE_INDEX:
        raise ValueError(f"role must be train, val, or test, got {role!r}")
    rows = []
    ri = _ROLE_INDEX[role]
    for ci, label in enumerate(class_names()):
        core = CORE_WORDS[label]
        shared = [w for pair, words in sorted(SHARED_WORDS.items()) if label in pair for w in words]
        # the stream of default_rng([seed, role, class]), read one chunk at a time
        bit_generator = np.random.PCG64([seed, ri, ci])
        halves, h = [], -1
        for j in range(per_class):
            while True:
                try:
                    text, h = _sentence(halves, h, core, shared, f"zq{ri}x{ci}x{j}")
                    break
                except IndexError:
                    # out of halves: drop the outputs used up, keeping the
                    # one whose high half PCG64 still holds, and append the
                    # next chunk's (low half, then high half, on any byte order)
                    cut = h + 1 & ~1
                    del halves[:cut]
                    h -= cut
                    halves += bit_generator.random_raw(_CHUNK).astype("<u8", copy=False).view("<u4").tolist()
            rows.append({"text": text, "label": label})
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
            # the bytes of json.dumps(row, sort_keys=True): every label and
            # word is ASCII letters and digits, so nothing needs escaping
            f.writelines(
                f'{{"label": "{row["label"]}", "text": "{row["text"]}"}}\n'
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
