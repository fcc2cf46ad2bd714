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
import functools
import json
import os
import sys

import numpy as np

from .errors import ConfigError

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


# (low, high) of the core, shared and filler word counts
_COUNT_BOUNDS = (np.array([1, 1, 1]), np.array([4, 3, 4]))


def _sample_highs(pop: int, size: int) -> list[int]:
    """Exclusive highs of the draws numpy's choice(pop, size, replace=False)
    makes for small pools: Floyd's algorithm draws in [0, j] for j from
    pop - size to pop - 1, then its picks are shuffled with draws in [0, i]
    for i from size - 1 down to 1. Each is the bounded draw integers() uses."""
    return [j + 1 for j in range(pop - size, pop)] + [i + 1 for i in range(size - 1, 0, -1)]


def _sample(draws, pop: int, size: int) -> list[int]:
    """Replay choice(pop, size, replace=False), taking its _sample_highs
    draws from the iterator `draws` and no more."""
    picks = []
    for j, d in zip(range(pop - size, pop), draws):
        picks.append(j if d in picks else d)
    for i, d in zip(range(size - 1, 0, -1), draws):
        picks[i], picks[d] = picks[d], picks[i]
    return picks


@functools.cache
def _pick_highs(n_core: int, n_shared: int, n_filler: int, core_pool: int, shared_pool: int) -> np.ndarray:
    highs = _sample_highs(core_pool, n_core) + _sample_highs(shared_pool, n_shared)
    return np.array(highs + [len(FILLER_WORDS)] * n_filler)


def _make_sentence(rng: np.random.Generator, core: list[str], shared: list[str], rare: str | None) -> str:
    """Three Generator calls (four per sentence with generate_role's
    random()) that draw exactly what scalar integers() for the counts,
    choice(..., replace=False) for the core and shared words and integers()
    for the fillers draw, so the text equals a choice-based generator's."""
    n_core, n_shared, n_filler = rng.integers(*_COUNT_BOUNDS).tolist()
    draws = iter(rng.integers(0, _pick_highs(n_core, n_shared, n_filler, len(core), len(shared))).tolist())
    picks = [core[i] for i in _sample(draws, len(core), n_core)]
    picks += [shared[i] for i in _sample(draws, len(shared), n_shared)]
    picks += [FILLER_WORDS[i] for i in draws]
    if rare is not None:
        picks.append(rare)
    return " ".join([picks[i] for i in rng.permutation(len(picks)).tolist()])


def generate_role(role: str, seed: int, per_class: int) -> list[dict]:
    """Deterministic per-(role, class) example streams across count changes."""
    if role not in _ROLE_INDEX:
        raise ValueError(f"role must be train, val, or test, got {role!r}")
    rows = []
    for ci, label in enumerate(class_names()):
        core = CORE_WORDS[label]
        shared = [w for pair, words in sorted(SHARED_WORDS.items()) if label in pair for w in words]
        rng = np.random.default_rng([seed, _ROLE_INDEX[role], ci])
        for j in range(per_class):
            rare = None
            if rng.random() < RARE_TOKEN_RATE:
                rare = f"zq{_ROLE_INDEX[role]}x{ci}x{j}"
            rows.append({"text": _make_sentence(rng, core, shared, rare), "label": label})
    return rows


def write_corpus(
    out_dir: str,
    seed: int = 0,
    train_per_class: int = 220,
    val_per_class: int = 60,
    test_per_class: int = 60,
) -> dict[str, str]:
    """Write train/val/test JSON Lines files; returns their paths."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    counts = {"train": train_per_class, "val": val_per_class, "test": test_per_class}
    for role, per_class in counts.items():
        if per_class < 1:
            raise ConfigError(f"{role}_per_class must be at least 1, got {per_class}")
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
