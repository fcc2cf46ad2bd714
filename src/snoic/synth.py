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

import numpy as np

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


def _make_sentence(rng: np.random.Generator, core: list[str], shared: list[str], rare: str | None) -> str:
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
    os.makedirs(out_dir, exist_ok=True)
    counts = {"train": train_per_class, "val": val_per_class, "test": test_per_class}
    paths = {}
    for role, per_class in counts.items():
        path = os.path.join(out_dir, f"{role}.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for row in generate_role(role, seed, per_class):
                f.write(json.dumps(row, sort_keys=True))
                f.write("\n")
        paths[role] = path
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="generate the synthetic intent corpus")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-per-class", type=int, default=220)
    parser.add_argument("--val-per-class", type=int, default=60)
    parser.add_argument("--test-per-class", type=int, default=60)
    args = parser.parse_args(argv)
    paths = write_corpus(
        args.out, args.seed, args.train_per_class, args.val_per_class, args.test_per_class
    )
    for role, path in paths.items():
        print(f"{role}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
