"""Dataset ingestion, vocabulary, known/open split protocol, and batch assembly.

Datasets are JSON Lines files of ``{"text": ..., "label": ...}`` objects.
A seeded :class:`SplitSpec` partitions the intent label set into M known
classes (ids 1..M) and the remaining open classes (all mapped to id M+1 at
test time). Batching is deterministic given (seed, epoch), and
:func:`pair_batches` produces aligned batch pairs whose same-position
examples always carry different intents, as required by the mixup stage.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, PairingError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: str


@dataclass
class Dataset:
    examples: list[LabeledExample]
    label_set: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.label_set:
            self.label_set = sorted({ex.label for ex in self.examples})

    def __len__(self) -> int:
        return len(self.examples)


def load_dataset(path: str) -> Dataset:
    """Load a JSON Lines dataset of {"text", "label"} objects."""
    examples = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            for key in ("text", "label"):
                if key not in obj:
                    raise DataError(f"{path}:{lineno}: missing field {key!r}")
                if not isinstance(obj[key], str):
                    raise DataError(f"{path}:{lineno}: field {key!r} must be a string")
            if not obj["text"].strip():
                raise DataError(f"{path}:{lineno}: empty text")
            if not obj["label"]:
                raise DataError(f"{path}:{lineno}: empty label")
            examples.append(LabeledExample(text=obj["text"], label=obj["label"]))
    if not examples:
        raise DataError(f"{path}: empty dataset")
    return Dataset(examples=examples)


def _load_json(path: str, kind: str):
    """One JSON document from a file; malformed content is a DataError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: malformed {kind} file: {exc}") from exc


def tokenize_text(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocab:
    """Token to id mapping with ids 0/1/2 reserved for pad/unk/cls."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not all(isinstance(t, str) for t in self.id_to_token):
            raise DataError("vocabulary tokens must be strings")
        if not self.token_to_id:
            self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"tokens": self.id_to_token}, f)
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        obj = _load_json(path, "vocabulary")
        tokens = obj.get("tokens") if isinstance(obj, dict) else None
        if not isinstance(tokens, list) or tokens[:3] != list(RESERVED_TOKENS):
            raise DataError(f"{path}: not a vocabulary file")
        try:
            return cls(id_to_token=tokens)
        except DataError as exc:
            raise DataError(f"{path}: not a vocabulary file: {exc}") from exc


def build_vocab(ds: Dataset, min_freq: int = 1, max_size: int = 50000) -> Vocab:
    """Frequency-ranked vocabulary over the dataset's text.

    Tokens below ``min_freq`` are dropped, the rest are capped at
    ``max_size`` total ids (reserved ids included) by frequency with a
    lexicographic tie-break. Call this on training-role text only so the
    vocabulary never leaks validation or test tokens.
    """
    if min_freq < 1:
        raise DataError(f"min_freq must be >= 1, got {min_freq}")
    if max_size < 3:
        raise DataError(f"max_size must be >= 3, got {max_size}")
    counts: Counter[str] = Counter()
    for ex in ds.examples:
        counts.update(tokenize_text(ex.text))
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    kept = kept[: max_size - len(RESERVED_TOKENS)]
    return Vocab(id_to_token=list(RESERVED_TOKENS) + kept)


@dataclass
class TokenSeq:
    """Padded id sequence with a leading CLS marker."""

    ids: np.ndarray
    length: int


def tokenize(text: str, vocab: Vocab, max_len: int) -> TokenSeq:
    """Encode text as [CLS, t1, ..], truncated and padded to max_len."""
    if max_len < 2:
        raise DataError(f"max_len must be >= 2, got {max_len}")
    ids = [CLS_ID] + [vocab.lookup(t) for t in tokenize_text(text)][: max_len - 1]
    length = len(ids)
    ids = ids + [PAD_ID] * (max_len - length)
    return TokenSeq(ids=np.asarray(ids, dtype=np.int32), length=length)


@dataclass
class SplitSpec:
    """Seeded assignment of intent classes to known (ids 1..M) and open."""

    seed: int
    r: float
    known_classes: list[str]
    open_classes: list[str]

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise DataError(f"split seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.r, bool) or not isinstance(self.r, numbers.Real) or not 0.0 < self.r < 1.0:
            raise DataError(f"known-class ratio must be a number in (0, 1), got {self.r!r}")
        names = []
        for role in ("known_classes", "open_classes"):
            classes = getattr(self, role)
            if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
                raise DataError(f"{role} must be a list of class-name strings")
            names += classes
        if len(set(names)) != len(names):
            raise DataError("a class is listed twice across known and open")

    @property
    def num_known(self) -> int:
        return len(self.known_classes)

    @property
    def open_id(self) -> int:
        return self.num_known + 1

    @property
    def known_index(self) -> dict[str, int]:
        return {name: i + 1 for i, name in enumerate(self.known_classes)}

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "r": self.r, "known": self.known_classes, "open": self.open_classes}
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def load(cls, path: str) -> "SplitSpec":
        obj = _load_json(path, "split")
        try:
            return cls(seed=obj["seed"], r=obj["r"], known_classes=obj["known"], open_classes=obj["open"])
        except (KeyError, TypeError, DataError) as exc:
            raise DataError(f"{path}: not a split file: {exc}") from exc


def make_split(ds: Dataset, r: float, seed: int) -> SplitSpec:
    """Draw known classes by a seeded shuffle; M = max(1, floor(r * K))."""
    if not 0.0 < r < 1.0:
        raise DataError(f"known-class ratio must be in (0, 1), got {r}")
    labels = ds.label_set
    if len(labels) < 2:
        raise DataError(f"need at least 2 intent classes, got {len(labels)}")
    order = np.random.default_rng(seed).permutation(len(labels))
    shuffled = [labels[i] for i in order]
    m = max(1, math.floor(r * len(labels)))
    return SplitSpec(seed=seed, r=r, known_classes=shuffled[:m], open_classes=shuffled[m:])


@dataclass
class ClassDataset:
    """Texts with resolved class ids after a split was applied."""

    texts: list[str]
    class_ids: list[int]
    num_known: int

    def __len__(self) -> int:
        return len(self.texts)


def apply_split(ds: Dataset, spec: SplitSpec, role: str) -> ClassDataset:
    """Filter and relabel a dataset for one role.

    train/val keep known-class examples only (ids 1..M); test keeps all
    examples with open classes collapsed onto id M+1.
    """
    if role not in ("train", "val", "test"):
        raise DataError(f"role must be train, val, or test, got {role!r}")
    index = spec.known_index
    open_set = set(spec.open_classes)
    texts: list[str] = []
    class_ids: list[int] = []
    for ex in ds.examples:
        if ex.label in index:
            texts.append(ex.text)
            class_ids.append(index[ex.label])
        elif ex.label in open_set:
            if role == "test":
                texts.append(ex.text)
                class_ids.append(spec.open_id)
        else:
            raise DataError(f"label {ex.label!r} not covered by the split")
    return ClassDataset(texts=texts, class_ids=class_ids, num_known=spec.num_known)


def subsample_labeled(ds: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep a seeded per-class sample of ceil(ratio * n_c) examples.

    Selection is a prefix of a per-class seeded permutation, so smaller
    ratios always select subsets of larger ones under the same seed.
    """
    if not 0.0 < ratio <= 1.0:
        raise DataError(f"labeled-data ratio must be in (0, 1], got {ratio}")
    if ratio == 1.0:
        return Dataset(examples=list(ds.examples), label_set=list(ds.label_set))
    by_class: dict[str, list[int]] = {}
    for i, ex in enumerate(ds.examples):
        by_class.setdefault(ex.label, []).append(i)
    keep: list[int] = []
    for ci, label in enumerate(ds.label_set):
        idx = by_class.get(label, [])
        if not idx:
            continue
        n_keep = math.ceil(ratio * len(idx))
        perm = np.random.default_rng([seed, ci]).permutation(len(idx))
        keep.extend(idx[j] for j in perm[:n_keep])
    keep.sort()
    return Dataset(examples=[ds.examples[i] for i in keep])


@dataclass
class EncodedDataset:
    """Token matrix form of a ClassDataset, ready for batching."""

    tokens: np.ndarray  # (N, max_len) int32
    lengths: np.ndarray  # (N,) int32
    class_ids: np.ndarray  # (N,) int32

    def __len__(self) -> int:
        return self.tokens.shape[0]

    @property
    def max_len(self) -> int:
        return self.tokens.shape[1]


def encode_dataset(cds: ClassDataset, vocab: Vocab, max_len: int) -> EncodedDataset:
    n = len(cds)
    tokens = np.zeros((n, max_len), dtype=np.int32)
    lengths = np.zeros(n, dtype=np.int32)
    for i, text in enumerate(cds.texts):
        seq = tokenize(text, vocab, max_len)
        tokens[i] = seq.ids
        lengths[i] = seq.length
    return EncodedDataset(tokens=tokens, lengths=lengths, class_ids=np.asarray(cds.class_ids, dtype=np.int32))


@dataclass
class Batch:
    tokens: np.ndarray  # (B, max_len) int32
    mask: np.ndarray  # (B, max_len) float32 in {0, 1}
    labels: np.ndarray  # (B,) int32, class ids 1..M+1

    def __len__(self) -> int:
        return self.tokens.shape[0]


@dataclass
class PairedBatch:
    """Two equal-size batches with differing labels at every position."""

    first: Batch
    second: Batch

    def __post_init__(self):
        if len(self.first) != len(self.second):
            raise PairingError("paired batches must have equal size")
        if np.any(self.first.labels == self.second.labels):
            raise PairingError("paired batches collide on at least one position")


def _lengths_to_mask(lengths: np.ndarray, max_len: int) -> np.ndarray:
    return (np.arange(max_len)[None, :] < lengths[:, None]).astype(np.float32)


def _slice_batches(enc: EncodedDataset, order: np.ndarray, batch_size: int) -> list[Batch]:
    batches = []
    for start in range(0, len(enc), batch_size):
        idx = order[start : start + batch_size]
        batches.append(
            Batch(
                tokens=enc.tokens[idx].copy(),
                mask=_lengths_to_mask(enc.lengths[idx], enc.max_len),
                labels=enc.class_ids[idx].copy(),
            )
        )
    return batches


def make_batches(enc: EncodedDataset, batch_size: int, seed: int, epoch: int = 0) -> list[Batch]:
    """Seeded shuffle into contiguous batches; epoch k reshuffles with seed xor k."""
    if len(enc) == 0:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed ^ epoch).permutation(len(enc))
    return _slice_batches(enc, order, batch_size)


def ordered_batches(enc: EncodedDataset, batch_size: int) -> list[Batch]:
    """Contiguous batches in dataset order, for evaluation and prediction."""
    if len(enc) == 0:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    return _slice_batches(enc, np.arange(len(enc)), batch_size)


def _repair_pair(first: np.ndarray, second: np.ndarray, order: np.ndarray) -> None:
    """Swap entries of `second` so no position shares a label with `first`.

    `first` and `second` are the labels of two row orders over a whole
    epoch, and every swap in `second` is mirrored in `order`, its row
    indices. A colliding position takes the nearest later entry of
    `second` whose label differs, wrapping to earlier entries only when
    the swap cannot break an already repaired position.  A dead end is
    proof that no pairing exists at all: every rejected entry carries the
    colliding intent on one side or the other, so that intent fills more
    than half of the epoch's rows on both sides together.
    """
    n = len(first)
    for i in range(n):
        if first[i] != second[i]:
            continue
        target = None
        for off in range(1, n):
            j = (i + off) % n
            if second[j] == first[i]:
                continue
            if j < i and first[j] == second[i]:
                continue  # wrap swap would re-collide position j
            target = j
            break
        if target is None:
            raise PairingError(
                f"cannot pair position {i}: no differing intent available in the epoch"
            )
        for arr in (second, order):
            arr[[i, target]] = arr[[target, i]]


def pair_batches(enc: EncodedDataset, batch_size: int, seed: int, epoch: int = 0) -> list[PairedBatch]:
    """Two independent seeded shuffles, repaired into different-intent pairs.

    The repair runs over the whole epoch before it is cut into batches, so
    a short tail batch can borrow rows from the rest of the epoch.
    """
    if len(np.unique(enc.class_ids)) < 2:
        raise PairingError("pairing requires at least 2 distinct intent classes")
    effective = seed ^ epoch
    order_a = np.random.default_rng([effective, 0]).permutation(len(enc))
    order_b = np.random.default_rng([effective, 1]).permutation(len(enc))
    _repair_pair(enc.class_ids[order_a], enc.class_ids[order_b], order_b)
    firsts = _slice_batches(enc, order_a, batch_size)
    seconds = _slice_batches(enc, order_b, batch_size)
    return [PairedBatch(first=first, second=second) for first, second in zip(firsts, seconds)]
