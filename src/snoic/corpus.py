"""Dataset ingestion, vocabulary, known/open split protocol, and batch assembly.

Datasets are JSON Lines files of ``{"text": ..., "label": ...}`` objects.
A seeded :class:`SplitSpec` partitions the intent label set into M known
classes (ids 1..M) and the remaining open classes (all mapped to id M+1 at
test time). Batching is deterministic given (seed, epoch), and
:func:`pair_batches` produces aligned batch pairs whose same-position
examples always carry different intents, as required by the mixup stage.

Encoded rows have one type, :class:`Batch`: a whole encoded set and every
batch or eval window cut from it. Two fields are computed from the data
and cannot be passed in: ``Vocab.token_to_id`` (from ``id_to_token``) and
``Dataset.label_set`` (from the examples).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import DataError, PairingError, fraction, integer, number

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
    """Labeled examples; ``label_set``, their sorted distinct labels, is computed."""

    examples: list[LabeledExample]
    label_set: list[str] = field(init=False)

    def __post_init__(self):
        self.label_set = sorted({ex.label for ex in self.examples})

    def __len__(self) -> int:
        return len(self.examples)


def load_dataset(path: str) -> Dataset:
    """Load a JSON Lines dataset of {"text", "label"} objects."""
    examples = []
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
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
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if not examples:
        raise DataError(f"{path}: empty dataset")
    return Dataset(examples=examples)


def _load_json(path: str, kind: str):
    """One JSON document from a file; malformed content is a DataError."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, or an integer past the digit limit
            raise DataError(f"{path}: malformed {kind} file: {exc}") from exc


def _split_words(texts: Iterable[str]) -> Iterator[list[str]]:
    """Each text's words, in C-level passes with no Python frame per text."""
    return map(_TOKEN_RE.findall, map(str.lower, texts))


@dataclass
class Vocab:
    """Token to id mapping with ids 0/1/2 reserved for pad/unk/cls.

    ``token_to_id`` is computed as the inverse of ``id_to_token``.
    """

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if not all(isinstance(t, str) for t in self.id_to_token):
            raise DataError("vocabulary tokens must be strings")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

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
    integer("min_freq", min_freq, 1)
    integer("max_size", max_size, 3)
    counts: Counter[str] = Counter()
    for words in _split_words(ex.text for ex in ds.examples):
        counts.update(words)
    kept = [t for t, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda t: (-counts[t], t))
    kept = kept[: max_size - len(RESERVED_TOKENS)]
    return Vocab(id_to_token=list(RESERVED_TOKENS) + kept)


def tokenize(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """Unpadded ids [CLS, t1, ..], truncated to max_len; no PAD is appended."""
    enc = encode_dataset(ClassDataset(texts=[text], class_ids=[0], num_known=0), vocab, max_len)
    return enc.tokens[0, : enc.lengths[0]].tolist()


@dataclass
class SplitSpec:
    """Seeded assignment of intent classes to known (ids 1..M) and open."""

    seed: int
    r: float
    known_classes: list[str]
    open_classes: list[str]

    def __post_init__(self):
        self.seed = integer("seed", self.seed, 0)
        self.r = fraction("r", self.r, interior=True)
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
    """Draw known classes by a seeded shuffle; M = max(1, floor(r * K)).
    :class:`SplitSpec` checks ``r`` and ``seed`` before anything is drawn."""
    r = SplitSpec(seed=seed, r=r, known_classes=[], open_classes=[]).r
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
    ratio = number("labeled_data_ratio", ratio)
    if not 0.0 < ratio <= 1.0:
        raise DataError(f"labeled_data_ratio must be in (0, 1], got {ratio}")
    integer("seed", seed, 0)
    if ratio == 1.0:
        return Dataset(examples=list(ds.examples))
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
class Batch:
    """Encoded rows, T columns wide.

    Row i holds ``lengths[i]`` real tokens, in columns 0..lengths[i] - 1;
    the rest of it is PAD_ID. :func:`encode_dataset` returns a whole set
    as one Batch, ``max_len`` wide. The batches and eval windows cut from
    it by this module are each exactly as wide as their longest row, so
    no column is padding in every row.
    """

    tokens: np.ndarray  # (B, T) int32
    lengths: np.ndarray  # (B,) int32, real tokens per row (CLS included)
    class_ids: np.ndarray  # (B,) int32, class ids 1..M+1

    def __len__(self) -> int:
        return self.tokens.shape[0]


_ENCODE_CHUNK = 1024  # texts whose word lists encode_dataset keeps alive at once


def encode_dataset(cds: ClassDataset, vocab: Vocab, max_len: int) -> Batch:
    """Tokenize every text into a PAD_ID-filled (N, max_len) token matrix:
    row i holds :func:`tokenize` of text i, then PAD_ID. No Python frame
    runs per text; the texts are read ``_ENCODE_CHUNK`` at a time. The
    class ids must be integers, one per text; a float id is rejected,
    never truncated."""
    integer("max_len", max_len, 2)
    texts, get, keep = cds.texts, vocab.token_to_id.get, max_len - 1
    class_ids = np.asarray(cds.class_ids)
    if class_ids.shape != (len(texts),):
        raise DataError(f"need one class id per text, got shape {class_ids.shape} for {len(texts)} texts")
    if class_ids.size and not np.issubdtype(class_ids.dtype, np.integer):
        raise DataError(f"class ids must be integers, got dtype {class_ids.dtype}")
    tokens = np.full((len(texts), max_len), PAD_ID, dtype=np.int32)
    tokens[:, 0] = CLS_ID
    lengths = np.empty(len(texts), dtype=np.int32)
    for start in range(0, len(texts), _ENCODE_CHUNK):
        rows = slice(start, start + _ENCODE_CHUNK)
        words = list(_split_words(texts[rows]))
        counts = np.fromiter(map(len, words), np.int32, len(words))
        ids = np.fromiter(map(get, chain.from_iterable(words), repeat(UNK_ID)), np.int32, int(counts.sum()))
        if counts.max() > keep:  # keep the ids whose column is below keep
            ids = ids[np.nonzero(np.arange(counts.max()) < counts[:, None])[1] < keep]
            np.minimum(counts, keep, out=counts)
        tokens[rows, 1:][np.arange(keep) < counts[:, None]] = ids
        np.add(counts, 1, out=lengths[rows])
    return Batch(tokens=tokens, lengths=lengths, class_ids=class_ids.astype(np.int32))


@dataclass
class PairedBatch:
    """Two equal-size batches with differing labels at every position."""

    first: Batch
    second: Batch

    def __post_init__(self):
        if len(self.first) != len(self.second):
            raise PairingError("paired batches must have equal size")
        if np.any(self.first.class_ids == self.second.class_ids):
            raise PairingError("paired batches collide on at least one position")


def _batch(enc: Batch, idx: np.ndarray) -> Batch:
    """The rows ``idx`` of ``enc``, trimmed to the longest of them."""
    lengths = enc.lengths[idx]
    return Batch(tokens=enc.tokens[idx, : lengths.max()], lengths=lengths, class_ids=enc.class_ids[idx])


def _check_batching(enc: Batch, batch_size: int) -> None:
    if len(enc) == 0:
        raise DataError("cannot batch an empty dataset")
    integer("batch_size", batch_size, 1)


def _slice_batches(enc: Batch, order: np.ndarray, batch_size: int) -> list[Batch]:
    """Cut the rows of ``order`` into batches, each trimmed to its longest row."""
    _check_batching(enc, batch_size)
    return [_batch(enc, order[start : start + batch_size]) for start in range(0, len(order), batch_size)]


def _epoch_seed(seed: int, epoch: int) -> int:
    return integer("seed", seed, 0) ^ integer("epoch", epoch, 0)


def make_batches(enc: Batch, batch_size: int, seed: int, epoch: int = 0) -> list[Batch]:
    """Seeded shuffle into contiguous batches; epoch k reshuffles with seed xor k."""
    order = np.random.default_rng(_epoch_seed(seed, epoch)).permutation(len(enc))
    return _slice_batches(enc, order, batch_size)


def _repair_pair(first: np.ndarray, second: np.ndarray, order: np.ndarray) -> None:
    """Swap entries of `second` so no position shares a label with `first`.

    `first` and `second` are the labels of two row orders over a whole
    epoch, and every swap in `second` is mirrored in `order`, its row
    indices. A colliding position takes the nearest later entry of
    `second` whose label differs, wrapping to earlier entries only when
    the swap cannot break an already repaired position.  A dead end is
    proof that no pairing exists at all: every rejected entry carries the
    colliding intent on one side or the other, so that intent fills more
    than half of the epoch's rows on both sides together. A dead end
    raises and leaves both arrays as they were.

    The walk runs on ``tolist()`` copies, written back once: a plain int
    compares and swaps several times faster than a numpy scalar.
    """
    first, labels, rows = first.tolist(), second.tolist(), order.tolist()
    n = len(first)
    for i in range(n):
        if first[i] != labels[i]:
            continue
        target = None
        for off in range(1, n):
            j = (i + off) % n
            if labels[j] == first[i]:
                continue
            if j < i and first[j] == labels[i]:
                continue  # wrap swap would re-collide position j
            target = j
            break
        if target is None:
            raise PairingError(
                f"cannot pair position {i}: no differing intent available in the epoch"
            )
        labels[i], labels[target] = labels[target], labels[i]
        rows[i], rows[target] = rows[target], rows[i]
    second[:] = labels
    order[:] = rows


def pair_batches(enc: Batch, batch_size: int, seed: int, epoch: int = 0) -> list[PairedBatch]:
    """Two independent seeded shuffles, repaired into different-intent pairs.

    The repair runs over the whole epoch before it is cut into batches, so
    a short tail batch can borrow rows from the rest of the epoch.
    """
    _check_batching(enc, batch_size)
    effective = _epoch_seed(seed, epoch)
    order_a = np.random.default_rng([effective, 0]).permutation(len(enc))
    order_b = np.random.default_rng([effective, 1]).permutation(len(enc))
    _repair_pair(enc.class_ids[order_a], enc.class_ids[order_b], order_b)
    firsts = _slice_batches(enc, order_a, batch_size)
    seconds = _slice_batches(enc, order_b, batch_size)
    return [PairedBatch(first=first, second=second) for first, second in zip(firsts, seconds)]
