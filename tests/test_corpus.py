"""Dataset ingestion, vocabulary, split protocol, and batching behavior."""

import json
import re
import sys

import numpy as np
import pytest

from snoic import corpus
from snoic.corpus import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Batch,
    ClassDataset,
    Dataset,
    LabeledExample,
    PairedBatch,
    SplitSpec,
    Vocab,
    apply_split,
    build_vocab,
    _slice_batches,
    encode_dataset,
    load_dataset,
    make_batches,
    make_split,
    pair_batches,
    subsample_labeled,
    tokenize,
)
from snoic.errors import DataError, PairingError


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return str(path)


WORDS = ["alpha", "beta", "gamma", "delta"]


def reference_token_ids(texts, vocab, max_len):
    """The per-text encoding that encode_dataset's C-level passes replaced:
    [CLS_ID] and the ids of each text's first max_len - 1 words."""
    get, keep = vocab.token_to_id.get, max_len - 1
    return [[CLS_ID] + [get(t, UNK_ID) for t in re.findall(r"\w+", text.lower())[:keep]] for text in texts]


def toy_dataset(num_classes=5, per_class=8):
    examples = []
    for c in range(num_classes):
        for j in range(per_class):
            examples.append(LabeledExample(text=f"word{c} common tok{j}", label=f"class{c}"))
    return Dataset(examples=examples)


class TestLoadDataset:
    def test_parses_text_and_label(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [{"text": "book a flight", "label": "flight"}, {"text": "play a song", "label": "music"}],
        )
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.examples[0].text == "book a flight"
        assert ds.label_set == ["flight", "music"]

    def test_label_set_is_sorted_and_unique(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [{"text": "x", "label": "b"}, {"text": "y", "label": "a"}, {"text": "z", "label": "b"}],
        )
        assert load_dataset(path).label_set == ["a", "b"]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "a"}\n\n{"text": "y", "label": "b"}\n')
        assert len(load_dataset(str(path))) == 2

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "a"}\nnot json\n')
        with pytest.raises(DataError, match=r":2: malformed JSON"):
            load_dataset(str(path))

    def test_integer_past_the_digit_limit_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "a"}\n{"text": 1' + "0" * 5000 + ', "label": "b"}\n')
        with pytest.raises(DataError, match=r":2: malformed JSON: Exceeds the limit"):
            load_dataset(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"text": "x"}])
        with pytest.raises(DataError, match="missing field 'label'"):
            load_dataset(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataError, match="expected a JSON object"):
            load_dataset(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(str(path))

    def test_empty_text_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"text": "   ", "label": "a"}])
        with pytest.raises(DataError, match="empty text"):
            load_dataset(path)


class TestVocab:
    def test_build_vocab_reserves_first_ids(self):
        ds = Dataset(examples=[LabeledExample("a b", "x")])
        vocab = build_vocab(ds)
        assert vocab.id_to_token[:3] == list(RESERVED_TOKENS)
        assert vocab.token_to_id["<pad>"] == PAD_ID
        assert vocab.token_to_id["<cls>"] == CLS_ID

    def test_frequency_then_lexicographic_order(self):
        ds = Dataset(examples=[LabeledExample("b b a c a", "x")])
        vocab = build_vocab(ds)
        # a and b tie at 2, lexicographic break; c trails at 1.
        assert vocab.id_to_token[3:] == ["a", "b", "c"]

    def test_min_freq_drops_rare_tokens(self):
        ds = Dataset(examples=[LabeledExample("a a b", "x")])
        vocab = build_vocab(ds, min_freq=2)
        assert "b" not in vocab.token_to_id
        assert len(vocab) == 4

    def test_max_size_caps_total_ids(self):
        ds = Dataset(examples=[LabeledExample("a a b c", "x")])
        vocab = build_vocab(ds, max_size=4)
        assert len(vocab) == 4
        assert vocab.id_to_token[3] == "a"

    def test_unknown_token_maps_to_unk(self):
        ds = Dataset(examples=[LabeledExample("a", "x")])
        vocab = build_vocab(ds)
        assert "never" not in vocab.token_to_id
        assert tokenize("a never-seen", vocab, max_len=6) == [CLS_ID, vocab.token_to_id["a"], UNK_ID, UNK_ID]

    def test_save_load_round_trip(self, tmp_path):
        ds = Dataset(examples=[LabeledExample("alpha beta", "x")])
        vocab = build_vocab(ds)
        path = str(tmp_path / "vocab.json")
        vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.id_to_token == vocab.id_to_token

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"tokens": ["x"]}')
        with pytest.raises(DataError, match="not a vocabulary file"):
            Vocab.load(str(path))

    def test_token_to_id_is_not_an_argument(self):
        """The inverse map is computed, so it cannot disagree with id_to_token."""
        with pytest.raises(TypeError):
            Vocab(id_to_token=list(RESERVED_TOKENS) + ["alpha"], token_to_id={"beta": 3})

    def test_token_to_id_inverts_id_to_token(self, tmp_path):
        vocab = build_vocab(Dataset(examples=[LabeledExample("b b a c a delta", "x")]))
        path = str(tmp_path / "vocab.json")
        vocab.save(path)
        for v in (vocab, Vocab.load(path)):
            assert len(v.token_to_id) == len(v.id_to_token)
            assert all(v.token_to_id[t] == i for i, t in enumerate(v.id_to_token))

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Vocab(id_to_token=list(RESERVED_TOKENS) + ["a", "a"])

    def test_load_rejects_non_string_tokens(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": list(RESERVED_TOKENS) + [5, None]}))
        with pytest.raises(DataError, match="tokens must be strings"):
            Vocab.load(str(path))

    def test_bad_bounds_rejected(self):
        ds = Dataset(examples=[LabeledExample("a", "x")])
        with pytest.raises(DataError):
            build_vocab(ds, min_freq=0)
        with pytest.raises(DataError):
            build_vocab(ds, max_size=2)


class TestTokenize:
    @pytest.fixture
    def vocab(self):
        return build_vocab(Dataset(examples=[LabeledExample("alpha beta gamma", "x")]))

    def test_lowercases_and_splits_words(self):
        """Words are lowercased and split on whitespace and punctuation."""
        vocab = build_vocab(Dataset(examples=[LabeledExample("book a flight please", "x")]))
        ids = tokenize("Book a FLIGHT, please!", vocab, max_len=8)
        assert ids == [CLS_ID] + [vocab.token_to_id[w] for w in ("book", "a", "flight", "please")]

    def test_cls_prefix_and_padding(self, vocab):
        # the list is unpadded: its length is the sequence length
        ids = tokenize("alpha beta", vocab, max_len=6)
        assert ids == [CLS_ID, vocab.token_to_id["alpha"], vocab.token_to_id["beta"]]
        assert PAD_ID not in ids

    def test_unknown_words_become_unk(self, vocab):
        ids = tokenize("alpha zzz", vocab, max_len=6)
        assert ids[2] == UNK_ID

    def test_truncation_keeps_prefix(self, vocab):
        ids = tokenize("alpha beta gamma alpha beta", vocab, max_len=3)
        assert ids == [CLS_ID, vocab.token_to_id["alpha"], vocab.token_to_id["beta"]]

    def test_max_len_lower_bound(self, vocab):
        with pytest.raises(DataError):
            tokenize("alpha", vocab, max_len=1)


class TestEncodeDataset:
    """encode_dataset's row i is tokenize's ids of text i, then PAD_ID."""

    @pytest.fixture
    def vocab(self):
        return build_vocab(Dataset(examples=[LabeledExample("alpha beta", "x")]))

    @pytest.mark.parametrize("max_len", [16, 32])
    @pytest.mark.parametrize("role", ["train", "val", "test"])
    def test_rows_equal_per_row_tokenize(self, corpus_sets, role, max_len):
        ds_train = corpus_sets[0]
        ds = corpus_sets[("train", "val", "test").index(role)]
        vocab = build_vocab(ds_train)
        cds = apply_split(ds, make_split(ds_train, 0.5, 0), role)
        enc = encode_dataset(cds, vocab, max_len)
        assert enc.tokens.shape == (len(cds), max_len)
        assert enc.tokens.dtype == enc.lengths.dtype == enc.class_ids.dtype == np.int32
        for i, text in enumerate(cds.texts):
            ids = tokenize(text, vocab, max_len)
            assert enc.lengths[i] == len(ids)
            assert enc.tokens[i].tolist() == ids + [PAD_ID] * (max_len - len(ids))
        assert enc.class_ids.tolist() == cds.class_ids
        assert role == "train" or (enc.tokens == UNK_ID).any()

    def test_edge_rows(self, vocab):
        """Empty and punctuation-only text give CLS alone, unknown words
        UNK_ID, and a long row is cut at max_len."""
        texts = ["", "?! ...", "alpha zzz", "alpha beta " * 5]
        enc = encode_dataset(ClassDataset(texts=texts, class_ids=[1] * 4, num_known=1), vocab, 4)
        alpha, beta = vocab.token_to_id["alpha"], vocab.token_to_id["beta"]
        assert enc.lengths.tolist() == [1, 1, 3, 4]
        assert enc.tokens.tolist() == [
            [CLS_ID, PAD_ID, PAD_ID, PAD_ID],
            [CLS_ID, PAD_ID, PAD_ID, PAD_ID],
            [CLS_ID, alpha, UNK_ID, PAD_ID],
            [CLS_ID, alpha, beta, alpha],
        ]
        assert [tokenize(t, vocab, 4) for t in texts] == [row[:n] for row, n in zip(enc.tokens.tolist(), enc.lengths)]

    def test_zero_rows(self, vocab):
        enc = encode_dataset(ClassDataset(texts=[], class_ids=[], num_known=1), vocab, 5)
        assert len(enc) == 0 and enc.tokens.shape[1] == 5
        assert enc.lengths.shape == enc.class_ids.shape == (0,)
        assert enc.tokens.dtype == enc.lengths.dtype == enc.class_ids.dtype == np.int32

    @staticmethod
    def assert_rows_match(texts, vocab, max_len):
        """Every row equals tokenize of its text and the reference ids, then PAD_ID."""
        enc = encode_dataset(ClassDataset(texts=texts, class_ids=[1] * len(texts), num_known=1), vocab, max_len)
        ref = reference_token_ids(texts, vocab, max_len)
        assert enc.tokens.dtype == enc.lengths.dtype == np.int32
        assert enc.lengths.tolist() == list(map(len, ref))
        assert enc.tokens.tolist() == [ids + [PAD_ID] * (max_len - len(ids)) for ids in ref]
        assert [tokenize(text, vocab, max_len) for text in texts] == ref
        return enc

    @pytest.fixture
    def wide_vocab(self):
        return build_vocab(Dataset(examples=[LabeledExample(" ".join(WORDS), "x")]))

    @pytest.mark.parametrize("max_len", [2, 3, 4, 16])
    def test_cut_and_uncut_rows(self, wide_vocab, max_len):
        texts = ["alpha", "alpha beta gamma delta", "", "zzz " * 20, "beta alpha"]
        self.assert_rows_match(texts, wide_vocab, max_len)

    @pytest.mark.parametrize("max_len", [2, 3])
    def test_every_row_cut(self, wide_vocab, max_len):
        texts = ["alpha beta gamma", "delta delta delta delta", "zzz yyy xxx alpha"]
        enc = self.assert_rows_match(texts, wide_vocab, max_len)
        assert enc.lengths.tolist() == [max_len] * 3

    @pytest.mark.parametrize("max_len", [2, 5, 16])
    def test_case_folding_digits_underscores_and_wide_characters(self, max_len):
        # "İ" and "ẞ" change length or form when lowercased; "𝐀" lies outside the BMP
        texts = ["İstanbul ẞtraße", "A_b 42x __ 7", "𝐀lpha 😀 é", "ǅ ΣΑΣ İİ", "ẋy"]
        vocab = build_vocab(Dataset(examples=[LabeledExample(texts[0] + " " + texts[1], "x")]))
        self.assert_rows_match(texts, vocab, max_len)
        self.assert_rows_match(texts[::-1] * 3, vocab, max_len)

    def test_a_set_larger_than_one_chunk(self, wide_vocab):
        rng = np.random.default_rng(5)
        pool = WORDS + ["zzz", "Alpha", "beta!"]
        n = 2 * corpus._ENCODE_CHUNK + 37
        texts = [" ".join(rng.choice(pool, size=rng.integers(0, 12))) for _ in range(n)]
        self.assert_rows_match(texts, wide_vocab, 7)

    def test_python_calls_do_not_grow_with_the_rows(self, wide_vocab):
        """No Python frame runs per utterance: encoding 8 texts and 1024
        texts (one chunk) make the same Python-level calls."""
        base = ["alpha beta gamma " * 3, "delta", "", "zzz alpha"] * 2

        def calls(texts):
            cds = ClassDataset(texts=texts, class_ids=[1] * len(texts), num_known=1)
            count = [0]

            def profile(frame, event, arg):
                count[0] += event == "call"

            encode_dataset(cds, wide_vocab, 6)
            sys.setprofile(profile)
            try:
                encode_dataset(cds, wide_vocab, 6)
            finally:
                sys.setprofile(None)
            return count[0]

        assert corpus._ENCODE_CHUNK >= 1024
        assert calls(base) == calls(base * 128)

    def test_float_class_ids_rejected(self, vocab):
        """A float id is rejected, never truncated to an integer."""
        cds = ClassDataset(texts=["a b", "c"], class_ids=[1.7, 2.2], num_known=2)
        with pytest.raises(DataError, match="class ids must be integers"):
            encode_dataset(cds, vocab, 5)

    @pytest.mark.parametrize("class_ids", [[1, 2, 1], [1], [[1], [2]]])
    def test_one_class_id_per_text(self, vocab, class_ids):
        cds = ClassDataset(texts=["a b", "c"], class_ids=class_ids, num_known=2)
        with pytest.raises(DataError, match="one class id per text"):
            encode_dataset(cds, vocab, 5)

    @pytest.mark.parametrize("rows", [0, 2])
    @pytest.mark.parametrize("max_len", [1, 0])
    def test_max_len_lower_bound(self, vocab, rows, max_len):
        """Checked before any row is read, so an empty dataset raises too."""
        cds = ClassDataset(texts=["alpha"] * rows, class_ids=[1] * rows, num_known=1)
        with pytest.raises(DataError, match="max_len must be >= 2"):
            encode_dataset(cds, vocab, max_len)


class TestSplit:
    def test_m_is_floor_of_ratio(self):
        ds = Dataset(examples=[LabeledExample("t", f"c{i}") for i in range(77)])
        assert make_split(ds, 0.25, 0).num_known == 19
        assert make_split(ds, 0.5, 0).num_known == 38
        assert make_split(ds, 0.75, 0).num_known == 57

    def test_m_is_at_least_one(self):
        ds = Dataset(examples=[LabeledExample("t", "a"), LabeledExample("t", "b")])
        spec = make_split(ds, 0.25, 0)
        assert spec.num_known == 1

    def test_partition_covers_all_classes(self):
        ds = toy_dataset(num_classes=9)
        for seed in range(5):
            spec = make_split(ds, 0.5, seed)
            assert sorted(spec.known_classes + spec.open_classes) == ds.label_set
            assert not set(spec.known_classes) & set(spec.open_classes)

    def test_same_seed_same_split(self):
        ds = toy_dataset(num_classes=8)
        assert make_split(ds, 0.5, 3).to_json() == make_split(ds, 0.5, 3).to_json()

    def test_different_seeds_differ(self):
        ds = toy_dataset(num_classes=12)
        picks = {tuple(make_split(ds, 0.5, s).known_classes) for s in range(8)}
        assert len(picks) > 1

    def test_ratio_bounds_rejected(self):
        ds = toy_dataset()
        for r in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(DataError):
                make_split(ds, r, 0)

    def test_needs_two_classes(self):
        ds = Dataset(examples=[LabeledExample("t", "only")])
        with pytest.raises(DataError, match="at least 2"):
            make_split(ds, 0.5, 0)

    def test_save_load_round_trip(self, tmp_path):
        spec = make_split(toy_dataset(), 0.5, 7)
        path = str(tmp_path / "split.json")
        spec.save(path)
        loaded = SplitSpec.load(path)
        assert loaded == spec
        assert loaded.open_id == spec.num_known + 1

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 0}')
        with pytest.raises(DataError, match="not a split file"):
            SplitSpec.load(str(path))

    @staticmethod
    def _load(tmp_path, **fields):
        obj = {"seed": 3, "r": 0.5, "known": ["a", "b"], "open": ["c"], **fields}
        path = tmp_path / "split.json"
        path.write_text(json.dumps(obj))
        return SplitSpec.load(str(path))

    def test_load_rejects_overlapping_known_and_open(self, tmp_path):
        with pytest.raises(DataError, match="listed twice"):
            self._load(tmp_path, open=["b", "c"])

    def test_load_rejects_non_string_class_names(self, tmp_path):
        for fields in ({"known": ["a", 2]}, {"open": [None]}, {"known": "ab"}):
            with pytest.raises(DataError, match="list of class-name strings"):
                self._load(tmp_path, **fields)

    def test_load_rejects_ratio_outside_unit_interval(self, tmp_path):
        for r in (0, 1, 1.5, -0.2, "0.5", True, None):
            with pytest.raises(DataError, match=r": not a split file: r must be (in \(0, 1\)|a number), got "):
                self._load(tmp_path, r=r)

    def test_load_rejects_seed_that_is_not_a_non_negative_int(self, tmp_path):
        for seed in (-1, 2.0, "3", True, None):
            with pytest.raises(DataError, match=r": not a split file: seed must be (>= 0|an integer), got "):
                self._load(tmp_path, seed=seed)

    def test_known_index_is_one_based(self):
        spec = SplitSpec(seed=0, r=0.5, known_classes=["b", "a"], open_classes=["c"])
        assert spec.known_index == {"b": 1, "a": 2}


class TestApplySplit:
    @pytest.fixture
    def setup(self):
        ds = toy_dataset(num_classes=4, per_class=3)
        spec = SplitSpec(
            seed=0, r=0.5, known_classes=["class0", "class2"], open_classes=["class1", "class3"]
        )
        return ds, spec

    def test_train_keeps_known_only(self, setup):
        ds, spec = setup
        out = apply_split(ds, spec, "train")
        assert len(out) == 6
        assert set(out.class_ids) == {1, 2}
        assert out.num_known == 2

    def test_val_keeps_known_only(self, setup):
        ds, spec = setup
        out = apply_split(ds, spec, "val")
        assert set(out.class_ids) == {1, 2}

    def test_test_relabels_open_to_m_plus_one(self, setup):
        ds, spec = setup
        out = apply_split(ds, spec, "test")
        assert len(out) == 12
        assert set(out.class_ids) == {1, 2, 3}
        assert sum(1 for c in out.class_ids if c == 3) == 6

    def test_train_never_contains_open_examples(self):
        ds = toy_dataset(num_classes=7, per_class=4)
        for seed in range(4):
            spec = make_split(ds, 0.5, seed)
            out = apply_split(ds, spec, "train")
            assert all(1 <= c <= spec.num_known for c in out.class_ids)

    def test_unknown_label_rejected(self, setup):
        ds, spec = setup
        bad = Dataset(examples=ds.examples + [LabeledExample("t", "mystery")])
        with pytest.raises(DataError, match="not covered"):
            apply_split(bad, spec, "train")

    def test_bad_role_rejected(self, setup):
        ds, spec = setup
        with pytest.raises(DataError, match="role"):
            apply_split(ds, spec, "dev")


class TestSubsample:
    def test_full_ratio_is_identity(self):
        ds = toy_dataset()
        out = subsample_labeled(ds, 1.0, 0)
        assert [ex.text for ex in out.examples] == [ex.text for ex in ds.examples]

    def test_keeps_ceil_per_class(self):
        ds = toy_dataset(num_classes=3, per_class=10)
        out = subsample_labeled(ds, 0.2, 0)
        per = {label: 0 for label in ds.label_set}
        for ex in out.examples:
            per[ex.label] += 1
        assert all(v == 2 for v in per.values())

    def test_tiny_class_keeps_at_least_one(self):
        ds = Dataset(
            examples=[LabeledExample("t", "a")] + [LabeledExample("t", "b") for _ in range(9)]
        )
        out = subsample_labeled(ds, 0.1, 0)
        assert any(ex.label == "a" for ex in out.examples)

    def test_smaller_ratio_selects_subset(self):
        ds = toy_dataset(num_classes=4, per_class=20)
        small = {id(ex) for ex in subsample_labeled(ds, 0.25, 5).examples}
        large = {id(ex) for ex in subsample_labeled(ds, 0.5, 5).examples}
        assert small <= large

    def test_deterministic_per_seed(self):
        ds = toy_dataset(num_classes=4, per_class=20)
        a = [ex.text for ex in subsample_labeled(ds, 0.3, 9).examples]
        b = [ex.text for ex in subsample_labeled(ds, 0.3, 9).examples]
        assert a == b

    def test_label_set_is_not_an_argument(self):
        examples = [LabeledExample(f"t{i}", label) for i, label in enumerate("abcabc")]
        with pytest.raises(TypeError):
            Dataset(examples=examples, label_set=["a", "b"])

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_label_set_is_the_sorted_labels_of_its_examples(self, ratio):
        examples = [LabeledExample(f"t{i}", label) for i, label in enumerate("cabcbac")]
        out = subsample_labeled(Dataset(examples=examples), ratio, 0)
        assert out.label_set == sorted({ex.label for ex in out.examples}) == ["a", "b", "c"]

    def test_ratio_bounds_rejected(self):
        ds = toy_dataset()
        for ratio in (0.0, -0.5, 1.5):
            with pytest.raises(DataError):
                subsample_labeled(ds, ratio, 0)


def encoded_toy(num_classes=5, per_class=8, max_len=8):
    ds = toy_dataset(num_classes=num_classes, per_class=per_class)
    spec = make_split(ds, 0.9, 0)
    cds = apply_split(ds, spec, "train")
    vocab = build_vocab(ds)
    return encode_dataset(cds, vocab, max_len)


def window_batches(enc, batch_size):
    """The batches of an untaped pass over ``enc``: its rows in dataset
    order, ``batch_size`` at a time."""
    return _slice_batches(enc, np.arange(len(enc)), batch_size)


def ragged_encoded(max_len=8):
    """Three intents whose texts run from 1 to 9 words, the longest
    truncated to max_len."""
    examples = [
        LabeledExample(text=" ".join(f"w{c}{k}" for k in range((3 * j + c) % 9 + 1)), label=f"class{c}")
        for j in range(7)
        for c in range(3)
    ]
    ds = Dataset(examples=examples)
    spec = SplitSpec(seed=0, r=0.5, known_classes=ds.label_set, open_classes=[])
    return encode_dataset(apply_split(ds, spec, "train"), build_vocab(ds), max_len)


class TestBatching:
    def test_encode_dataset_shapes(self):
        enc = encoded_toy()
        assert enc.tokens.shape == (len(enc), 8)
        assert enc.tokens.dtype == np.int32
        assert enc.lengths.min() >= 1

    def test_encode_dataset_pads_after_each_sequence(self):
        ds = Dataset(examples=[LabeledExample("alpha beta", "x"), LabeledExample("gamma " * 9, "y")])
        vocab = build_vocab(ds)
        cds = apply_split(ds, SplitSpec(seed=0, r=0.5, known_classes=["x", "y"], open_classes=[]), "train")
        enc = encode_dataset(cds, vocab, 5)
        assert enc.lengths.tolist() == [3, 5]
        assert enc.tokens[0].tolist() == tokenize("alpha beta", vocab, 5) + [PAD_ID] * 2
        assert enc.tokens[1].tolist() == [CLS_ID] + [vocab.token_to_id["gamma"]] * 4

    def test_batch_sizes_cover_dataset(self):
        # 3 classes at r=0.9 keep M=2 known classes, 5 examples each.
        enc = encoded_toy(num_classes=3, per_class=5)
        batches = make_batches(enc, 4, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_lengths_count_real_tokens(self):
        enc = encoded_toy()
        for batch in make_batches(enc, 6, seed=1):
            assert batch.lengths.shape == (len(batch),) and batch.lengths.dtype == np.int32
            # each row's real tokens lead it, and PAD fills the rest
            for row, ln in zip(batch.tokens, batch.lengths):
                assert np.all(row[:ln] != PAD_ID) and np.all(row[ln:] == PAD_ID)

    def test_same_seed_same_epoch_identical(self):
        enc = encoded_toy()
        a = make_batches(enc, 4, seed=3, epoch=2)
        b = make_batches(enc, 4, seed=3, epoch=2)
        assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_epochs_reshuffle(self):
        enc = encoded_toy()
        a = make_batches(enc, 4, seed=3, epoch=1)
        b = make_batches(enc, 4, seed=3, epoch=2)
        assert any(not np.array_equal(x.class_ids, y.class_ids) for x, y in zip(a, b))

    def test_shuffle_is_a_permutation(self):
        enc = encoded_toy()
        batches = make_batches(enc, 7, seed=5)
        labels = np.concatenate([b.class_ids for b in batches])
        assert sorted(labels.tolist()) == sorted(enc.class_ids.tolist())

    def test_batches_hold_their_rows_cut_to_their_width(self):
        """Each batch of the dataset-order batcher that untaped passes use
        holds its window's rows in order, cut to its own width; every column
        a batch drops is PAD in all of its rows, and the batches cover the
        dataset once."""
        enc = ragged_encoded()
        batches = window_batches(enc, 6)
        assert [len(b) for b in batches] == [6, 6, 6, len(enc) - 18]
        for start, batch in zip(range(0, len(enc), 6), batches):
            rows = slice(start, start + 6)
            width = batch.tokens.shape[1]
            assert np.array_equal(batch.tokens, enc.tokens[rows, :width])
            assert np.array_equal(batch.class_ids, enc.class_ids[rows])
            assert np.array_equal(batch.lengths, enc.lengths[rows])
            assert np.all(enc.tokens[rows, width:] == PAD_ID)

    def test_every_batch_is_as_wide_as_its_longest_row(self):
        enc = ragged_encoded()
        assert len(np.unique(enc.lengths)) > 3 and enc.lengths.max() == enc.tokens.shape[1]
        batches = window_batches(enc, 5) + make_batches(enc, 5, seed=1, epoch=2)
        for pair in pair_batches(enc, 5, seed=3, epoch=1):
            batches += [pair.first, pair.second]
        widths = set()
        for batch in batches:
            lengths = batch.lengths
            assert batch.tokens.shape == (len(batch), lengths.max()) and lengths.shape == (len(batch),)
            assert lengths.dtype == np.int32
            assert np.all((batch.tokens != PAD_ID).sum(axis=1) == lengths)
            widths.add(batch.tokens.shape[1])
        assert len(widths) > 1

    def test_empty_dataset_rejected(self):
        enc = encoded_toy()
        empty = type(enc)(
            tokens=enc.tokens[:0], lengths=enc.lengths[:0], class_ids=enc.class_ids[:0]
        )
        with pytest.raises(DataError):
            make_batches(empty, 4, seed=0)
        with pytest.raises(DataError):
            window_batches(empty, 4)

    def test_batch_size_lower_bound(self):
        enc = encoded_toy()
        with pytest.raises(DataError):
            make_batches(enc, 0, seed=0)

    def test_every_batcher_checks_its_arguments(self):
        enc = encoded_toy()
        for batch_size in (0, -3):
            for batcher in (make_batches, pair_batches):
                with pytest.raises(DataError, match="batch_size must be >= 1"):
                    batcher(enc, batch_size, 0)
            with pytest.raises(DataError, match="batch_size must be >= 1"):
                window_batches(enc, batch_size)


def numpy_scalar_repair(first, second, order):
    """`corpus._repair_pair` as it ran before it moved to plain lists,
    comparing numpy scalars and swapping through fancy indexing: the
    reference for its swaps. Returns the (position, target) swaps made."""
    swaps = []
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
            raise PairingError(f"cannot pair position {i}: no differing intent available in the epoch")
        for arr in (second, order):
            arr[[i, target]] = arr[[target, i]]
        swaps.append((i, target))
    return swaps


class TestPairing:
    def test_positions_never_share_labels(self):
        # per_class <= batch_size / 2 keeps every shuffle pairable: no
        # intent can fill more than half of both sides of any batch
        enc = encoded_toy(num_classes=5, per_class=8)
        for seed in range(6):
            for pair in pair_batches(enc, 16, seed):
                assert np.all(pair.first.class_ids != pair.second.class_ids)

    def test_dominant_intent_cannot_be_paired(self):
        # seven of eight rows share an intent, over half of both sides
        n = 8
        tokens = np.zeros((n, 3), dtype=np.int32)
        tokens[:, 0] = CLS_ID
        enc = Batch(
            tokens=tokens,
            lengths=np.ones(n, dtype=np.int32),
            class_ids=np.array([1] * 7 + [2], dtype=np.int32),
        )
        with pytest.raises(PairingError, match="cannot pair position"):
            pair_batches(enc, 8, seed=0)

    def test_repair_matches_the_numpy_scalar_reference(self):
        """Seeded label sequences, 2-8 intents over 2-900 rows, shuffled
        twice as pair_batches does: the repair makes the reference's swaps,
        and at a dead end raises its message and leaves both arrays as they
        were. Every fourth sequence has one intent over about half the rows,
        so dead ends and wrap-around swaps both occur."""
        rng = np.random.default_rng(32)
        outcomes = {"later swaps only": 0, "a wrap-around swap": 0, "dead end": 0}
        for case in range(240):
            k, n = int(rng.integers(2, 9)), int(rng.integers(2, 901))
            weights = rng.dirichlet(np.full(k, 4.0))
            if case % 4 == 0:
                weights = 0.5 * weights + 0.5 * np.eye(k)[0]
            labels = rng.choice(np.arange(1, k + 1, dtype=np.int32), size=n, p=weights)
            first, order_b = labels[rng.permutation(n)], rng.permutation(n)
            want_second, want_order = labels[order_b], order_b.copy()
            got_second, got_order = labels[order_b], order_b.copy()
            try:
                swaps = numpy_scalar_repair(first, want_second, want_order)
            except PairingError as exc:
                with pytest.raises(PairingError) as got:
                    corpus._repair_pair(first, got_second, got_order)
                assert str(got.value) == str(exc)
                assert np.array_equal(got_second, labels[order_b]) and np.array_equal(got_order, order_b)
                outcomes["dead end"] += 1
                continue
            corpus._repair_pair(first, got_second, got_order)
            assert got_second.dtype == want_second.dtype and got_order.dtype == want_order.dtype
            assert np.array_equal(got_second, want_second), case
            assert np.array_equal(got_order, want_order), case
            outcomes["a wrap-around swap" if any(j < i for i, j in swaps) else "later swaps only"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_balanced_tail_batch_borrows_from_the_epoch(self):
        # four intents of five rows leave a tail batch of four; for these
        # seeds a repair confined to that tail batch had no valid swap
        n = 20
        tokens = np.zeros((n, 3), dtype=np.int32)
        tokens[:, 0] = CLS_ID
        enc = Batch(
            tokens=tokens,
            lengths=np.ones(n, dtype=np.int32),
            class_ids=np.repeat(np.arange(1, 5), 5).astype(np.int32),
        )
        for seed in (1, 29, 61):
            pairs = pair_batches(enc, 8, seed)
            assert [len(p.first) for p in pairs] == [8, 8, 4]
            for pair in pairs:
                assert np.all(pair.first.class_ids != pair.second.class_ids)
            labels = np.concatenate([p.second.class_ids for p in pairs])
            assert sorted(labels.tolist()) == sorted(enc.class_ids.tolist())

    def test_pairs_are_deterministic(self):
        enc = encoded_toy(num_classes=4, per_class=12)
        a = pair_batches(enc, 8, seed=2)
        b = pair_batches(enc, 8, seed=2)
        for x, y in zip(a, b):
            assert np.array_equal(x.second.tokens, y.second.tokens)

    def test_second_stream_is_a_permutation(self):
        enc = encoded_toy(num_classes=4, per_class=12)
        pairs = pair_batches(enc, 8, seed=4)
        labels = np.concatenate([p.second.class_ids for p in pairs])
        assert sorted(labels.tolist()) == sorted(enc.class_ids.tolist())

    def test_single_class_rejected(self):
        ds = Dataset(
            examples=[LabeledExample(f"t{i}", "a") for i in range(6)]
            + [LabeledExample("u", "b")]
        )
        spec = SplitSpec(seed=0, r=0.5, known_classes=["a"], open_classes=["b"])
        cds = apply_split(ds, spec, "train")
        enc = encode_dataset(cds, build_vocab(ds), 6)
        with pytest.raises(PairingError):
            pair_batches(enc, 4, seed=0)

    def test_arguments_checked_before_the_repair(self):
        """An empty set or a bad batch_size is a DataError, as in
        make_batches, even where the repair would find no pairing."""
        enc = encoded_toy(num_classes=3, per_class=4)
        one_intent = Batch(tokens=enc.tokens, lengths=enc.lengths, class_ids=np.ones_like(enc.class_ids))
        empty = Batch(tokens=enc.tokens[:0], lengths=enc.lengths[:0], class_ids=enc.class_ids[:0])
        with pytest.raises(DataError, match="batch_size must be >= 1"):
            pair_batches(one_intent, 0, seed=0)
        with pytest.raises(DataError, match="cannot batch an empty dataset"):
            pair_batches(empty, 4, seed=0)

    def test_paired_batch_invariant_enforced(self):
        enc = encoded_toy(num_classes=3, per_class=4)
        batch = make_batches(enc, 4, seed=0)[0]
        clone = Batch(
            tokens=batch.tokens.copy(), lengths=batch.lengths.copy(), class_ids=batch.class_ids.copy()
        )
        with pytest.raises(PairingError, match="collide"):
            PairedBatch(first=batch, second=clone)

    def test_size_mismatch_rejected(self):
        enc = encoded_toy(num_classes=3, per_class=4)
        batches = make_batches(enc, 5, seed=0)
        with pytest.raises(PairingError, match="equal size"):
            PairedBatch(first=batches[0], second=batches[-1])
