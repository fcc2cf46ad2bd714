"""Dataset ingestion, vocabulary, split protocol, and batching behavior."""

import json

import numpy as np
import pytest

from snoic.corpus import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Batch,
    Dataset,
    EncodedDataset,
    LabeledExample,
    PairedBatch,
    SplitSpec,
    Vocab,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_batches,
    make_split,
    ordered_batches,
    pair_batches,
    subsample_labeled,
    tokenize,
    tokenize_text,
)
from snoic.errors import DataError, PairingError


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    return str(path)


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
    def test_tokenize_text_lowercases_and_splits(self):
        assert tokenize_text("Book a FLIGHT, please!") == ["book", "a", "flight", "please"]

    def test_build_vocab_reserves_first_ids(self):
        ds = Dataset(examples=[LabeledExample("a b", "x")])
        vocab = build_vocab(ds)
        assert vocab.id_to_token[:3] == list(RESERVED_TOKENS)
        assert vocab.lookup("<pad>") == PAD_ID
        assert vocab.lookup("<cls>") == CLS_ID

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
        assert build_vocab(ds).lookup("never-seen") == UNK_ID

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

    def test_cls_prefix_and_padding(self, vocab):
        seq = tokenize("alpha beta", vocab, max_len=6)
        assert seq.ids[0] == CLS_ID
        assert seq.length == 3
        assert list(seq.ids[3:]) == [PAD_ID] * 3

    def test_unknown_words_become_unk(self, vocab):
        seq = tokenize("alpha zzz", vocab, max_len=6)
        assert seq.ids[2] == UNK_ID

    def test_truncation_keeps_prefix(self, vocab):
        seq = tokenize("alpha beta gamma alpha beta", vocab, max_len=3)
        assert seq.length == 3
        assert len(seq.ids) == 3

    def test_max_len_lower_bound(self, vocab):
        with pytest.raises(DataError):
            tokenize("alpha", vocab, max_len=1)


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
            with pytest.raises(DataError, match="known-class ratio"):
                self._load(tmp_path, r=r)

    def test_load_rejects_seed_that_is_not_a_non_negative_int(self, tmp_path):
        for seed in (-1, 2.0, "3", True, None):
            with pytest.raises(DataError, match="split seed"):
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


class TestBatching:
    def test_encode_dataset_shapes(self):
        enc = encoded_toy()
        assert enc.tokens.shape == (len(enc), 8)
        assert enc.tokens.dtype == np.int32
        assert enc.lengths.min() >= 1

    def test_batch_sizes_cover_dataset(self):
        # 3 classes at r=0.9 keep M=2 known classes, 5 examples each.
        enc = encoded_toy(num_classes=3, per_class=5)
        batches = make_batches(enc, 4, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_mask_matches_lengths(self):
        enc = encoded_toy()
        for batch in make_batches(enc, 6, seed=1):
            lengths = batch.mask.sum(axis=1).astype(int)
            assert np.all((batch.tokens != PAD_ID).sum(axis=1) == lengths)
            # leading-ones structure
            for row, ln in zip(batch.mask, lengths):
                assert np.all(row[:ln] == 1.0) and np.all(row[ln:] == 0.0)

    def test_same_seed_same_epoch_identical(self):
        enc = encoded_toy()
        a = make_batches(enc, 4, seed=3, epoch=2)
        b = make_batches(enc, 4, seed=3, epoch=2)
        assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(a, b))

    def test_epochs_reshuffle(self):
        enc = encoded_toy()
        a = make_batches(enc, 4, seed=3, epoch=1)
        b = make_batches(enc, 4, seed=3, epoch=2)
        assert any(not np.array_equal(x.labels, y.labels) for x, y in zip(a, b))

    def test_shuffle_is_a_permutation(self):
        enc = encoded_toy()
        batches = make_batches(enc, 7, seed=5)
        labels = np.concatenate([b.labels for b in batches])
        assert sorted(labels.tolist()) == sorted(enc.class_ids.tolist())

    def test_ordered_batches_preserve_order(self):
        enc = encoded_toy()
        batches = ordered_batches(enc, 6)
        tokens = np.concatenate([b.tokens for b in batches])
        assert np.array_equal(tokens, enc.tokens)

    def test_empty_dataset_rejected(self):
        enc = encoded_toy()
        empty = type(enc)(
            tokens=enc.tokens[:0], lengths=enc.lengths[:0], class_ids=enc.class_ids[:0]
        )
        with pytest.raises(DataError):
            make_batches(empty, 4, seed=0)
        with pytest.raises(DataError):
            ordered_batches(empty, 4)

    def test_batch_size_lower_bound(self):
        enc = encoded_toy()
        with pytest.raises(DataError):
            make_batches(enc, 0, seed=0)


class TestPairing:
    def test_positions_never_share_labels(self):
        # per_class <= batch_size / 2 keeps every shuffle pairable: no
        # intent can fill more than half of both sides of any batch
        enc = encoded_toy(num_classes=5, per_class=8)
        for seed in range(6):
            for pair in pair_batches(enc, 16, seed):
                assert np.all(pair.first.labels != pair.second.labels)

    def test_dominant_intent_cannot_be_paired(self):
        # seven of eight rows share an intent, over half of both sides
        n = 8
        tokens = np.zeros((n, 3), dtype=np.int32)
        tokens[:, 0] = CLS_ID
        enc = EncodedDataset(
            tokens=tokens,
            lengths=np.ones(n, dtype=np.int32),
            class_ids=np.array([1] * 7 + [2], dtype=np.int32),
        )
        with pytest.raises(PairingError, match="cannot pair position"):
            pair_batches(enc, 8, seed=0)

    def test_balanced_tail_batch_borrows_from_the_epoch(self):
        # four intents of five rows leave a tail batch of four; for these
        # seeds a repair confined to that tail batch had no valid swap
        n = 20
        tokens = np.zeros((n, 3), dtype=np.int32)
        tokens[:, 0] = CLS_ID
        enc = EncodedDataset(
            tokens=tokens,
            lengths=np.ones(n, dtype=np.int32),
            class_ids=np.repeat(np.arange(1, 5), 5).astype(np.int32),
        )
        for seed in (1, 29, 61):
            pairs = pair_batches(enc, 8, seed)
            assert [len(p.first) for p in pairs] == [8, 8, 4]
            for pair in pairs:
                assert np.all(pair.first.labels != pair.second.labels)
            labels = np.concatenate([p.second.labels for p in pairs])
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
        labels = np.concatenate([p.second.labels for p in pairs])
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

    def test_paired_batch_invariant_enforced(self):
        enc = encoded_toy(num_classes=3, per_class=4)
        batch = make_batches(enc, 4, seed=0)[0]
        clone = Batch(
            tokens=batch.tokens.copy(), mask=batch.mask.copy(), labels=batch.labels.copy()
        )
        with pytest.raises(PairingError, match="collide"):
            PairedBatch(first=batch, second=clone)

    def test_size_mismatch_rejected(self):
        enc = encoded_toy(num_classes=3, per_class=4)
        batches = make_batches(enc, 5, seed=0)
        with pytest.raises(PairingError, match="equal size"):
            PairedBatch(first=batches[0], second=batches[-1])
