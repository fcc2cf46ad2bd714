"""Metrics against a brute-force oracle and hand-worked confusion tables."""

import itertools
import json

import numpy as np
import pytest

from snoic.metrics import confusion, evaluate


def tp_fp_fn(counts):
    """Per-class hits, false alarms and misses of a confusion matrix."""
    tp = np.diagonal(counts)
    return tp.tolist(), (counts.sum(axis=0) - tp).tolist(), (counts.sum(axis=1) - tp).tolist()


def oracle_f1(preds, golds, class_id):
    """Straight-from-the-definition F1 for one class."""
    tp = sum(1 for p, g in zip(preds, golds) if p == g == class_id)
    fp = sum(1 for p, g in zip(preds, golds) if p == class_id and g != class_id)
    fn = sum(1 for p, g in zip(preds, golds) if g == class_id and p != class_id)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


class TestConfusion:
    def test_all_correct(self):
        counts = confusion([1, 2, 3], [1, 2, 3], 3)
        assert np.array_equal(counts, np.eye(3, dtype=int))
        assert tp_fp_fn(counts) == ([1, 1, 1], [0, 0, 0], [0, 0, 0])

    def test_hand_worked_counts(self):
        # gold rows, predicted columns: one gold-1 example is predicted 2
        counts = confusion([1, 2, 2, 3], [1, 1, 2, 3], 3)
        assert counts.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert tp_fp_fn(counts) == ([1, 1, 1], [0, 1, 0], [1, 0, 0])
        assert counts.sum() == 4

    def test_empty_inputs(self):
        counts = confusion([], [], 2)
        assert counts.shape == (2, 2) and counts.sum() == 0
        assert evaluate([], [], 2).accuracy == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion([1], [1, 2], 2)

    def test_float_ids_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="predicted ids must be integers"):
            confusion([1.5], [1], 2)
        with pytest.raises(ValueError, match="gold ids must be integers"):
            confusion(np.array([1, 2]), np.array([1.0, 2.0]), 2)

    def test_numpy_int_arrays_accepted(self):
        for dtype in (np.int32, np.int64, np.uint8):
            counts = confusion(np.array([1, 2, 2, 3], dtype), np.array([1, 1, 2, 3], dtype), 3)
            assert np.issubdtype(counts.dtype, np.integer)
            assert tp_fp_fn(counts) == ([1, 1, 1], [0, 1, 0], [1, 0, 0])

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion([3], [1], 2)
        with pytest.raises(ValueError, match="out of range"):
            confusion([1], [0], 2)

    def test_one_row_and_column_per_class(self):
        assert confusion([1], [1], 2).shape == (2, 2)
        assert [row["class"] for row in evaluate([1], [1], 2).per_class] == [1, 2]


class TestPerClassScores:
    def test_perfect_class(self):
        row = evaluate([1, 1], [1, 1], 2).per_class[0]
        assert (row["precision"], row["recall"]) == (1.0, 1.0)
        assert row["f1"] == 1.0

    def test_absent_class_scores_zero(self):
        row = evaluate([1, 1], [1, 1], 3).per_class[2]
        assert (row["precision"], row["recall"]) == (0.0, 0.0)
        assert row["f1"] == 0.0

    def test_balanced_errors(self):
        # Class 1: one hit, one false alarm, one miss.
        row = evaluate([1, 1, 2], [1, 2, 1], 2).per_class[0]
        assert row["precision"] == 0.5 and row["recall"] == 0.5
        assert row["f1"] == 0.5


class TestAggregates:
    def test_hand_worked_report(self):
        # Known classes 1..2, open id 3. One known example drifts to the
        # other known class; the open example is caught.
        preds = [1, 2, 2, 3]
        golds = [1, 1, 2, 3]
        rep = evaluate(preds, golds, 3)
        assert rep.accuracy == 0.75
        assert rep.f1_all == pytest.approx(7 / 9, abs=1e-12)
        assert rep.f1_known == pytest.approx(2 / 3, abs=1e-12)
        assert rep.f1_open == 1.0
        assert rep.M == 2
        assert rep.count == 4

    def test_all_correct_is_all_ones(self):
        rep = evaluate([1, 2, 3, 4], [1, 2, 3, 4], 4)
        assert rep.accuracy == rep.f1_all == rep.f1_known == rep.f1_open == 1.0

    def test_single_known_class_decomposition(self):
        rep = evaluate([1, 2, 1], [1, 2, 2], 2)
        assert rep.f1_all == pytest.approx((1 * rep.f1_known + rep.f1_open) / 2, abs=1e-12)

    def test_f1_known_requires_a_known_class(self):
        with pytest.raises(ValueError, match="at least one known class"):
            evaluate([1], [1], 1)

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            preds = rng.integers(1, c + 1, size=n).tolist()
            golds = rng.integers(1, c + 1, size=n).tolist()
            rep = evaluate(preds, golds, c)
            for v in (rep.accuracy, rep.f1_all, rep.f1_known, rep.f1_open):
                assert 0.0 <= v <= 1.0

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(1, 4, size=30)
        golds = rng.integers(1, 4, size=30)
        rep = evaluate(preds.tolist(), golds.tolist(), 3)
        order = rng.permutation(30)
        rep2 = evaluate(preds[order].tolist(), golds[order].tolist(), 3)
        assert rep.to_dict() == rep2.to_dict()


class TestExhaustiveAgainstOracle:
    def test_every_assignment_up_to_five_examples(self):
        """Exact agreement with a brute-force scorer on all small inputs."""
        for c in (2, 3):
            for n in range(1, 6):
                for preds in itertools.product(range(1, c + 1), repeat=n):
                    for golds in itertools.product(range(1, c + 1), repeat=n):
                        rep = evaluate(list(preds), list(golds), c)
                        per = [oracle_f1(preds, golds, k) for k in range(1, c + 1)]
                        hits = sum(1 for p, g in zip(preds, golds) if p == g)
                        assert rep.accuracy == hits / n
                        assert rep.f1_all == sum(per) / c
                        assert rep.f1_known == sum(per[:-1]) / (c - 1)
                        assert rep.f1_open == per[-1]

    def test_decomposition_identity_on_random_tables(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            preds = rng.integers(1, c + 1, size=n).tolist()
            golds = rng.integers(1, c + 1, size=n).tolist()
            rep = evaluate(preds, golds, c)
            m = c - 1
            lhs = (m * rep.f1_known + rep.f1_open) / (m + 1)
            assert abs(lhs - rep.f1_all) <= 1e-9


class TestReportStructure:
    def test_to_dict_fields(self):
        rep = evaluate([1, 2], [1, 2], 2)
        d = rep.to_dict()
        assert set(d) == {
            "accuracy", "f1_all", "f1_known", "f1_open", "per_class", "M", "count",
        }
        assert d["M"] == 1 and d["count"] == 2

    def test_per_class_rows(self):
        rep = evaluate([1, 2, 3], [1, 2, 3], 3)
        assert [row["class"] for row in rep.per_class] == [1, 2, 3]
        for row in rep.per_class:
            assert row["precision"] == row["recall"] == row["f1"] == 1.0

    def test_to_dict_round_trips_through_json(self):
        rep = evaluate([1, 2, 1], [1, 1, 2], 2)
        d = rep.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert all(type(v) is float for row in d["per_class"] for k, v in row.items() if k != "class")

    def test_counts_from_the_matrix(self):
        # class 1: 3 hits, 2 misses; class 2: 1 hit, 2 false alarms
        preds = [1, 1, 1, 2, 2, 2]
        golds = [1, 1, 1, 1, 1, 2]
        counts = confusion(preds, golds, 2)
        assert counts.tolist() == [[3, 2], [0, 1]]
        assert tp_fp_fn(counts) == ([3, 1], [0, 2], [2, 0])
        row = evaluate(preds, golds, 2).per_class[1]
        assert row["precision"] == 1 / 3 and row["recall"] == 1.0
