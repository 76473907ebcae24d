"""Ranker tests: occurrences, tie-breaking and the prediction record
round trip, plus the scalar oracles in tests/oracles.py checked against
their own references: the token distribution against a scalar softmax,
occurrence aggregation against a brute-force positional scan (exact
equality)."""

import json
import math
import re

import numpy as np
import pytest

from dgreader.errors import ContractViolation, ParseError
from dgreader.ranker import dump_predictions, load_predictions, predict, prediction_record
from oracles import (
    CandidateOccurrences,
    aggregate_candidates,
    find_occurrences,
    occurrence_matrix,
    rank,
    token_distribution,
)


def scalar_distribution(doc_enc, q, mask):
    """exp-normalize over unmasked positions, one scalar at a time"""
    scores = [sum(doc_enc[t, k] * q[k] for k in range(len(q))) for t in range(len(doc_enc))]
    live = [s for s, m in zip(scores, mask) if m]
    top = max(live)
    exps = [math.exp(s - top) if m else 0.0 for s, m in zip(scores, mask)]
    z = sum(exps)
    return np.array([v / z for v in exps])


def brute_force_aggregate(y, doc_tokens, candidates):
    """scan every document position once per candidate, ascending order"""
    sums = {}
    for cand in candidates:
        total = 0.0
        for t in range(len(doc_tokens)):
            if doc_tokens[t] == cand:
                total = total + y[t]
        sums[cand] = total
    denom = 0.0
    for cand in candidates:
        denom = denom + sums[cand]
    return {cand: sums[cand] / denom for cand in candidates}


class TestTokenDistribution:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        doc_enc = rng.normal(size=(7, 5))
        q = rng.normal(size=5)
        mask = np.array([1.0] * 5 + [0.0] * 2)
        qry_enc = rng.normal(size=(4, 5))
        qry_enc[2] = q
        y = token_distribution(doc_enc, qry_enc, 2, mask)
        np.testing.assert_allclose(y, scalar_distribution(doc_enc, q, mask), atol=1e-12)

    def test_no_mask_covers_everything(self):
        rng = np.random.default_rng(5)
        doc_enc = rng.normal(size=(6, 3))
        qry_enc = rng.normal(size=(2, 3))
        y = token_distribution(doc_enc, qry_enc, 0)
        np.testing.assert_allclose(y, scalar_distribution(doc_enc, qry_enc[0], [1.0] * 6), atol=1e-12)
        assert abs(y.sum() - 1.0) < 1e-12

    def test_masked_positions_are_exact_zero(self):
        rng = np.random.default_rng(6)
        y = token_distribution(
            rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), 1, np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        )
        assert y[1] == 0.0 and y[3] == 0.0

    def test_placeholder_index_out_of_range(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ContractViolation, match="placeholder"):
            token_distribution(rng.normal(size=(5, 3)), rng.normal(size=(2, 3)), 2)

    def test_width_mismatch(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ContractViolation):
            token_distribution(rng.normal(size=(5, 3)), rng.normal(size=(2, 4)), 0)


class TestOccurrences:
    def test_positions_ascend_per_candidate(self):
        doc = ["a", "b", "a", "c", "b", "a"]
        occ = find_occurrences(doc, ["a", "b"])
        assert occ.positions == {"a": [0, 2, 5], "b": [1, 4]}

    def test_missing_candidate_rejected(self):
        with pytest.raises(ContractViolation, match="zz"):
            find_occurrences(["a", "b"], ["a", "zz"])

    def test_matrix_layout(self):
        occ = CandidateOccurrences({"x": [1], "y": [0, 2]})
        m = occurrence_matrix(occ, 4, ["y", "x"])
        np.testing.assert_array_equal(m, [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class TestAggregate:
    @pytest.mark.parametrize("seed", range(6))
    def test_exactly_matches_brute_force(self, seed):
        rng = np.random.default_rng(500 + seed)
        alphabet = ["amy", "bob", "cat", "dog", "elk"]
        doc = [alphabet[i] for i in rng.integers(0, 5, size=30)]
        candidates = sorted(set(doc))[:4]
        for c in candidates:
            if c not in doc:
                doc[rng.integers(0, 30)] = c
        y = rng.random(30)
        y /= y.sum()
        occ = find_occurrences(doc, candidates)
        got = aggregate_candidates(y, occ)
        want = brute_force_aggregate(y, doc, candidates)
        assert got == want  # bit-for-bit, not approximately

    def test_probabilities_renormalize_over_candidates(self):
        y = np.array([0.5, 0.25, 0.125, 0.125])
        occ = find_occurrences(["a", "b", "a", "x"], ["a", "b"])
        probs = aggregate_candidates(y, occ)
        assert probs == {"a": 0.625 / 0.875, "b": 0.25 / 0.875}

    def test_zero_mass_rejected(self):
        occ = find_occurrences(["a", "b"], ["a"])
        with pytest.raises(ContractViolation, match="mass"):
            aggregate_candidates(np.array([0.0, 1.0]), occ)


class TestPredict:
    def test_highest_probability_wins(self):
        assert predict({"x": 0.2, "y": 0.7, "z": 0.1}) == "y"

    def test_ties_break_lexicographically(self):
        assert predict({"zeta": 0.4, "beta": 0.4, "alp": 0.2}) == "beta"
        assert predict({"b": 0.5, "a": 0.5}) == "a"

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            predict({})

    def test_candidate_order_is_irrelevant(self):
        rng = np.random.default_rng(9)
        doc = ["p", "q", "r", "p", "q", "s"]
        y = rng.random(6)
        y /= y.sum()
        cands = ["p", "q", "r"]
        base = rank(np.tile(rng.normal(size=3), (6, 1)) * 0 + 1.0, np.ones((1, 3)), 0, doc, cands)
        # identical encodings give a uniform y; permuting candidates must not
        # change per-candidate probabilities or the prediction
        for perm in (["q", "r", "p"], ["r", "p", "q"]):
            other = rank(np.ones((6, 3)), np.ones((1, 3)), 0, doc, perm)
            assert other.candidate_probs == base.candidate_probs
            assert other.predicted == base.predicted


class TestRank:
    def test_end_to_end_sample(self):
        rng = np.random.default_rng(10)
        doc = ["cat", "sat", "mat", "cat", "dog"]
        doc_enc = rng.normal(size=(5, 4))
        qry_enc = rng.normal(size=(3, 4))
        dist = rank(doc_enc, qry_enc, 1, doc, ["cat", "dog", "mat"])
        y = scalar_distribution(doc_enc, qry_enc[1], [1.0] * 5)
        want = brute_force_aggregate(y, doc, ["cat", "dog", "mat"])
        for cand, p in want.items():
            assert abs(dist.candidate_probs[cand] - p) < 1e-12
        assert dist.predicted == max(sorted(want), key=lambda c: want[c])
        assert abs(sum(dist.candidate_probs.values()) - 1.0) < 1e-12


class TestPredictionRecords:
    def make_records(self):
        rng = np.random.default_rng(11)
        records = []
        for i in range(3):
            doc = ["a", "b", "c", "a"]
            dist = rank(rng.normal(size=(4, 3)), rng.normal(size=(2, 3)), 0, doc, ["a", "b"])
            records.append(prediction_record(f"s{i}", dist, "a", 4, 2))
        return records

    def test_round_trip(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "preds.jsonl"
        dump_predictions(records, path)
        assert load_predictions(path) == records

    def test_records_carry_required_keys(self):
        rec = self.make_records()[0]
        assert rec["sample_id"] == "s0"
        assert rec["gold"] == "a"
        assert rec["correct"] in (True, False)
        assert set(rec["candidate_probs"]) == {"a", "b"}

    def test_missing_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = self.make_records()[0]
        del rec["predicted"]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_predictions(path)

    @pytest.mark.parametrize("key, value", [
        ("sample_id", 0), ("predicted", None), ("gold", 5), ("correct", "true"),
        ("correct", 1), ("candidate_probs", [0.5]), ("doc_len", True), ("qry_len", 2.0),
    ])
    def test_mistyped_value_rejected_with_line_and_key(self, tmp_path, key, value):
        path = tmp_path / "bad.jsonl"
        records = self.make_records()
        records[1][key] = value
        dump_predictions(records, path)
        with pytest.raises(ParseError, match=re.escape(f"{path} line 2: key {key!r} must be")):
            load_predictions(path)

    def test_unlabeled_record_loads(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = self.make_records()
        records[0].update(gold=None, correct=None)
        dump_predictions(records, path)
        assert load_predictions(path) == records

    def test_bad_json_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(self.make_records()[0])
        path.write_text(good + "\nnot json\n")
        with pytest.raises(ParseError, match="line 2"):
            load_predictions(path)
