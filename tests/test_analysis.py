"""Analysis tests: bucket assignment rules, attention export contracts,
and the exact McNemar tail against a full outcome enumeration."""

import json
import math

import numpy as np
import pytest

from dgreader.analysis import (
    AttentionExport,
    attention_svg,
    bucket_by_length,
    export_attention,
    mcnemar_exact,
    mcnemar_one_sided,
    nearest_center,
)
from dgreader.corpus import ClozeSample
from dgreader.errors import ConfigError, ContractViolation
from oracles import sample_occurrence


def record(sample_id, correct, doc_len=10, qry_len=5, gold="x"):
    return {
        "sample_id": sample_id,
        "predicted": gold if correct else "other",
        "gold": gold,
        "correct": correct,
        "candidate_probs": {},
        "doc_len": doc_len,
        "qry_len": qry_len,
    }


class TestBuckets:
    def test_nearest_center(self):
        assert nearest_center(149, [100, 200]) == 100
        assert nearest_center(151, [100, 200]) == 200

    def test_equidistant_goes_to_lower(self):
        assert nearest_center(150, [100, 200]) == 100

    def test_partition_and_accuracy(self):
        records = [
            record("a", True, doc_len=90),
            record("b", False, doc_len=110),
            record("c", True, doc_len=260),
        ]
        report = bucket_by_length(records, [100, 200, 300])
        assert report.counts == [2, 0, 1]
        assert sum(report.counts) == len(records)
        assert report.accuracies == [0.5, None, 1.0]

    def test_query_axis(self):
        records = [record("a", True, qry_len=4), record("b", True, qry_len=30)]
        report = bucket_by_length(records, [5, 25], axis="query")
        assert report.counts == [1, 1]

    def test_csv_format(self):
        records = [record("a", True, doc_len=90)]
        csv = bucket_by_length(records, [100, 200]).to_csv()
        assert csv == "center,count,accuracy\n100,1,1.000000\n200,0,\n"

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            bucket_by_length([record("a", True)], [200, 100])
        with pytest.raises(ConfigError):
            bucket_by_length([record("a", True)], [])
        with pytest.raises(ConfigError):
            bucket_by_length([record("a", True)], [100], axis="nope")
        with pytest.raises(ContractViolation):
            bucket_by_length([], [100])
        with pytest.raises(ContractViolation):
            bucket_by_length([record("a", None)], [100])


def toy_sample():
    return ClozeSample(
        document=["cat", "dog", "cat", "owl"],
        query=["who", "@placeholder", "barked"],
        candidates=["cat", "dog"],
        answer="dog",
        placeholder_index=1,
    ).validate()


def toy_trace(rng, hops=2, n=4, m=3):
    """Per-hop (1, n, m) energy matrices, as a forward over one sample
    returns them."""
    return [rng.normal(size=(1, n, m)) for _ in range(hops)]


class TestAttentionExport:
    def test_rows_aggregate_occurrences_then_normalize(self):
        rng = np.random.default_rng(0)
        trace = toy_trace(rng)
        sample = toy_sample()
        export = export_attention(trace, sample, sample_occurrence(sample))
        e = trace[0][0]
        raw = np.stack([e[0] + e[2], e[1]])
        want = (raw - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_allclose(export.layers[0], want, atol=1e-12)
        assert len(export.layers) == 2

    def test_single_candidate_covering_everything(self):
        rng = np.random.default_rng(1)
        sample = ClozeSample(
            document=["cat", "cat", "cat"],
            query=["@placeholder", "sat"],
            candidates=["cat"],
            answer="cat",
            placeholder_index=0,
        ).validate()
        trace = toy_trace(rng, hops=1, n=3, m=2)
        export = export_attention(trace, sample, sample_occurrence(sample))
        raw = trace[0][0].sum(axis=0, keepdims=True)
        want = (raw - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_allclose(export.layers[0], want, atol=1e-12)

    def test_minmax_hits_zero_and_one(self):
        rng = np.random.default_rng(2)
        export = export_attention(toy_trace(rng), toy_sample(), sample_occurrence(toy_sample()))
        for layer in export.layers:
            assert layer.min() == 0.0 and layer.max() == 1.0

    def test_constant_layer_exports_zeros(self):
        # both candidates occur once, so constant energies stay constant
        # after aggregation and normalization degenerates
        sample = ClozeSample(
            document=["cat", "dog", "owl", "owl"],
            query=["who", "@placeholder", "barked"],
            candidates=["cat", "dog"],
            answer="dog",
            placeholder_index=1,
        ).validate()
        export = export_attention([np.full((1, 4, 3), 0.7)], sample, sample_occurrence(sample))
        np.testing.assert_array_equal(export.layers[0], 0.0)
        np.testing.assert_array_equal(export.placeholder_column, 0.0)

    def test_placeholder_column_comes_from_last_layer(self):
        rng = np.random.default_rng(3)
        sample = toy_sample()
        export = export_attention(toy_trace(rng), sample, sample_occurrence(sample))
        np.testing.assert_array_equal(
            export.placeholder_column, export.layers[-1][:, sample.placeholder_index]
        )

    def test_pure_function(self):
        rng = np.random.default_rng(4)
        trace = toy_trace(rng)
        sample = toy_sample()
        a = export_attention(trace, sample, sample_occurrence(sample))
        b = export_attention(trace, sample, sample_occurrence(sample))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la, lb)

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        export = export_attention(toy_trace(rng), toy_sample(), sample_occurrence(toy_sample()))
        data = json.loads(export.to_json())
        assert data["candidates"] == ["cat", "dog"]
        assert len(data["layers"]) == 2
        np.testing.assert_allclose(np.array(data["layers"][0]), export.layers[0])

    def test_svg_contains_grid_and_labels(self):
        rng = np.random.default_rng(6)
        export = export_attention(toy_trace(rng), toy_sample(), sample_occurrence(toy_sample()))
        svg = attention_svg(export)
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<rect") == 2 * 3
        assert "cat" in svg and "dog" in svg


def enumerate_tail(b, c):
    """Count all coin-flip outcomes with at least b heads, exhaustively."""
    n = b + c
    outcomes = np.arange(2 ** n, dtype=np.uint32)
    heads = np.zeros(2 ** n, dtype=np.uint32)
    for bit in range(n):
        heads += (outcomes >> bit) & 1
    return int((heads >= b).sum()) / 2 ** n


class TestMcNemar:
    def test_golden_value(self):
        want = (math.comb(12, 10) + math.comb(12, 11) + math.comb(12, 12)) / 4096
        assert want == 79 / 4096
        assert abs(mcnemar_exact(10, 2) - 79 / 4096) < 1e-12

    def test_tail_from_zero_is_one(self):
        assert mcnemar_exact(0, 5) == 1.0

    def test_symmetric_counts_at_least_half(self):
        for k in (1, 3, 7):
            assert mcnemar_exact(k, k) >= 0.5

    def test_no_discordant_pairs_warns(self):
        with pytest.warns(UserWarning):
            assert mcnemar_exact(0, 0) == 1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ContractViolation):
            mcnemar_exact(-1, 2)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
    def test_matches_full_enumeration(self, n):
        for b in range(n + 1):
            assert mcnemar_exact(b, n - b) == enumerate_tail(b, n - b)

    def test_records_level_counts(self):
        a = [record("s0", True), record("s1", True), record("s2", False), record("s3", True)]
        b = [record("s0", False), record("s1", True), record("s2", True), record("s3", False)]
        result = mcnemar_one_sided(a, b)
        assert (result.b, result.c) == (2, 1)
        assert result.p_value == mcnemar_exact(2, 1)
        parsed = json.loads(result.to_json())
        assert parsed == {"b": 2, "c": 1, "p_value": result.p_value}
        assert "\n" not in result.to_json()

    def test_misaligned_files_rejected(self):
        with pytest.raises(ContractViolation, match="aligned"):
            mcnemar_one_sided([record("s0", True)], [record("s9", True)])

    def test_gold_disagreement_rejected(self):
        a = [record("s0", True, gold="x")]
        b = [record("s0", True, gold="y")]
        with pytest.raises(ContractViolation, match="gold"):
            mcnemar_one_sided(a, b)

    def test_duplicate_ids_rejected(self):
        a = [record("s0", True), record("s0", True)]
        with pytest.raises(ContractViolation, match="duplicate"):
            mcnemar_one_sided(a, a)
