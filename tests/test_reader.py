"""Reader tests: ablation lattice validation, attention against scalar
oracles, the wiring of one encoding round, padding invariance, and the
degenerate-configuration equivalence with an independently coded
reference."""

import math

import numpy as np
import pytest

from dgreader.autodiff import Tape, backward, bigru, final_states
from dgreader.errors import ConfigError, ContractViolation, DimensionError
from dgreader.reader import (
    ABLATION_PRESETS,
    ReaderConfig,
    ReaderParams,
    attend,
    encode_full,
)

from ga_reference import ga_encode, random_embeddings, suffix_mask
from oracles import qe_comm_features, sum_all


def scalar_cross_attend(e, doc, qry, doc_mask, qry_mask):
    """Plain-Python double-loop oracle for one sample's cross attention."""
    n, m = e.shape
    r = doc.shape[1]
    doc_ctx = np.zeros((n, r))
    for i in range(n):
        exp = [math.exp(e[i, j] - max(e[i, k] for k in range(m) if qry_mask[k])) if qry_mask[j] else 0.0 for j in range(m)]
        z = sum(exp)
        for j in range(m):
            for k in range(r):
                doc_ctx[i, k] += (exp[j] / z) * qry[j, k]
    qry_ctx = np.zeros((m, r))
    for j in range(m):
        exp = [math.exp(e[i, j] - max(e[k, j] for k in range(n) if doc_mask[k])) if doc_mask[i] else 0.0 for i in range(n)]
        z = sum(exp)
        for i in range(n):
            for k in range(r):
                qry_ctx[j, k] += (exp[i] / z) * doc[i, k]
    return doc_ctx, qry_ctx


def tiny_setup(rng, hops=2, hidden=8, dim=5, qe=True, **flags):
    cfg = ReaderConfig(hops=hops, hidden=hidden, qe_comm=qe, **flags).validate()
    params = ReaderParams.create(rng, cfg, dim)
    return cfg, params


class TestReaderConfig:
    def test_all_presets_are_valid(self):
        for name in ABLATION_PRESETS:
            ReaderConfig.from_preset(name)

    def test_query_gating_without_dependent_query_rejected(self):
        with pytest.raises(ConfigError, match="dependent_query"):
            ReaderConfig(query_gating=True, dependent_query=False).validate()

    def test_ga_preset_turns_everything_off(self):
        cfg = ReaderConfig.from_preset("ga-reader")
        assert not (cfg.query_gating or cfg.dependent_query or cfg.carry_query_state)

    def test_bad_hops_and_hidden_rejected(self):
        with pytest.raises(ConfigError):
            ReaderConfig(hops=0).validate()
        with pytest.raises(ConfigError):
            ReaderConfig(hidden=7).validate()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ReaderConfig.from_preset("nope")

    def test_parameter_ids_are_unique_and_unshared(self):
        rng = np.random.default_rng(0)
        _, params = tiny_setup(rng)
        ids = [p.id for p in params.parameters()]
        assert len(ids) == len(set(ids))
        # three readings per side, none sharing arrays
        buffers = {id(p.data) for p in params.parameters()}
        assert len(buffers) == len(ids)

    def test_qe_comm_widens_final_document_reader_only(self):
        rng = np.random.default_rng(1)
        cfg, params = tiny_setup(rng, hops=2, hidden=8, dim=5, qe=True)
        assert params.doc_readers[0].input_size == 5
        assert params.doc_readers[1].input_size == 8
        assert params.doc_readers[2].input_size == 9


class TestCrossAttend:
    """`attend` in both directions over one energy matrix."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_double_loop_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, m, r = 5, 4, 3
        doc = rng.normal(size=(1, n, r))
        qry = rng.normal(size=(1, m, r))
        dmask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0]])
        qmask = np.array([[1.0, 1.0, 1.0, 0.0]])
        tape = Tape()
        d_t, q_t = tape.constant(doc), tape.constant(qry)
        e = tape.matmul(d_t, tape.transpose_last2(q_t))
        doc_ctx = attend(e, q_t, qmask)
        qry_ctx = attend(tape.transpose_last2(e), d_t, dmask)
        exp_doc, exp_qry = scalar_cross_attend(e.data[0], doc[0], qry[0], dmask[0], qmask[0])
        np.testing.assert_allclose(doc_ctx.data[0], exp_doc, atol=1e-12)
        np.testing.assert_allclose(qry_ctx.data[0][qmask[0] == 1.0], exp_qry[qmask[0] == 1.0], atol=1e-12)

    def test_attention_rows_sum_to_one_and_mask_out(self):
        # attending identity values returns the attention weights as is
        rng = np.random.default_rng(4)
        doc = rng.normal(size=(2, 6, 4))
        qry = rng.normal(size=(2, 5, 4))
        dmask = suffix_mask(rng, 2, 6)
        qmask = suffix_mask(rng, 2, 5)
        tape = Tape()
        e = tape.matmul(tape.constant(doc), tape.transpose_last2(tape.constant(qry)))
        att_doc = attend(e, tape.constant(np.broadcast_to(np.eye(5), (2, 5, 5))), qmask).data
        e_t = tape.transpose_last2(e)
        att_qry = attend(e_t, tape.constant(np.broadcast_to(np.eye(6), (2, 6, 6))), dmask).data
        np.testing.assert_array_equal(att_doc, tape.masked_softmax(e, qmask[:, None, :]).data)
        np.testing.assert_array_equal(att_qry, tape.masked_softmax(e_t, dmask[:, None, :]).data)
        np.testing.assert_allclose(att_doc.sum(-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(att_qry.sum(-1), 1.0, atol=1e-12)
        for b in range(2):
            assert (att_doc[b][:, qmask[b] == 0.0] == 0.0).all()
            assert (att_qry[b][:, dmask[b] == 0.0] == 0.0).all()


class TestQeFeatures:
    def test_marks_query_tokens_and_skips_placeholder(self):
        doc = ["the", "cat", "@placeholder", "sat", "cat"]
        qry = ["where", "did", "the", "@placeholder", "cat", "go"]
        np.testing.assert_array_equal(
            qe_comm_features(doc, qry), [1.0, 1.0, 0.0, 0.0, 1.0]
        )

    def test_empty_overlap(self):
        np.testing.assert_array_equal(qe_comm_features(["a", "b"], ["c", "@placeholder"]), [0.0, 0.0])


class TestHopWiring:
    def test_full_flags_hop_equals_manual_composition(self):
        rng = np.random.default_rng(10)
        cfg, params = tiny_setup(rng, hops=1, qe=False)
        doc, qry = random_embeddings(rng, 1, 6, 4, 5)
        dmask, qmask = np.ones((1, 6)), np.ones((1, 4))
        tape = Tape()
        d1_got, q1_got, energies = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, dmask, qmask
        )

        # manual straight-line recomputation
        ref = Tape()
        d0 = bigru(ref.constant(doc), None, None, params.doc_readers[0], dmask)
        q0 = bigru(ref.constant(qry), None, None, params.qry_readers[0], qmask)
        qf = final_states(q0)
        e = ref.matmul(d0, ref.transpose_last2(q0))
        a_d = ref.masked_softmax(e, qmask[:, None, :])
        a_q = ref.masked_softmax(ref.transpose_last2(e), dmask[:, None, :])
        u = ref.mul(d0, ref.matmul(a_d, q0))
        v = ref.mul(q0, ref.matmul(a_q, d0))
        d1 = bigru(u, None, None, params.doc_readers[1], dmask)
        q1 = bigru(v, qf[0], qf[1], params.qry_readers[1], qmask)
        np.testing.assert_allclose(energies[0], e.data, atol=1e-14)
        np.testing.assert_allclose(d1_got.data, d1.data, atol=1e-13)
        np.testing.assert_allclose(q1_got.data, q1.data, atol=1e-13)

    def test_flag_routing_changes_query_side_only(self):
        # within a single round the flags steer the query reading's input
        # and initial state; the document reading is unaffected
        rng = np.random.default_rng(11)
        full_cfg = ReaderConfig(hops=1, hidden=8, qe_comm=False).validate()
        params = ReaderParams.create(np.random.default_rng(50), full_cfg, 5)
        doc, qry = random_embeddings(rng, 1, 6, 4, 5)
        dmask, qmask = np.ones((1, 6)), np.ones((1, 4))
        tape = Tape()
        d_emb, q_emb = tape.constant(doc), tape.constant(qry)
        full_d, full_q, _ = encode_full(d_emb, q_emb, full_cfg, params, dmask, qmask)
        for flags in (
            dict(query_gating=False, dependent_query=True, carry_query_state=True),
            dict(query_gating=True, dependent_query=True, carry_query_state=False),
        ):
            cfg = ReaderConfig(hops=1, hidden=8, qe_comm=False, **flags).validate()
            ablated_d, ablated_q, _ = encode_full(d_emb, q_emb, cfg, params, dmask, qmask)
            assert not np.allclose(ablated_q.data, full_q.data)
            np.testing.assert_allclose(ablated_d.data, full_d.data, atol=1e-13)


class TestEncodeFull:
    def test_trace_has_one_energy_matrix_per_hop(self):
        rng = np.random.default_rng(20)
        for hops in (1, 2, 3):
            cfg, params = tiny_setup(rng, hops=hops, qe=False)
            doc, qry = random_embeddings(rng, 2, 5, 4, 5)
            tape = Tape()
            _, _, energies = encode_full(
                tape.constant(doc), tape.constant(qry), cfg, params, np.ones((2, 5)), np.ones((2, 4))
            )
            assert len(energies) == hops
            assert energies[0].shape == (2, 5, 4)

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_query_side_reads_document_only_through_query_gating(self, preset):
        rng = np.random.default_rng(27)
        cfg = ReaderConfig.from_preset(preset, hops=2, hidden=8, qe_comm=False)
        params = ReaderParams.create(np.random.default_rng(98), cfg, 5)
        doc, qry = random_embeddings(rng, 2, 6, 4, 5)
        dmask = suffix_mask(rng, 2, 6)
        qmask = suffix_mask(rng, 2, 4)

        tape = Tape()
        _, qry_enc, _ = encode_full(tape.constant(doc), tape.constant(qry), cfg, params, dmask, qmask)
        softmaxes = sum(node.op == "masked_softmax" for node in tape.nodes)
        assert softmaxes == (2 * cfg.hops if cfg.query_gating else cfg.hops)
        moved = doc + rng.normal(size=doc.shape)
        _, moved_q, _ = encode_full(
            tape.constant(moved), tape.constant(qry), cfg, params, dmask, qmask
        )
        assert np.array_equal(moved_q.data, qry_enc.data) == (not cfg.query_gating)

    def test_rank_two_inputs_rejected(self):
        # a single sample is a batch of one; an unbatched (T, D) sequence
        # is a located shape error in both the pass and the scan
        rng = np.random.default_rng(21)
        cfg, params = tiny_setup(rng, qe=False)
        tape = Tape()
        doc, qry = tape.constant(rng.normal(size=(5, 5))), tape.constant(rng.normal(size=(3, 5)))
        with pytest.raises(DimensionError, match=r"\(5, 5\) and \(3, 5\)"):
            encode_full(doc, qry, cfg, params, np.ones((1, 5)), np.ones((1, 3)))
        with pytest.raises(DimensionError, match=r"bigru expects \(B, T, in\), got \(5, 5\)"):
            bigru(doc, None, None, params.doc_readers[0], np.ones((1, 5)))

    def test_qe_mismatch_rejected(self):
        rng = np.random.default_rng(22)
        cfg, params = tiny_setup(rng, qe=True)
        doc, qry = random_embeddings(rng, 1, 5, 3, 5)
        tape = Tape()
        with pytest.raises(ContractViolation, match="qe"):
            encode_full(
                tape.constant(doc), tape.constant(qry), cfg, params, np.ones((1, 5)), np.ones((1, 3))
            )

    @staticmethod
    def readings_per_preset(hops):
        """Each preset's final readings and energies after `hops` rounds.
        The input width equals hidden, so every reading has the same
        shape under every preset and all six draw identical parameters
        from one seed."""
        rng = np.random.default_rng(23)
        doc, qry = random_embeddings(rng, 2, 6, 4, 8)
        dmask = suffix_mask(rng, 2, 6)
        qmask = suffix_mask(rng, 2, 4)
        readings, weights = {}, {}
        for name in sorted(ABLATION_PRESETS):
            cfg = ReaderConfig.from_preset(name, hops=hops, hidden=8, qe_comm=False)
            params = ReaderParams.create(np.random.default_rng(99), cfg, 8)
            tape = Tape()
            doc_enc, qry_enc, energies = encode_full(
                tape.constant(doc), tape.constant(qry), cfg, params, dmask, qmask
            )
            readings[name] = (doc_enc.data, qry_enc.data, energies)
            weights[name] = [p.data for p in params.parameters()]
        return readings, weights

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_every_preset_runs_and_differs_where_expected(self, preset):
        # After one round the document reading has seen only reading 0,
        # which no switch touches; the query reading differs between any
        # two presets, since each pair differs in the query reading's
        # input (gated, previous reading or raw embeddings) or its
        # initial states.
        readings, weights = self.readings_per_preset(1)
        doc_enc, qry_enc, _ = readings[preset]
        assert np.isfinite(doc_enc).all() and np.isfinite(qry_enc).all()
        for other, (other_doc, other_qry, _) in readings.items():
            for mine, theirs in zip(weights[preset], weights[other]):
                np.testing.assert_array_equal(mine, theirs)
            np.testing.assert_array_equal(doc_enc, other_doc)
            if other != preset:
                assert not np.allclose(qry_enc, other_qry), (preset, other)
        # Past one round the hop-1 energies still read only reading 0, so
        # they agree across presets; the hop-2 energies read the round-1
        # query reading, and the final document reading is gated by it,
        # so both differ between any two presets.
        for hops in (2, 3):
            readings, weights = self.readings_per_preset(hops)
            doc_enc, _, energies = readings[preset]
            for other, (other_doc, _, other_energies) in readings.items():
                for mine, theirs in zip(weights[preset], weights[other]):
                    np.testing.assert_array_equal(mine, theirs)
                np.testing.assert_array_equal(energies[0], other_energies[0])
                if other != preset:
                    assert not np.allclose(energies[1], other_energies[1]), (hops, preset, other)
                    assert not np.allclose(doc_enc, other_doc), (hops, preset, other)

    def test_flags_off_matches_independent_reference(self):
        rng = np.random.default_rng(24)
        cfg = ReaderConfig.from_preset("ga-reader", hops=2, hidden=8, qe_comm=True)
        params = ReaderParams.create(np.random.default_rng(7), cfg, 5)
        doc, qry = random_embeddings(rng, 2, 6, 4, 5)
        dmask = suffix_mask(rng, 2, 6)
        qmask = suffix_mask(rng, 2, 4)
        qe = (rng.random((2, 6)) > 0.5).astype(float)

        tape = Tape()
        got_d, got_q, _ = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, dmask, qmask, qe
        )
        exp_d, exp_q = ga_encode(doc, qry, params, 2, dmask, qmask, qe)
        np.testing.assert_allclose(got_d.data, exp_d, atol=1e-12)
        np.testing.assert_allclose(got_q.data, exp_q, atol=1e-12)

    def test_padding_does_not_change_real_token_encodings(self):
        rng = np.random.default_rng(25)
        cfg, params = tiny_setup(rng, qe=False)
        doc, qry = random_embeddings(rng, 1, 5, 3, 5)

        tape = Tape()
        short_d, short_q, _ = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, np.ones((1, 5)), np.ones((1, 3))
        )

        pad_doc = np.concatenate([doc, rng.normal(size=(1, 4, 5))], axis=1)
        pad_qry = np.concatenate([qry, rng.normal(size=(1, 2, 5))], axis=1)
        dmask = np.array([[1.0] * 5 + [0.0] * 4])
        qmask = np.array([[1.0] * 3 + [0.0] * 2])
        long_d, long_q, _ = encode_full(
            tape.constant(pad_doc), tape.constant(pad_qry), cfg, params, dmask, qmask
        )
        np.testing.assert_array_equal(long_d.data[0, :5], short_d.data[0])
        np.testing.assert_array_equal(long_q.data[0, :3], short_q.data[0])

    def test_gradients_flow_to_every_reader_parameter(self):
        rng = np.random.default_rng(26)
        cfg, params = tiny_setup(rng, qe=False)
        doc, qry = random_embeddings(rng, 1, 5, 3, 5)
        tape = Tape()
        doc_enc, qry_enc, _ = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, np.ones((1, 5)), np.ones((1, 3))
        )
        loss = tape.add(sum_all(tape.mul(doc_enc, doc_enc)), sum_all(tape.mul(qry_enc, qry_enc)))
        grads = backward(tape, loss)
        for p in params.parameters():
            if p.id.endswith("bias"):
                continue
            assert np.abs(grads[p.id]).max() > 0.0, p.id
