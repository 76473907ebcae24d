"""End-to-end model tests: batch assembly against its per-sample
reference, and its type table; the batched candidate distribution
against the scalar ranker oracle, the type table against per-position
character composition, the loss formula, gradient integrity on a small
configuration, and invariance to batch composition."""

import dataclasses
import math

import numpy as np
import pytest

from dgreader.autodiff import Tape, backward
from dgreader.corpus import (
    PLACEHOLDER, UNK_ID, ClozeSample, DatasetSplit, SynthConfig, build_vocab, generate_synthetic,
)
from dgreader.embed import EmbedConfig, char_id_matrix
from dgreader.errors import ContractViolation, NumericalError
from dgreader.gradcheck import check_gradients
from dgreader.model import Batch, Model, assemble_batch
from dgreader.reader import ABLATION_PRESETS, ReaderConfig
from oracles import assemble_per_sample, embed_sides, encode_sample, rank, token_distribution


@pytest.fixture(scope="module")
def small_world():
    samples = generate_synthetic(SynthConfig(samples=10, vocab_size=24, doc_len=(8, 12),
                                             qry_len=(4, 6), candidates=3, seed=13))
    split = DatasetSplit("train", samples)
    vocab = build_vocab([split])
    return split, vocab


@pytest.fixture(scope="module")
def repeated_world(small_world):
    """small_world's samples with every candidate written over a further
    non-candidate position, so each candidate's mass sums two or more
    positions; every other sample keeps two of its three candidates, so
    the batch pads the candidate axis as well as the documents."""
    split, vocab = small_world
    samples = []
    for i, s in enumerate(split.samples):
        doc = list(s.document)
        free = [t for t, tok in enumerate(doc) if tok not in s.candidates]
        for cand, t in zip(s.candidates, free):
            doc[t] = cand
        cands = list(s.candidates)
        if i % 2:
            cands.remove(next(c for c in cands if c != s.answer))
        samples.append(dataclasses.replace(s, document=doc, candidates=cands).validate())
    return samples, vocab


def small_model(vocab, seed=0, **reader_kw):
    reader_kw.setdefault("hops", 2)
    reader_kw.setdefault("hidden", 6)
    return Model(
        vocab,
        EmbedConfig(word_dim=5, char_dim=3, char_hidden=4, char_out=4),
        ReaderConfig(**reader_kw).validate(),
        np.random.default_rng(seed),
    )


class TestBatchAssembly:
    def test_shapes_and_padding(self, small_world):
        split, vocab = small_world
        batch = assemble_batch(split.samples[:4], vocab)
        n = max(len(s.document) for s in split.samples[:4])
        m = max(len(s.query) for s in split.samples[:4])
        assert batch.word_ids[batch.doc_types].shape == (4, n)
        assert batch.word_ids[batch.qry_types].shape == (4, m)
        assert batch.doc_mask.shape == (4, n)
        assert batch.occurrence.shape[0] == 4 and batch.occurrence.shape[2] == n
        for b, s in enumerate(split.samples[:4]):
            assert batch.doc_mask[b].sum() == len(s.document)
            assert batch.qry_mask[b].sum() == len(s.query)
            assert (batch.doc_types[b, len(s.document):] == 0).all()
            assert batch.ph_idx[b] == s.placeholder_index

    def test_occurrence_rows_follow_candidate_order(self, small_world):
        split, vocab = small_world
        s = split.samples[0]
        batch = assemble_batch([s], vocab)
        for g, cand in enumerate(s.candidates):
            positions = [t for t, tok in enumerate(s.document) if tok == cand]
            np.testing.assert_array_equal(np.flatnonzero(batch.occurrence[0, g]), positions)

    def test_qe_marks_query_overlap(self, small_world):
        split, vocab = small_world
        s = split.samples[1]
        batch = assemble_batch([s], vocab)
        qset = set(s.query) - {"@placeholder"}
        for t, tok in enumerate(s.document):
            assert batch.qe[0, t] == float(tok in qset)

    def test_empty_batch_rejected(self, small_world):
        _, vocab = small_world
        with pytest.raises(ContractViolation):
            assemble_batch([], vocab)

    def test_unlabeled_samples_get_sentinel(self, small_world):
        split, vocab = small_world
        import dataclasses
        s = dataclasses.replace(split.samples[0], answer=None)
        batch = assemble_batch([s], vocab)
        assert batch.answer_idx[0] == -1


def varied_corpus(seed):
    """Seeded samples with varying document, query and candidate-list
    lengths, candidates repeated in their document and written into
    their query, out-of-vocabulary words and characters, the placeholder
    in the document, and unlabeled samples."""
    rng = np.random.default_rng(seed)
    drawn = generate_synthetic(SynthConfig(samples=int(rng.integers(3, 9)), vocab_size=30,
                                           doc_len=(10, 20), qry_len=(3, 8), candidates=4,
                                           seed=900 + seed))
    vocab = build_vocab([DatasetSplit("train", drawn)])
    samples = []
    for i, s in enumerate(drawn):
        doc, qry = list(s.document), list(s.query)
        others = [c for c in s.candidates if c != s.answer]
        cands = [s.answer] + others[: int(rng.integers(0, len(others) + 1))]
        free = [t for t, tok in enumerate(doc) if tok not in s.candidates]
        doc[free[0]] = cands[-1]
        doc[free[1]] = f"oov{i}"
        doc[free[-1]] = PLACEHOLDER  # never a qe match, though every query holds it
        qry[0 if s.placeholder_index else -1] = cands[0]
        qry.insert(s.placeholder_index + 1, "ünseen")
        answer = None if i % 3 == 1 else s.answer
        samples.append(ClozeSample(doc, qry, cands, answer, s.placeholder_index).validate())
    return samples, vocab


class TestAssemblyOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_field_matches_per_sample_reference(self, seed):
        samples, vocab = varied_corpus(seed)
        assert len({len(s.document) for s in samples}) > 1
        assert len({len(s.query) for s in samples}) > 1
        assert len({len(s.candidates) for s in samples}) > 1
        assert any(s.answer is None for s in samples)
        for group in (samples, samples[:1], samples[-1:], samples[1:3]):
            got, want = assemble_batch(group, vocab), assemble_per_sample(group, vocab)
            assert (got.word_ids[got.doc_types] == UNK_ID).any()
            assert (got.word_ids[got.qry_types] == UNK_ID).any()
            assert got.qe.any() and (got.occurrence.sum(axis=2) >= 2).any()
            assert got.samples == want.samples
            for field in dataclasses.fields(Batch):
                if field.name != "samples":
                    np.testing.assert_array_equal(
                        getattr(got, field.name), getattr(want, field.name),
                        err_msg=field.name, strict=True,
                    )

    def test_candidate_missing_from_its_own_document_is_named(self, small_world):
        split, vocab = small_world
        first, second = split.samples[:2]
        elsewhere = next(t for t in first.document if t not in second.document)
        for missing in (elsewhere, "nowhere"):
            # built without validate(), which would reject it
            bad = dataclasses.replace(second, candidates=second.candidates + [missing])
            with pytest.raises(ContractViolation,
                               match=rf"batch sample 1: candidate '{missing}' does not occur"):
                assemble_batch([first, bad], vocab)


class TestForward:
    def test_output_shapes_and_simplex(self, small_world):
        split, vocab = small_world
        model = small_model(vocab)
        batch = assemble_batch(split.samples[:3], vocab)
        out = model.forward_batch(batch)
        assert out.token_probs.data.shape == batch.doc_mask.shape
        np.testing.assert_allclose(out.token_probs.data.sum(-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(out.cand_probs.data.sum(-1), 1.0, atol=1e-9)
        assert (out.token_probs.data * (1.0 - batch.doc_mask) == 0.0).all()

    def test_loss_is_mean_negative_log_answer_probability(self, small_world):
        split, vocab = small_world
        model = small_model(vocab)
        batch = assemble_batch(split.samples[:4], vocab)
        out = model.forward_batch(batch)
        expect = -sum(
            math.log(out.cand_probs.data[b, batch.answer_idx[b]]) for b in range(4)
        ) / 4.0
        assert abs(out.loss.data.item() - expect) < 1e-12

    def test_batched_probs_match_sample_level_ranker(self, repeated_world):
        # predict_batch on one padded batch against the scalar oracle on
        # each sample's unpadded encodings, for every preset
        samples, vocab = repeated_world
        assert len({len(s.document) for s in samples}) > 1
        assert len({len(s.candidates) for s in samples}) > 1
        batch = assemble_batch(samples, vocab)
        for preset in sorted(ABLATION_PRESETS):
            model = small_model(vocab, **vars(ReaderConfig.from_preset(preset, hops=2, hidden=6)))
            out = model.forward_batch(batch)
            dists = model.predict_batch(out, batch)
            assert len(dists) == len(samples)
            for b, (s, dist) in enumerate(zip(samples, dists)):
                doc_enc, qry_enc, _ = encode_sample(model, s)
                y = token_distribution(doc_enc, qry_enc, s.placeholder_index)
                np.testing.assert_allclose(
                    out.token_probs.data[b, : len(s.document)], y, rtol=0.0, atol=1e-12
                )
                want = rank(doc_enc, qry_enc, s.placeholder_index, s.document, s.candidates)
                assert list(dist.candidate_probs) == s.candidates, preset
                assert dist.predicted == want.predicted, preset
                for cand in s.candidates:
                    assert abs(dist.candidate_probs[cand] - want.candidate_probs[cand]) <= 1e-12

    @pytest.mark.parametrize("bad", ["non-finite", "zero-mass"])
    def test_unrankable_candidate_row_names_its_sample(self, small_world, bad):
        split, vocab = small_world
        model = small_model(vocab)
        batch = assemble_batch(split.samples[:3], vocab)
        out = model.forward_batch(batch)
        if bad == "non-finite":
            out.cand_probs.data[1, 0] = np.nan
        else:
            out.cand_probs.data[1] = 0.0
        with pytest.raises(NumericalError, match="batch sample 1 "):
            model.predict_batch(out, batch)

    def test_row_check_reads_only_each_samples_own_candidates(self, repeated_world):
        # samples 1 and 3 have two candidates and a padded third column
        samples, vocab = repeated_world
        model = small_model(vocab)
        batch = assemble_batch(samples[:4], vocab)
        out = model.forward_batch(batch)
        out.cand_probs.data[1, 2] = np.nan
        out.cand_probs.data[3, 2] = np.inf
        assert len(model.predict_batch(out, batch)) == 4
        out.cand_probs.data[3, :2] = 0.0  # zero mass
        with pytest.raises(NumericalError, match=r"batch sample 3 \(candidates"):
            model.predict_batch(out, batch)
        out.cand_probs.data[2, 1] = np.nan  # the first bad row is named
        with pytest.raises(NumericalError, match=r"batch sample 2 \(candidates"):
            model.predict_batch(out, batch)

    def test_predict_batch_matches_batches_of_one(self, small_world):
        split, vocab = small_world
        model = small_model(vocab)
        samples = split.samples[:6]
        batch = assemble_batch(samples, vocab)
        batched = model.predict_batch(model.forward_batch(batch), batch)
        singles = []
        for s in samples:
            one = assemble_batch([s], vocab)
            singles.extend(model.predict_batch(model.forward_batch(one), one))
        assert [d.predicted for d in batched] == [d.predicted for d in singles]
        for a, b in zip(batched, singles):
            assert set(a.candidate_probs) == set(b.candidate_probs)
            for c in a.candidate_probs:
                assert abs(a.candidate_probs[c] - b.candidate_probs[c]) < 1e-9

    def test_batch_composition_does_not_change_predictions(self, small_world):
        # a sample alone and the same sample padded inside a batch of
        # longer ones must produce identical token distributions
        split, vocab = small_world
        model = small_model(vocab)
        samples = sorted(split.samples, key=lambda s: len(s.document))
        short, rest = samples[0], samples[-3:]
        alone = model.forward_batch(assemble_batch([short], vocab))
        mixed = model.forward_batch(assemble_batch([short] + rest, vocab))
        n = len(short.document)
        np.testing.assert_array_equal(
            mixed.token_probs.data[0, :n], alone.token_probs.data[0, :n]
        )
        np.testing.assert_array_equal(mixed.token_probs.data[0, n:], 0.0)
        np.testing.assert_allclose(
            mixed.cand_probs.data[0], alone.cand_probs.data[0], atol=0.0
        )

    def test_dropout_requires_rng_and_changes_output(self, small_world):
        split, vocab = small_world
        model = small_model(vocab)
        batch = assemble_batch(split.samples[:2], vocab)
        out1 = model.forward_batch(batch, dropout=0.5, rng=np.random.default_rng(3))
        out2 = model.forward_batch(batch)
        assert not np.allclose(out1.token_probs.data, out2.token_probs.data)
        # without a generator the rate is not applied
        out3 = model.forward_batch(batch, dropout=0.5)
        assert out3.token_probs.data.tobytes() == out2.token_probs.data.tobytes()

    def test_qe_disabled_config_runs(self, small_world):
        split, vocab = small_world
        model = small_model(vocab, qe_comm=False)
        out = model.forward_batch(assemble_batch(split.samples[:2], vocab))
        assert np.isfinite(out.loss.data).all()


class TestModelGradients:
    def test_parameter_ids_unique(self, small_world):
        _, vocab = small_world
        model = small_model(vocab)
        ids = [p.id for p in model.parameters()]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("preset", ["dgr", "ga-reader"])
    def test_finite_difference_check(self, small_world, preset):
        split, vocab = small_world
        model = small_model(vocab, **vars(ReaderConfig.from_preset(preset, hops=2, hidden=4)))
        batch = assemble_batch(split.samples[:2], vocab)

        def loss_fn():
            return model.forward_batch(batch).loss.data.item()

        out = model.forward_batch(batch)
        grads = backward(out.tape, out.loss)
        report = check_gradients(loss_fn, model.parameters(), grads)
        assert report.passed, report.summary()

    def test_frozen_word_table_not_in_trainables(self, small_world):
        _, vocab = small_world
        model = small_model(vocab)
        trainable = {p.id for p in model.parameters() if p.trainable}
        assert model.embedder.word_table.id not in trainable


@pytest.fixture(scope="module")
def repeat_world():
    # "de" and "abc" repeat within and across documents and queries; the
    # second document and the first query are padded.
    samples = [
        ClozeSample(["abc", "de", "fgh", "abc", "de"], ["fgh", "@placeholder"],
                    ["abc", "de"], "abc", 1).validate(),
        ClozeSample(["de", "ij", "abc"], ["@placeholder", "ij", "de"],
                    ["de", "abc"], "de", 0).validate(),
    ]
    vocab = build_vocab([DatasetSplit("train", samples)])
    return samples, vocab, assemble_batch(samples, vocab)


class TestTypeTable:
    def test_one_row_per_distinct_surface_form(self, repeat_world):
        samples, _, batch = repeat_world
        forms = {t for s in samples for t in s.document + s.query}
        assert batch.char_ids.shape[0] == len(forms) == 5
        assert batch.char_mask.shape == batch.char_ids.shape
        rows = {tuple(r) for r in batch.char_ids}
        assert len(rows) == len(forms)

    def test_rows_reproduce_each_tokens_characters(self, repeat_world):
        samples, vocab, batch = repeat_world
        for b, s in enumerate(samples):
            for types, tokens in ((batch.doc_types, s.document), (batch.qry_types, s.query)):
                ids, mask = char_id_matrix(vocab, tokens)
                rows, width = types[b, : len(tokens)], ids.shape[1]
                np.testing.assert_array_equal(batch.char_ids[rows, :width], ids)
                np.testing.assert_array_equal(batch.char_mask[rows, :width], mask)
                assert (batch.char_mask[rows, width:] == 0.0).all()

    def test_embeddings_match_per_position_oracle(self, repeat_world):
        _, vocab, batch = repeat_world
        model = small_model(vocab)
        tape = Tape()
        doc, qry = model.embedder.embed_batch(tape, batch)
        ref_doc, ref_qry = embed_sides(model.embedder, Tape(), batch)
        for got, ref, mask in ((doc, ref_doc, batch.doc_mask), (qry, ref_qry, batch.qry_mask)):
            np.testing.assert_allclose(got.data, ref.data, rtol=0.0, atol=1e-12)
            assert (got.data[mask == 0.0] == 0.0).all()
            assert np.abs(got.data[mask == 1.0]).max() > 0.0

    def test_char_gradients_match_finite_differences(self, repeat_world):
        _, vocab, batch = repeat_world
        # "de" is read by both sides, so its table row gathers gradient
        # from the document and the query
        shared = set(batch.doc_types[batch.doc_mask == 1.0]) & set(batch.qry_types[batch.qry_mask == 1.0])
        assert len(shared) >= 2
        model = small_model(vocab, hidden=4)

        def loss_fn():
            return model.forward_batch(batch).loss.data.item()

        out = model.forward_batch(batch)
        grads = backward(out.tape, out.loss)
        params = [p for p in model.parameters() if p.id.startswith("embed.char.")]
        assert len(params) == 6
        report = check_gradients(loss_fn, params, grads)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_forward_and_gradients_match_per_position_path(self, preset):
        # criterion 1's batch and model
        samples = generate_synthetic(SynthConfig(samples=2, vocab_size=16, doc_len=(7, 12),
                                                 qry_len=(4, 6), candidates=3, seed=11))
        vocab = build_vocab([DatasetSplit("train", samples)])
        batch = assemble_batch(samples, vocab)

        def run(oracle):
            model = Model(
                vocab,
                EmbedConfig(word_dim=3, char_dim=3, char_hidden=4, char_out=6),
                ReaderConfig.from_preset(preset, hops=2, hidden=8, qe_comm=True),
                np.random.default_rng(101),
            )
            if oracle:
                model.embedder.embed_batch = lambda tape, b: embed_sides(model.embedder, tape, b)
            out = model.forward_batch(batch)
            return out, backward(out.tape, out.loss)

        (got, got_grads), (ref, ref_grads) = run(False), run(True)
        assert abs(got.loss.data.item() - ref.loss.data.item()) <= 1e-12
        np.testing.assert_allclose(got.cand_probs.data, ref.cand_probs.data, rtol=0.0, atol=1e-12)
        assert got_grads.keys() == ref_grads.keys()
        for pid in got_grads:
            np.testing.assert_allclose(got_grads[pid], ref_grads[pid], rtol=0.0, atol=1e-12)
