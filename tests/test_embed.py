"""Embedding tests: vector file parsing, table freezing, and the
character composition against an unrolled single-step chain."""

import numpy as np
import pytest

from dgreader.autodiff import Tape, backward
from dgreader.corpus import PAD_ID, ClozeSample, DatasetSplit, build_vocab
from dgreader.embed import (
    EmbedConfig,
    TokenEmbedder,
    char_id_matrix,
    load_pretrained_vectors,
    random_word_table,
)
from dgreader.errors import ConfigError, ContractViolation, DimensionError, ParseError
from oracles import char_embed_token, embed_tokens, gru_cell, sum_all


@pytest.fixture
def vocab():
    samples = [
        ClozeSample(
            ["abc", "de", "fgh", "abc"], ["de", "@placeholder"], ["abc", "de"], "abc", 1
        ).validate(),
    ]
    return build_vocab(DatasetSplit("train", samples))


@pytest.fixture
def cfg():
    return EmbedConfig(word_dim=6, char_dim=3, char_hidden=4, char_out=5)


class TestEmbedConfig:
    def test_defaults_validate(self):
        assert EmbedConfig().validate() == EmbedConfig()

    @pytest.mark.parametrize("field", ["word_dim", "char_dim", "char_hidden", "char_out"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_widths_below_one_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field) as info:
            EmbedConfig(**{field: value}).validate()
        assert info.value.field == field


class TestPretrainedVectors:
    def write(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        return path

    def test_known_rows_loaded_and_coverage(self, tmp_path, vocab):
        path = self.write(tmp_path, "abc 1 2 3\nzzz 7 8 9\n")
        rng = np.random.default_rng(0)
        table, coverage = load_pretrained_vectors(path, vocab, 3, rng)
        np.testing.assert_array_equal(table.data[vocab.word_id("abc")], [1.0, 2.0, 3.0])
        # covered: abc out of {abc, de, fgh}
        assert coverage == pytest.approx(1 / 3)
        assert not table.trainable

    def test_padding_row_is_zero(self, tmp_path, vocab):
        path = self.write(tmp_path, "abc 1 2 3\n")
        table, _ = load_pretrained_vectors(path, vocab, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(table.data[PAD_ID], 0.0)

    def test_wrong_width_names_line(self, tmp_path, vocab):
        path = self.write(tmp_path, "abc 1 2 3\nde 4 5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_pretrained_vectors(path, vocab, 3, np.random.default_rng(0))

    def test_duplicate_token_last_wins_with_warning(self, tmp_path, vocab):
        path = self.write(tmp_path, "abc 1 2 3\nabc 9 9 9\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table, _ = load_pretrained_vectors(path, vocab, 3, np.random.default_rng(0))
        np.testing.assert_array_equal(table.data[vocab.word_id("abc")], [9.0, 9.0, 9.0])

    def test_missing_rows_are_seeded_random(self, tmp_path, vocab):
        path = self.write(tmp_path, "abc 1 2 3\n")
        t1, _ = load_pretrained_vectors(path, vocab, 3, np.random.default_rng(5))
        t2, _ = load_pretrained_vectors(path, vocab, 3, np.random.default_rng(5))
        np.testing.assert_array_equal(t1.data, t2.data)
        assert np.abs(t1.data[vocab.word_id("de")]).max() > 0.0


class TestCharEmbedder:
    def test_matches_unrolled_cell_chain(self, vocab, cfg):
        rng = np.random.default_rng(1)
        emb = TokenEmbedder(rng, vocab, cfg)
        token = "fgh"
        tape = Tape()
        got = char_embed_token(emb, tape, token)

        chain = Tape()
        ids = vocab.char_ids(token)
        table = chain.watch(emb.char.table)
        h = chain.constant(np.zeros((1, cfg.char_hidden)))
        for i in ids:
            h = gru_cell(chain.select(table, np.array([i])), h, emb.char.gru, 0)
        fwd_final = h
        h = chain.constant(np.zeros((1, cfg.char_hidden)))
        for i in reversed(ids):
            h = gru_cell(chain.select(table, np.array([i])), h, emb.char.gru, 1)
        both = chain.concat_last([fwd_final, h])
        expected = chain.add(
            chain.matmul(both, chain.watch(emb.char.proj_w)), chain.watch(emb.char.proj_b)
        )
        np.testing.assert_allclose(got.data, expected.data[0], atol=1e-12)

    def test_empty_token_rejected(self, vocab, cfg):
        emb = TokenEmbedder(np.random.default_rng(1), vocab, cfg)
        with pytest.raises(ContractViolation):
            char_embed_token(emb, Tape(), "")

    def test_char_parameters_receive_gradient(self, vocab, cfg):
        emb = TokenEmbedder(np.random.default_rng(2), vocab, cfg)
        tape = Tape()
        vec = char_embed_token(emb, tape, "abc")
        grads = backward(tape, sum_all(tape.mul(vec, vec)))
        assert np.abs(grads["embed.char.table"]).max() > 0.0
        assert np.abs(grads["embed.char.proj_w"]).max() > 0.0


class TestTokenEmbedder:
    def test_embed_tokens_shape_and_padding_rows(self, vocab, cfg):
        emb = TokenEmbedder(np.random.default_rng(3), vocab, cfg)
        tokens = ["abc", "de", "<pad>", "<pad>"]
        ids = [vocab.word_id("abc"), vocab.word_id("de"), PAD_ID, PAD_ID]
        tape = Tape()
        out = embed_tokens(emb, tape, ids, tokens)
        assert out.data.shape == (4, cfg.token_dim)
        np.testing.assert_array_equal(out.data[2:], 0.0)
        assert np.abs(out.data[:2]).max() > 0.0

    def test_word_half_comes_from_frozen_table(self, vocab, cfg):
        rng = np.random.default_rng(4)
        table = random_word_table(vocab, cfg.word_dim, rng)
        emb = TokenEmbedder(rng, vocab, cfg, word_table=table)
        tape = Tape()
        out = embed_tokens(emb, tape, [vocab.word_id("abc")], ["abc"])
        np.testing.assert_array_equal(out.data[0, : cfg.word_dim], table.data[vocab.word_id("abc")])

    def test_word_table_never_gets_gradient(self, vocab, cfg):
        emb = TokenEmbedder(np.random.default_rng(5), vocab, cfg)
        tape = Tape()
        out = embed_tokens(emb, tape, [vocab.word_id("abc"), vocab.word_id("de")], ["abc", "de"])
        grads = backward(tape, sum_all(tape.mul(out, out)))
        np.testing.assert_array_equal(grads["embed.word"], 0.0)

    def test_trainable_table_rejected(self, vocab, cfg):
        from dgreader.autodiff import Parameter

        bad = Parameter("embed.word", np.zeros((vocab.word_size, cfg.word_dim)), trainable=True)
        with pytest.raises(ContractViolation, match="frozen"):
            TokenEmbedder(np.random.default_rng(0), vocab, cfg, word_table=bad)

    def test_length_mismatch_rejected(self, vocab, cfg):
        emb = TokenEmbedder(np.random.default_rng(6), vocab, cfg)
        with pytest.raises(DimensionError):
            embed_tokens(emb, Tape(), [1, 2, 3], ["abc"])


class TestCharIdMatrix:
    def test_pads_to_width_with_mask(self, vocab):
        ids, mask = char_id_matrix(vocab, ["abc", "d", ""])
        assert ids.shape == (3, 3)
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert (ids[2] == 0).all()

    def test_unknown_characters_map_to_unk(self, vocab):
        ids, _ = char_id_matrix(vocab, ["Q"])
        assert ids[0, 0] == 1
