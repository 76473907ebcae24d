"""Token embeddings: a frozen word-vector table plus a trainable
character-level composition.

The word table is never updated during training; rows for tokens
missing from the vector file (and the unknown row) are seeded random,
and the padding row is zero. The character side runs a bidirectional
GRU over the token's characters, concatenates the two final
states and applies a linear map; those parameters do train.

A token's embedding depends only on its surface form, so a batch
builds it once per distinct type (as in C2W, Ling et al. 2015): one
table of word rows beside one character scan's compositions, then each
position takes its type's row.

Pretrained vector text format: one token per line followed by its
space-separated float components.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import BiGRUParams, Parameter, Tape, Tensor, bigru, final_states, glorot
from .corpus import PAD_ID, Vocabulary
from .errors import ConfigError, ContractViolation, DimensionError, ParseError

INIT_RANGE = 0.05


@dataclass
class EmbedConfig:
    word_dim: int = 100
    char_dim: int = 16
    char_hidden: int = 25
    char_out: int = 50

    def validate(self) -> "EmbedConfig":
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)}", f.name)
        return self

    @property
    def token_dim(self) -> int:
        return self.word_dim + self.char_out


def random_word_table(vocab: Vocabulary, dim: int, rng: np.random.Generator) -> Parameter:
    """A frozen word table with all non-padding rows seeded random; used
    when no pretrained vectors are supplied."""
    data = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(vocab.word_size, dim))
    data[PAD_ID] = 0.0
    return Parameter("embed.word", data, trainable=False)


def load_pretrained_vectors(
    path, vocab: Vocabulary, dim: int, rng: np.random.Generator
) -> tuple[Parameter, float]:
    """Build the frozen word table from a vector file.

    Returns the table and the coverage fraction over non-reserved
    vocabulary entries. A row of the wrong width is an error naming the
    line; a repeated token keeps the last occurrence with a warning.
    """
    vectors: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                raise ParseError(f"{path} line {number}: no vector components")
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path} line {number}: expected {dim} components, got {len(values)}"
                )
            try:
                row = np.array([float(v) for v in values])
            except ValueError as exc:
                raise ParseError(f"{path} line {number}: {exc}") from exc
            if token in vectors:
                warnings.warn(f"{path} line {number}: duplicate vector for {token!r}, last wins")
            vectors[token] = row

    table = random_word_table(vocab, dim, rng)
    covered = 0
    for idx, word in enumerate(vocab.id_to_word[3:], 3):
        if word in vectors:
            table.data[idx] = vectors[word]
            covered += 1
    return table, covered / max(vocab.word_size - 3, 1)


class CharEmbedder:
    """Composes a token vector from its characters with a bidirectional
    GRU and a linear projection."""

    def __init__(self, rng: np.random.Generator, char_vocab_size: int, cfg: EmbedConfig):
        self.cfg = cfg
        table = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(char_vocab_size, cfg.char_dim))
        table[PAD_ID] = 0.0
        self.table = Parameter("embed.char.table", table)
        self.gru = BiGRUParams.create(rng, "embed.char", cfg.char_dim, cfg.char_hidden)
        self.proj_w = Parameter("embed.char.proj_w", glorot(rng, 2 * cfg.char_hidden, cfg.char_out))
        self.proj_b = Parameter("embed.char.proj_b", np.zeros(cfg.char_out))

    def parameters(self) -> list[Parameter]:
        return [self.table, *self.gru.parameters(), self.proj_w, self.proj_b]

    def embed_ids(self, tape: Tape, char_ids: np.ndarray, char_mask: np.ndarray) -> Tensor:
        """(N, L) character ids with a 0/1 length mask -> (N, char_out).

        Each row is one token's characters; a batch passes its table of
        distinct types. Both GRU directions run as one stacked bigru
        scan (a single tape node); the projection reads the forward
        state after the last character and the backward state after the
        first. A row whose mask is entirely zero comes out as the
        projection of the zero states.
        """
        char_ids = np.asarray(char_ids, dtype=np.int64)
        if char_ids.ndim != 2:
            raise DimensionError(f"char id matrix must be (N, L), got {char_ids.shape}")
        table = tape.watch(self.table)
        emb = tape.select(table, char_ids)  # (N, L, char_dim)
        both = tape.concat_last(final_states(bigru(emb, None, None, self.gru, char_mask)))
        return tape.add(tape.matmul(both, tape.watch(self.proj_w)), tape.watch(self.proj_b))


def char_id_matrix(vocab: Vocabulary, tokens: list[str]):
    """Pack per-token character ids into a padded (N, width) matrix plus
    its 0/1 mask, width being the longest token's length (at least 1).
    Padding tokens are passed as empty strings."""
    width = max([1] + [len(t) for t in tokens])
    ids = np.zeros((len(tokens), width), dtype=np.int64)
    mask = np.zeros((len(tokens), width))
    for i, tok in enumerate(tokens):
        cs = vocab.char_ids(tok)
        ids[i, : len(cs)] = cs
        mask[i, : len(cs)] = 1.0
    return ids, mask


class TokenEmbedder:
    """Word table plus character embedder behind one interface."""

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: Vocabulary,
        cfg: EmbedConfig,
        word_table: Parameter | None = None,
    ):
        self.vocab = vocab
        self.cfg = cfg
        self.word_table = word_table if word_table is not None else random_word_table(
            vocab, cfg.word_dim, rng
        )
        if self.word_table.data.shape != (vocab.word_size, cfg.word_dim):
            raise DimensionError(
                f"word table shape {self.word_table.data.shape} does not match "
                f"vocab {vocab.word_size} x dim {cfg.word_dim}"
            )
        if self.word_table.trainable:
            raise ContractViolation("the word table must be frozen")
        self.char = CharEmbedder(rng, vocab.char_size, cfg)

    def parameters(self) -> list[Parameter]:
        return [self.word_table, *self.char.parameters()]

    def embed_batch(self, tape: Tape, batch) -> tuple[Tensor, Tensor]:
        """Document and query embeddings, (B, n|m, token_dim), of a
        model.Batch.

        One (U, token_dim) type table holds each distinct type's word
        row beside its character composition, from one run of the
        character embedder over the batch's types. Each side is one
        select of its type rows times its mask, so padding positions
        (mask 0) are zero in both halves.
        """
        chars = self.char.embed_ids(tape, batch.char_ids, batch.char_mask)
        words = tape.select(tape.watch(self.word_table), batch.word_ids)
        table = tape.concat_last([words, chars])
        sides = ((batch.doc_types, batch.doc_mask), (batch.qry_types, batch.qry_mask))
        return tuple(
            tape.mul(tape.select(table, types), tape.constant(mask[:, :, None]))
            for types, mask in sides
        )
