"""The trainable reader: embeddings + encoding pass + ranking, batched.

A Batch packs padded id tensors and masks for a group of samples, plus
one table of the distinct surface forms across all its documents and
queries, so that the character embedder runs once per type, not once
per position. The forward pass builds one tape covering embedding, the
full encoding pass, the token distribution and the candidate
distribution, plus the mean negative log likelihood when every sample
in the batch is labeled. Padding never leaks: masked scans freeze
states across padded steps and both softmaxes mask padded positions to
exact zeros, so a sample's encodings and distributions are identical
however much padding its batch forces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tape, Tensor
from .corpus import ClozeSample, Vocabulary
from .embed import EmbedConfig, TokenEmbedder, char_id_matrix
from .errors import ContractViolation, NumericalError
from .ranker import PredictionDistribution, find_occurrences, predict
from .reader import ReaderConfig, ReaderParams, encode_full, qe_comm_features


@dataclass
class Batch:
    doc_ids: np.ndarray  # (B, n) int64
    doc_mask: np.ndarray  # (B, n) 0/1
    doc_types: np.ndarray  # (B, n) int64 row of each position's type in char_ids
    qry_ids: np.ndarray  # (B, m)
    qry_mask: np.ndarray
    qry_types: np.ndarray  # (B, m)
    char_ids: np.ndarray  # (U, Lc) characters of the batch's U distinct types
    char_mask: np.ndarray  # (U, Lc) 0/1
    ph_idx: np.ndarray  # (B,) placeholder position per sample
    occurrence: np.ndarray  # (B, g_max, n) 0/1 candidate occurrence rows
    answer_idx: np.ndarray  # (B,) row into the candidate list, -1 if unlabeled
    qe: np.ndarray  # (B, n) query-occurrence feature
    samples: list[ClozeSample]


def assemble_batch(samples: list[ClozeSample], vocab: Vocabulary) -> Batch:
    """Pad a group of samples into one Batch.

    Type rows are numbered in order of first appearance (each sample's
    document, then its query), so a batch's layout depends only on its
    samples. Padding positions point at row 0; the embedder zeroes them
    with the token mask.
    """
    if not samples:
        raise ContractViolation("cannot assemble an empty batch")
    n = max(len(s.document) for s in samples)
    m = max(len(s.query) for s in samples)
    g = max(len(s.candidates) for s in samples)
    batch = len(samples)

    doc_ids = np.zeros((batch, n), dtype=np.int64)
    doc_mask = np.zeros((batch, n))
    qry_ids = np.zeros((batch, m), dtype=np.int64)
    qry_mask = np.zeros((batch, m))
    doc_types = np.zeros((batch, n), dtype=np.int64)
    qry_types = np.zeros((batch, m), dtype=np.int64)
    types: dict[str, int] = {}
    ph_idx = np.zeros(batch, dtype=np.int64)
    occurrence = np.zeros((batch, g, n))
    answer_idx = np.full(batch, -1, dtype=np.int64)
    qe = np.zeros((batch, n))

    for b, s in enumerate(samples):
        dn, qm = len(s.document), len(s.query)
        doc_ids[b, :dn] = [vocab.word_id(t) for t in s.document]
        doc_mask[b, :dn] = 1.0
        qry_ids[b, :qm] = [vocab.word_id(t) for t in s.query]
        qry_mask[b, :qm] = 1.0
        doc_types[b, :dn] = [types.setdefault(t, len(types)) for t in s.document]
        qry_types[b, :qm] = [types.setdefault(t, len(types)) for t in s.query]
        ph_idx[b] = s.placeholder_index
        occ = find_occurrences(s.document, s.candidates)
        occurrence[b, : len(s.candidates), :dn] = occ.matrix(dn, s.candidates)
        if s.answer is not None:
            answer_idx[b] = s.candidates.index(s.answer)
        qe[b, :dn] = qe_comm_features(s.document, s.query)
    char_ids, char_mask = char_id_matrix(vocab, list(types))
    return Batch(
        doc_ids, doc_mask, doc_types, qry_ids, qry_mask, qry_types, char_ids, char_mask,
        ph_idx, occurrence, answer_idx, qe, list(samples),
    )


@dataclass
class ForwardResult:
    """One forward's outputs. cand_probs is the pointer sum that ranks
    candidates: row b holds sample b's candidate distribution in the
    order of its candidate list, zero-padded to g_max; predict_batch
    reads it as is. energies holds each hop's document-by-query energy
    matrix (B, n, m) as a plain array, for attention analysis. The
    result holds its tape, and tensors refer to their tape only weakly,
    so the graph and every activation saved for backward live exactly
    as long as the result (or the tape) is held."""

    tape: Tape
    loss: Tensor | None
    token_probs: Tensor  # (B, n)
    cand_probs: Tensor  # (B, g_max)
    doc_enc: Tensor  # (B, n, hidden)
    qry_enc: Tensor  # (B, m, hidden)
    energies: list[np.ndarray]  # per hop, (B, n, m)


class Model:
    def __init__(
        self,
        vocab: Vocabulary,
        embed_cfg: EmbedConfig,
        reader_cfg: ReaderConfig,
        rng: np.random.Generator,
        word_table: Parameter | None = None,
    ):
        reader_cfg.validate()
        self.vocab = vocab
        self.embed_cfg = embed_cfg
        self.reader_cfg = reader_cfg
        self.embedder = TokenEmbedder(rng, vocab, embed_cfg, word_table)
        self.reader_params = ReaderParams.create(rng, reader_cfg, embed_cfg.token_dim)

    def parameters(self) -> list[Parameter]:
        out = self.embedder.parameters() + self.reader_params.parameters()
        ids = [p.id for p in out]
        if len(set(ids)) != len(ids):
            raise ContractViolation("parameter ids are not unique")
        return out

    def forward_batch(
        self,
        batch: Batch,
        train: bool = False,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> ForwardResult:
        tape = Tape()
        drop = (dropout, rng, train)
        doc, qry = self.embedder.embed_batch(tape, batch)
        doc = tape.dropout(doc, dropout, rng, train)
        qry = tape.dropout(qry, dropout, rng, train)

        qe = batch.qe if self.reader_cfg.qe_comm else None
        doc_enc, qry_enc, energies = encode_full(
            doc, qry, self.reader_cfg, self.reader_params,
            batch.doc_mask, batch.qry_mask, qe, drop,
        )

        size, n = batch.doc_ids.shape
        hidden = self.reader_cfg.hidden
        at_ph = tape.take_time(qry_enc, batch.ph_idx)  # (B, r)
        scores = tape.reshape(
            tape.matmul(doc_enc, tape.reshape(at_ph, (size, hidden, 1))), (size, n)
        )
        token_probs = tape.masked_softmax(scores, batch.doc_mask)
        raw = tape.reshape(
            tape.matmul(
                tape.constant(batch.occurrence), tape.reshape(token_probs, (size, n, 1))
            ),
            (size, batch.occurrence.shape[1]),
        )
        cand_probs = tape.div(raw, tape.sum_last(raw))

        loss = None
        if (batch.answer_idx >= 0).all():
            onehot = np.zeros(batch.occurrence.shape[:2])
            onehot[np.arange(size), batch.answer_idx] = 1.0
            picked = tape.sum_last(tape.mul(cand_probs, tape.constant(onehot)), keepdims=False)
            loss = tape.neg(tape.mean_all(tape.log(picked)))
        return ForwardResult(tape, loss, token_probs, cand_probs, doc_enc, qry_enc, energies)

    def predict_batch(self, result: ForwardResult, batch: Batch) -> list[PredictionDistribution]:
        """Per-sample distributions read from the forward's cand_probs,
        trimmed to each sample's candidates in the order of
        sample.candidates. A row that is not finite or has no mass
        (every candidate position underflowed) raises NumericalError
        naming its sample."""
        out = []
        for b, sample in enumerate(batch.samples):
            row = result.cand_probs.data[b, : len(sample.candidates)]
            if not (np.isfinite(row).all() and row.sum() > 0.0):
                raise NumericalError(
                    f"batch sample {b} (candidates {sample.candidates}): candidate "
                    f"probabilities {row.tolist()} are not finite or have zero mass"
                )
            probs = dict(zip(sample.candidates, row.tolist()))
            out.append(PredictionDistribution(probs, predict(probs)))
        return out

    def encode_sample(
        self, sample: ClozeSample
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Final encodings (n, r) / (m, r) and the per-hop energy
        matrices (1, n, m) for one sample, unpadded."""
        batch = assemble_batch([sample], self.vocab)
        result = self.forward_batch(batch)
        return (
            np.array(result.doc_enc.data[0]),
            np.array(result.qry_enc.data[0]),
            result.energies,
        )
