"""The trainable reader: embeddings + encoding pass + ranking, batched.

A Batch holds one table of the distinct surface forms across all the
documents and queries of a group of samples (each type's word id and
characters), plus each position's row in that table and padding masks,
so that a token is embedded once per type, not once per position.
The forward pass builds one tape covering embedding, the full encoding
pass, the token distribution and the candidate distribution, plus the
mean negative log likelihood when every sample in the batch is
labeled. Padding never leaks: masked scans freeze states across padded
steps and both softmaxes mask padded positions to exact zeros, so a
sample's encodings and distributions are identical however much
padding its batch forces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tape, Tensor
from .corpus import PLACEHOLDER, ClozeSample, Vocabulary
from .embed import EmbedConfig, TokenEmbedder, char_id_matrix
from .errors import ContractViolation, NumericalError
from .ranker import PredictionDistribution, predict
from .reader import ReaderConfig, ReaderParams, encode_full


@dataclass
class Batch:
    doc_mask: np.ndarray  # (B, n) 0/1
    doc_types: np.ndarray  # (B, n) int64 type row of each position, 0 on padding
    qry_mask: np.ndarray  # (B, m)
    qry_types: np.ndarray  # (B, m)
    word_ids: np.ndarray  # (U,) int64 word id of each of the batch's U distinct types
    char_ids: np.ndarray  # (U, Lc) characters of each type
    char_mask: np.ndarray  # (U, Lc) 0/1
    ph_idx: np.ndarray  # (B,) placeholder position per sample
    occurrence: np.ndarray  # (B, g_max, n) 0/1 per candidate, zero rows past a sample's own
    answer_idx: np.ndarray  # (B,) row into the candidate list, -1 if unlabeled
    qe: np.ndarray  # (B, n) 0/1: the token occurs in the query, the placeholder never
    samples: list[ClozeSample]


def assemble_batch(samples: list[ClozeSample], vocab: Vocabulary) -> Batch:
    """Pad a group of samples into one Batch.

    Type rows are numbered in order of first appearance (each sample's
    document, then its query), so a batch's layout depends only on its
    samples. That numbering is the only pass over the tokens; every
    other field is read off the type rows with array operations. Padding
    positions point at row 0; the embedder zeroes them with the token
    mask. Occurrence row g of sample b marks the document positions of
    its g-th candidate, and rows past its candidates stay zero. The qe
    feature marks the document tokens that occur in the sample's own
    query; the placeholder never counts. A candidate that does not occur
    in its own document raises ContractViolation naming the sample and
    the candidate.
    """
    if not samples:
        raise ContractViolation("cannot assemble an empty batch")
    batch = len(samples)
    lengths = np.array([(len(s.document), len(s.query), len(s.candidates)) for s in samples])
    doc_real, qry_real, cand_real = (
        np.arange(top) < lengths[:, [i]] for i, top in enumerate(lengths.max(axis=0))
    )
    types: dict[str, int] = {}
    doc_rows: list[int] = []
    qry_rows: list[int] = []
    for s in samples:
        doc_rows.extend([types.setdefault(t, len(types)) for t in s.document])
        qry_rows.extend([types.setdefault(t, len(types)) for t in s.query])
    doc_types = np.zeros(doc_real.shape, dtype=np.int64)
    doc_types[doc_real] = doc_rows
    qry_types = np.zeros(qry_real.shape, dtype=np.int64)
    qry_types[qry_real] = qry_rows
    word_ids = np.array([vocab.word_id(t) for t in types], dtype=np.int64)

    # -1 matches no type row, so padded candidate rows stay zero.
    cand_types = np.full(cand_real.shape, -1, dtype=np.int64)
    cand_types[cand_real] = [types.get(c, -1) for s in samples for c in s.candidates]
    hits = (cand_types[:, :, None] == doc_types[:, None, :]) & doc_real[:, None, :]
    missing = np.argwhere(cand_real & ~hits.any(axis=2))
    if len(missing):
        b, g = missing[0]
        raise ContractViolation(
            f"batch sample {b}: candidate {samples[b].candidates[g]!r} does not occur in "
            f"its document"
        )
    in_query = np.zeros((batch, len(types)), dtype=bool)
    in_query[np.nonzero(qry_real)[0], qry_rows] = True
    in_query[:, types.get(PLACEHOLDER, [])] = False  # the placeholder never counts
    qe = in_query[np.arange(batch)[:, None], doc_types] & doc_real

    answers = [-1 if s.answer is None else s.candidates.index(s.answer) for s in samples]
    char_ids, char_mask = char_id_matrix(vocab, list(types))
    return Batch(
        doc_real.astype(np.float64), doc_types, qry_real.astype(np.float64), qry_types, word_ids,
        char_ids, char_mask, np.array([s.placeholder_index for s in samples], dtype=np.int64),
        hits.astype(np.float64), np.array(answers, dtype=np.int64), qe.astype(np.float64),
        list(samples),
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
        embed_cfg.validate()
        reader_cfg.validate()
        self.vocab = vocab
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
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> ForwardResult:
        """One forward over the batch. Dropout at the given rate runs
        exactly when a generator is passed (training); without one the
        forward is deterministic (evaluation and prediction)."""
        tape = Tape()
        doc, qry = self.embedder.embed_batch(tape, batch)
        doc = tape.dropout(doc, dropout, rng)
        qry = tape.dropout(qry, dropout, rng)
        doc_enc, qry_enc, energies = encode_full(
            doc, qry, self.reader_cfg, self.reader_params,
            batch.doc_mask, batch.qry_mask, batch.qe, (dropout, rng),
        )

        size, n = batch.doc_mask.shape
        hidden = self.reader_cfg.hidden
        rows = np.arange(size)
        at_ph = tape.select(qry_enc, (rows, batch.ph_idx))  # (B, r)
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
            picked = tape.select(cand_probs, (rows, batch.answer_idx))
            loss = tape.neg(tape.mean_all(tape.log(picked)))
        return ForwardResult(tape, loss, token_probs, cand_probs, doc_enc, qry_enc, energies)

    def predict_batch(self, result: ForwardResult, batch: Batch) -> list[PredictionDistribution]:
        """Per-sample distributions read from the forward's cand_probs,
        trimmed to each sample's candidates in the order of
        sample.candidates. A row that is not finite or has no mass
        (every candidate position underflowed) raises NumericalError
        naming its sample; padding past a sample's candidates is not
        read."""
        probs = result.cand_probs.data
        counts = [len(s.candidates) for s in batch.samples]
        own = np.arange(probs.shape[1]) < np.array(counts)[:, None]
        ok = np.where(own, np.isfinite(probs), True).all(axis=1)
        ok &= np.where(own, probs, 0.0).sum(axis=1) > 0.0
        if not ok.all():
            b = int(np.argmin(ok))
            raise NumericalError(
                f"batch sample {b} (candidates {batch.samples[b].candidates}): candidate "
                f"probabilities {probs[b, : counts[b]].tolist()} are not finite or have zero mass"
            )
        rows = [dict(zip(s.candidates, row)) for s, row in zip(batch.samples, probs.tolist())]
        return [PredictionDistribution(row, predict(row)) for row in rows]
