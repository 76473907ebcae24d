"""Step-wise and per-position oracles for the engine, the embedder and
the ranker.

`sigmoid`, `tanh` and `sum_all` are tape primitives that only the
oracles and the engine tests use; they record nodes on their input's
tape like the package's own. `gru_cell` is one GRU step composed from
primitive tape ops; chains of it check the fused scans. The embedding
helpers compose characters once per token position, padding included.
They are the reference for the package's once-per-type composition, and
they check the character embedder against the cell chain. `token_distribution`,
`aggregate_candidates` and `rank` are the scalar pointer-sum ranking of
one unpadded sample: each candidate's mass is accumulated position by
position in ascending order. They are the reference for the batched
`cand_probs` that the model's forward computes as one matrix product.
`find_occurrences`, `occurrence_matrix`, `qe_comm_features` and
`assemble_per_sample` build a model.Batch one sample and one token at a
time; they are the reference for `assemble_batch`'s array operations
over the type table. `encode_sample` and `sample_occurrence` give one
sample's unpadded encodings and its occurrence rows.
"""

from dataclasses import dataclass

import numpy as np

from dgreader.autodiff import BiGRUParams, Tape, Tensor, _acc
from dgreader.corpus import PAD_ID, PLACEHOLDER, ClozeSample
from dgreader.embed import TokenEmbedder, char_id_matrix
from dgreader.errors import ContractViolation, DimensionError
from dgreader.model import Batch, Model, assemble_batch
from dgreader.ranker import PredictionDistribution, predict


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows; sigma(x) = 1/(1+e) for x >= 0 and
    # 1 - 1/(1+e) for x < 0
    e = np.exp(-np.abs(x))
    e += 1.0
    np.reciprocal(e, out=e)
    return np.where(x >= 0, e, 1.0 - e)


def sigmoid(a: Tensor) -> Tensor:
    y = _stable_sigmoid(a.data)

    def bwd(out):
        _acc(a, out.grad * y * (1.0 - y))

    return a.tape._node(y, (a,), bwd, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(out):
        _acc(a, out.grad * (1.0 - y * y))

    return a.tape._node(y, (a,), bwd, "tanh")


def sum_all(a: Tensor) -> Tensor:
    def bwd(out):
        _acc(a, np.broadcast_to(out.grad, a.data.shape))

    return a.tape._node(a.data.sum(), (a,), bwd, "sum_all")


def gru_cell(x: Tensor, h: Tensor, params: BiGRUParams, d: int) -> Tensor:
    """One GRU step of direction d (0 forward, 1 backward) composed from
    primitive ops. Accepts (in,) / (h,) or batched (B, in) / (B, h)
    operands. The direction's weights are selected from the watched
    stacked parameters, so gradients reach the real parameters."""
    tape = x.tape
    n = params.hidden
    squeeze = x.ndim == 1
    if squeeze:
        x = tape.reshape(x, (1, x.data.shape[0]))
        h = tape.reshape(h, (1, h.data.shape[0]))
    if x.data.shape[-1] != params.input_size:
        raise DimensionError(
            f"gru_cell input width {x.data.shape} does not match weights "
            f"{params.w_in.data.shape}"
        )
    if h.data.shape[-1] != n:
        raise DimensionError(
            f"gru_cell state width {h.data.shape} does not match hidden size {n}"
        )
    cols = slice(3 * n * d, 3 * n * (d + 1))
    w_in = tape.select(tape.watch(params.w_in), (slice(None), cols))
    w_hid = tape.select(tape.watch(params.w_hid), (d,))
    bias = tape.select(tape.watch(params.bias), (cols,))

    def last(a, lo, hi):
        return tape.select(a, (..., slice(lo, hi)))

    gx = tape.add(tape.matmul(x, w_in), bias)
    zr = sigmoid(tape.add(last(gx, 0, 2 * n), tape.matmul(h, last(w_hid, 0, 2 * n))))
    z = last(zr, 0, n)
    r = last(zr, n, 2 * n)
    cand = tanh(
        tape.add(last(gx, 2 * n, 3 * n), tape.matmul(tape.mul(r, h), last(w_hid, 2 * n, 3 * n)))
    )
    keep = tape.add(tape.constant(1.0), tape.neg(z))
    out = tape.add(tape.mul(keep, h), tape.mul(z, cand))
    if squeeze:
        out = tape.reshape(out, (n,))
    return out


def embed_positions(
    emb: TokenEmbedder,
    tape: Tape,
    word_ids: np.ndarray,
    char_ids: np.ndarray,
    char_mask: np.ndarray,
    token_mask: np.ndarray,
) -> Tensor:
    """(B, T) word ids + (B, T, L) char ids -> (B, T, token_dim), with
    one character row per position. Padding positions (token_mask 0)
    map to the zero vector in both halves."""
    batch, steps = word_ids.shape
    words = tape.select(tape.watch(emb.word_table), word_ids)
    chars = emb.char.embed_ids(
        tape,
        char_ids.reshape(batch * steps, -1),
        np.asarray(char_mask, dtype=np.float64).reshape(batch * steps, -1),
    )
    chars = tape.reshape(chars, (batch, steps, emb.cfg.char_out))
    chars = tape.mul(chars, tape.constant(np.asarray(token_mask, dtype=np.float64)[:, :, None]))
    return tape.concat_last([words, chars])


def embed_sides(emb: TokenEmbedder, tape: Tape, batch) -> tuple[Tensor, Tensor]:
    """Per-position embeddings of a model.Batch's documents and queries,
    rebuilt from the samples' surface tokens."""
    out = []
    for types, token_mask, seqs in (
        (batch.doc_types, batch.doc_mask, [s.document for s in batch.samples]),
        (batch.qry_types, batch.qry_mask, [s.query for s in batch.samples]),
    ):
        word_ids = np.where(token_mask > 0, batch.word_ids[types], PAD_ID)
        # one width per side, as when each side had its own scan
        width = max(len(t) for seq in seqs for t in seq)
        char_ids = np.zeros(word_ids.shape + (width,), dtype=np.int64)
        char_mask = np.zeros(word_ids.shape + (width,))
        for b, seq in enumerate(seqs):
            ids, mask = char_id_matrix(emb.vocab, seq)
            char_ids[b, : len(seq), : ids.shape[1]] = ids
            char_mask[b, : len(seq), : ids.shape[1]] = mask
        out.append(embed_positions(emb, tape, word_ids, char_ids, char_mask, token_mask))
    return out[0], out[1]


def embed_tokens(emb: TokenEmbedder, tape: Tape, ids, tokens: list[str]) -> Tensor:
    """Single sequence (T,) ids + surface tokens -> (T, token_dim)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or len(tokens) != ids.shape[0]:
        raise DimensionError(f"ids shape {ids.shape} does not match {len(tokens)} tokens")
    surfaces = ["" if i == PAD_ID else t for i, t in zip(ids, tokens)]
    char_ids, char_mask = char_id_matrix(emb.vocab, surfaces)
    token_mask = (ids != PAD_ID).astype(float)
    out = embed_positions(
        emb, tape, ids[None, :], char_ids[None, :, :], char_mask[None, :, :], token_mask[None, :]
    )
    return tape.reshape(out, (ids.shape[0], emb.cfg.token_dim))


def char_embed_token(emb: TokenEmbedder, tape: Tape, token: str) -> Tensor:
    """Character vector for a single non-empty token."""
    if not token:
        raise ContractViolation("cannot char-embed an empty token")
    ids, mask = char_id_matrix(emb.vocab, [token])
    out = emb.char.embed_ids(tape, ids, mask)
    return tape.reshape(out, (emb.cfg.char_out,))


def token_distribution(
    doc_enc: np.ndarray,
    qry_enc: np.ndarray,
    placeholder_index: int,
    doc_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Softmax over document positions of doc_enc @ qry_enc[placeholder]."""
    doc_enc = np.asarray(doc_enc, dtype=np.float64)
    qry_enc = np.asarray(qry_enc, dtype=np.float64)
    if doc_enc.ndim != 2 or qry_enc.ndim != 2 or doc_enc.shape[1] != qry_enc.shape[1]:
        raise DimensionError(
            f"encodings must be (n, r) and (m, r): {doc_enc.shape} vs {qry_enc.shape}"
        )
    if not 0 <= placeholder_index < qry_enc.shape[0]:
        raise ContractViolation(
            f"placeholder index {placeholder_index} outside query length {qry_enc.shape[0]}"
        )
    scores = doc_enc @ qry_enc[placeholder_index]
    if doc_mask is not None:
        mask = np.asarray(doc_mask, dtype=np.float64)
        if not mask.any():
            raise ContractViolation("token_distribution: document mask is all zero")
        scores = scores + (mask - 1.0) * 1e30
    shifted = np.exp(scores - scores.max())
    if doc_mask is not None:
        shifted = shifted * mask
    return shifted / shifted.sum()


@dataclass
class CandidateOccurrences:
    """Ascending occurrence positions per candidate."""

    positions: dict[str, list[int]]


def find_occurrences(document: list[str], candidates: list[str]) -> CandidateOccurrences:
    positions = {c: [] for c in candidates}
    for i, tok in enumerate(document):
        if tok in positions:
            positions[tok].append(i)
    for cand, pos in positions.items():
        if not pos:
            raise ContractViolation(f"candidate {cand!r} does not occur in the document")
    return CandidateOccurrences(positions)


def aggregate_candidates(y: np.ndarray, occurrences: CandidateOccurrences) -> dict[str, float]:
    """Pointer-sum aggregation, renormalized over the candidate set.

    Each candidate's mass is accumulated over its positions in
    ascending order, so the result is bit-identical to a direct
    per-position scan.
    """
    y = np.asarray(y, dtype=np.float64)
    raw: dict[str, float] = {}
    for cand, positions in occurrences.positions.items():
        total = 0.0
        for pos in positions:
            if pos >= y.shape[0]:
                raise ContractViolation(
                    f"occurrence position {pos} outside distribution length {y.shape[0]}"
                )
            total += float(y[pos])
        raw[cand] = total
    denom = 0.0
    for value in raw.values():
        denom += value
    if denom <= 0.0:
        raise ContractViolation("candidate occurrence mass is zero; nothing to rank")
    return {cand: value / denom for cand, value in raw.items()}


def rank(
    doc_enc: np.ndarray,
    qry_enc: np.ndarray,
    placeholder_index: int,
    document: list[str],
    candidates: list[str],
    doc_mask: np.ndarray | None = None,
) -> PredictionDistribution:
    """Candidate distribution and prediction for one sample's unpadded
    (n, r) / (m, r) encodings."""
    y = token_distribution(doc_enc, qry_enc, placeholder_index, doc_mask)
    probs = aggregate_candidates(y, find_occurrences(document, candidates))
    return PredictionDistribution(probs, predict(probs))


def occurrence_matrix(
    occurrences: CandidateOccurrences, doc_len: int, order: list[str]
) -> np.ndarray:
    """0/1 matrix (num candidates, doc_len) in the given candidate order."""
    out = np.zeros((len(order), doc_len))
    for row, cand in enumerate(order):
        out[row, occurrences.positions[cand]] = 1.0
    return out


def sample_occurrence(sample: ClozeSample) -> np.ndarray:
    """One sample's occurrence rows as a batch of one, (1, g, n), as
    Batch.occurrence holds them."""
    occ = find_occurrences(sample.document, sample.candidates)
    return occurrence_matrix(occ, len(sample.document), sample.candidates)[None]


def encode_sample(model: Model, sample: ClozeSample) -> tuple[np.ndarray, np.ndarray, list]:
    """Final encodings (n, r) / (m, r) and the per-hop energy matrices
    (1, n, m) of one sample, from a forward over a batch of one."""
    result = model.forward_batch(assemble_batch([sample], model.vocab))
    return np.array(result.doc_enc.data[0]), np.array(result.qry_enc.data[0]), result.energies


def qe_comm_features(doc_tokens: list[str], qry_tokens: list[str]) -> np.ndarray:
    """0/1 per document token: does it occur in the query? The
    placeholder never matches, on either side."""
    wanted = {t for t in qry_tokens if t != PLACEHOLDER}
    return np.array([1.0 if t != PLACEHOLDER and t in wanted else 0.0 for t in doc_tokens])


def assemble_per_sample(samples, vocab) -> Batch:
    """model.Batch filled sample by sample and token by token: type rows
    by first appearance (each document, then its query), occurrence rows
    from find_occurrences, qe from qe_comm_features."""
    n = max(len(s.document) for s in samples)
    m = max(len(s.query) for s in samples)
    g = max(len(s.candidates) for s in samples)
    batch = len(samples)
    doc_mask = np.zeros((batch, n))
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
        doc_mask[b, :dn] = 1.0
        qry_mask[b, :qm] = 1.0
        doc_types[b, :dn] = [types.setdefault(t, len(types)) for t in s.document]
        qry_types[b, :qm] = [types.setdefault(t, len(types)) for t in s.query]
        ph_idx[b] = s.placeholder_index
        occ = find_occurrences(s.document, s.candidates)
        occurrence[b, : len(s.candidates), :dn] = occurrence_matrix(occ, dn, s.candidates)
        if s.answer is not None:
            answer_idx[b] = s.candidates.index(s.answer)
        qe[b, :dn] = qe_comm_features(s.document, s.query)
    word_ids = np.array([vocab.word_id(t) for t in types], dtype=np.int64)
    char_ids, char_mask = char_id_matrix(vocab, list(types))
    return Batch(
        doc_mask, doc_types, qry_mask, qry_types, word_ids, char_ids, char_mask,
        ph_idx, occurrence, answer_idx, qe, list(samples),
    )
