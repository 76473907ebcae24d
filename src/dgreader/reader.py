"""Multi-hop gated-attention reading with dependent query reading.

One encoding pass is: an initial bidirectional read of document and
query, then `hops` rounds of token-wise attention between the two
sides, multiplicative gating, and re-reading. Attention happens between
consecutive readings only, so `hops` rounds produce `hops + 1` readings
per side and `hops` energy matrices.

Three switches span the ablation lattice:

  query_gating      gate the query states with attended document
                    context before the next query reading (requires
                    dependent_query);
  dependent_query   feed the (gated) query states of the previous round
                    into the next query reading instead of re-reading
                    the raw query embeddings;
  carry_query_state initialize each query reading's directional GRUs
                    from the final states of the previous one instead
                    of zeros.

With all three off the pass degenerates to a plain gated-attention
reader: fresh query reads, zero initial states, document-side gating
only. No reading shares parameters with any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import BiGRUParams, Parameter, Tensor, bigru
from .corpus import PLACEHOLDER
from .errors import ConfigError, ContractViolation, DimensionError

# Ablation switch combinations reachable from the full model, by preset
# name: (query_gating, dependent_query, carry_query_state).
ABLATION_PRESETS: dict[str, tuple[bool, bool, bool]] = {
    "dgr": (True, True, True),
    "no-a": (False, True, True),
    "no-c": (True, True, False),
    "no-ab": (False, False, True),
    "no-ac": (False, True, False),
    "ga-reader": (False, False, False),
}


@dataclass
class ReaderConfig:
    hops: int = 2
    hidden: int = 128
    query_gating: bool = True
    dependent_query: bool = True
    carry_query_state: bool = True
    qe_comm: bool = True

    def validate(self) -> "ReaderConfig":
        if self.hops < 1:
            raise ConfigError(f"hops must be >= 1, got {self.hops}")
        if self.hidden < 2 or self.hidden % 2:
            raise ConfigError(f"hidden must be a positive even width, got {self.hidden}")
        if self.query_gating and not self.dependent_query:
            raise ConfigError(
                "query_gating requires dependent_query: gated query states have "
                "nowhere to go when the next reading re-reads raw embeddings"
            )
        return self

    @staticmethod
    def from_preset(name: str, **overrides) -> "ReaderConfig":
        if name not in ABLATION_PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose from {sorted(ABLATION_PRESETS)}")
        a, b, c = ABLATION_PRESETS[name]
        return ReaderConfig(
            query_gating=a, dependent_query=b, carry_query_state=c, **overrides
        ).validate()


class ReaderParams:
    """One BiGRU per reading per side, no sharing."""

    def __init__(self, doc_readers: list[BiGRUParams], qry_readers: list[BiGRUParams]):
        self.doc_readers = doc_readers
        self.qry_readers = qry_readers

    def parameters(self) -> list[Parameter]:
        out: list[Parameter] = []
        for gru in self.doc_readers + self.qry_readers:
            out.extend(gru.parameters())
        return out

    @staticmethod
    def create(rng: np.random.Generator, cfg: ReaderConfig, input_dim: int) -> "ReaderParams":
        cfg.validate()
        half = cfg.hidden // 2
        doc, qry = [], []
        for s in range(cfg.hops + 1):
            doc_in = input_dim if s == 0 else cfg.hidden
            if s == cfg.hops and cfg.qe_comm:
                doc_in += 1
            qry_in = input_dim if s == 0 or not cfg.dependent_query else cfg.hidden
            doc.append(BiGRUParams.create(rng, f"reader.doc{s}", doc_in, half))
            qry.append(BiGRUParams.create(rng, f"reader.qry{s}", qry_in, half))
        return ReaderParams(doc, qry)


@dataclass
class HopState:
    doc_enc: Tensor  # (B, n, hidden)
    qry_enc: Tensor  # (B, m, hidden)
    qry_final: tuple[Tensor, Tensor]  # directional final states, each (B, hidden/2)
    hop: int


@dataclass
class AttentionTrace:
    """Raw energies and both normalized attention maps per hop."""

    energies: list[np.ndarray] = field(default_factory=list)  # (B, n, m)
    doc_attention: list[np.ndarray] = field(default_factory=list)  # rows over query
    qry_attention: list[np.ndarray] = field(default_factory=list)  # rows over document


def qe_comm_features(doc_tokens: list[str], qry_tokens: list[str]) -> np.ndarray:
    """0/1 per document token: does it occur in the query? The
    placeholder never matches, on either side."""
    wanted = {t for t in qry_tokens if t != PLACEHOLDER}
    return np.array(
        [1.0 if t != PLACEHOLDER and t in wanted else 0.0 for t in doc_tokens]
    )


def energy(doc_enc: Tensor, qry_enc: Tensor) -> Tensor:
    """Pairwise dot products: (B, n, r) x (B, m, r) -> (B, n, m)."""
    if doc_enc.data.shape[-1] != qry_enc.data.shape[-1]:
        raise DimensionError(
            f"encoding widths differ: {doc_enc.data.shape} vs {qry_enc.data.shape}"
        )
    tape = doc_enc.tape
    return tape.matmul(doc_enc, tape.transpose_last2(qry_enc))


def cross_attend(
    e: Tensor,
    doc_enc: Tensor,
    qry_enc: Tensor,
    doc_mask: np.ndarray,
    qry_mask: np.ndarray,
) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
    """Attend both ways over one energy matrix.

    Returns the attended query context per document token (B, n, r),
    the attended document context per query token (B, m, r), and the
    two normalized maps as plain arrays for tracing.
    """
    tape = e.tape
    att_doc = tape.masked_softmax(e, qry_mask[:, None, :])  # rows over query positions
    doc_ctx = tape.matmul(att_doc, qry_enc)
    att_qry = tape.masked_softmax(tape.transpose_last2(e), doc_mask[:, None, :])
    qry_ctx = tape.matmul(att_qry, doc_enc)
    return doc_ctx, qry_ctx, att_doc.data, att_qry.data


def gate(enc: Tensor, ctx: Tensor) -> Tensor:
    """Token-wise multiplicative gating of an encoding by its attended
    context."""
    if enc.data.shape != ctx.data.shape:
        raise DimensionError(f"gate operands differ: {enc.data.shape} vs {ctx.data.shape}")
    return enc.tape.mul(enc, ctx)


def hop(
    state: HopState,
    cfg: ReaderConfig,
    params: ReaderParams,
    qry_emb: Tensor,
    doc_mask: np.ndarray,
    qry_mask: np.ndarray,
    trace: AttentionTrace | None = None,
    qe_features: np.ndarray | None = None,
    dropout: tuple[float, np.random.Generator | None, bool] = (0.0, None, False),
) -> HopState:
    """One attention-gate-reread round, producing reading state.hop + 1.

    qe_features may only be supplied on the final round (the one that
    produces the last document reading); it is appended to the gated
    document states as one extra input column.
    """
    tape = state.doc_enc.tape
    final_round = state.hop == cfg.hops - 1
    if qe_features is not None and not final_round:
        raise ContractViolation(
            f"qe features supplied on round {state.hop}, allowed only on round {cfg.hops - 1}"
        )
    e = energy(state.doc_enc, state.qry_enc)
    doc_ctx, qry_ctx, att_doc, att_qry = cross_attend(
        e, state.doc_enc, state.qry_enc, doc_mask, qry_mask
    )
    if trace is not None:
        trace.energies.append(e.data)
        trace.doc_attention.append(att_doc)
        trace.qry_attention.append(att_qry)

    doc_in = gate(state.doc_enc, doc_ctx)
    if cfg.query_gating:
        qry_in = gate(state.qry_enc, qry_ctx)
    elif cfg.dependent_query:
        qry_in = state.qry_enc
    else:
        qry_in = qry_emb

    rate, rng, train = dropout
    doc_in = tape.dropout(doc_in, rate, rng, train)
    qry_in = tape.dropout(qry_in, rate, rng, train)
    if qe_features is not None:
        doc_in = tape.concat_last([doc_in, tape.constant(qe_features[:, :, None])])

    nxt = state.hop + 1
    doc_enc, _ = bigru(doc_in, None, None, params.doc_readers[nxt], doc_mask)
    if cfg.carry_query_state:
        h0f, h0b = state.qry_final
    else:
        h0f = h0b = None
    qry_enc, qry_final = bigru(qry_in, h0f, h0b, params.qry_readers[nxt], qry_mask)
    return HopState(doc_enc, qry_enc, qry_final, nxt)


def initial_read(
    doc_emb: Tensor,
    qry_emb: Tensor,
    params: ReaderParams,
    doc_mask: np.ndarray,
    qry_mask: np.ndarray,
) -> HopState:
    """Reading 0: both sides from zero initial states."""
    doc_enc, _ = bigru(doc_emb, None, None, params.doc_readers[0], doc_mask)
    qry_enc, qry_final = bigru(qry_emb, None, None, params.qry_readers[0], qry_mask)
    return HopState(doc_enc, qry_enc, qry_final, 0)


def encode_full(
    doc_emb: Tensor,
    qry_emb: Tensor,
    cfg: ReaderConfig,
    params: ReaderParams,
    doc_mask: np.ndarray | None = None,
    qry_mask: np.ndarray | None = None,
    qe_features: np.ndarray | None = None,
    dropout: tuple[float, np.random.Generator | None, bool] = (0.0, None, False),
) -> tuple[Tensor, Tensor, AttentionTrace]:
    """Full encoding pass over (B, n, D) / (B, m, D) embeddings,
    returning the final document and query readings plus the attention
    trace (cfg.hops energy matrices)."""
    if doc_emb.ndim != 3 or qry_emb.ndim != 3:
        raise DimensionError(
            f"encode_full expects (B, n, D) and (B, m, D) embeddings, got "
            f"{doc_emb.data.shape} and {qry_emb.data.shape}"
        )
    batch, n, _ = doc_emb.data.shape
    m = qry_emb.data.shape[1]
    if doc_mask is None:
        doc_mask = np.ones((batch, n))
    if qry_mask is None:
        qry_mask = np.ones((batch, m))
    if cfg.qe_comm and qe_features is None:
        raise ContractViolation("config enables the qe feature but none was supplied")
    if not cfg.qe_comm and qe_features is not None:
        raise ContractViolation("qe features supplied but disabled in the config")

    trace = AttentionTrace()
    state = initial_read(doc_emb, qry_emb, params, doc_mask, qry_mask)
    for s in range(cfg.hops):
        last = s == cfg.hops - 1
        state = hop(
            state,
            cfg,
            params,
            qry_emb,
            doc_mask,
            qry_mask,
            trace=trace,
            qe_features=qe_features if (last and cfg.qe_comm) else None,
            dropout=dropout,
        )
    return state.doc_enc, state.qry_enc, trace
