"""Multi-hop gated-attention reading with dependent query reading.

One encoding pass, `encode_full`, is one loop. Reading 0 reads the
document and the query with their own BiGRUs. Each of the `hops`
rounds then computes the energies between the two latest readings,
gates every document state with its attended query context, and reads
both sides again; the query-occurrence (qe) column joins the document
input of the last reading only. `hops` rounds produce `hops + 1`
readings per side and `hops` energy matrices.

Three switches decide what the query side feeds forward:

  query_gating      gate the query states with attended document
                    context before the next query reading (requires
                    dependent_query); the document-to-query attention
                    is computed only under this switch;
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

from dataclasses import dataclass

import numpy as np

from .autodiff import BiGRUParams, Parameter, Tensor, bigru, final_states
from .errors import ConfigError, ContractViolation, DimensionError

# Ablation switch values reachable from the full model, by preset name.
ABLATION_PRESETS: dict[str, dict[str, bool]] = {
    "dgr": dict(query_gating=True, dependent_query=True, carry_query_state=True),
    "no-a": dict(query_gating=False, dependent_query=True, carry_query_state=True),
    "no-c": dict(query_gating=True, dependent_query=True, carry_query_state=False),
    "no-ab": dict(query_gating=False, dependent_query=False, carry_query_state=True),
    "no-ac": dict(query_gating=False, dependent_query=True, carry_query_state=False),
    "ga-reader": dict(query_gating=False, dependent_query=False, carry_query_state=False),
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
            raise ConfigError(f"hops must be >= 1, got {self.hops}", "hops")
        if self.hidden < 2 or self.hidden % 2:
            raise ConfigError(f"hidden must be a positive even width, got {self.hidden}", "hidden")
        if self.query_gating and not self.dependent_query:
            raise ConfigError(
                "query_gating requires dependent_query: gated query states have "
                "nowhere to go when the next reading re-reads raw embeddings",
                "query_gating",
            )
        return self

    @staticmethod
    def from_preset(name: str, **overrides) -> "ReaderConfig":
        if name not in ABLATION_PRESETS:
            raise ConfigError(f"unknown preset {name!r}; choose from {sorted(ABLATION_PRESETS)}")
        return ReaderConfig(**ABLATION_PRESETS[name], **overrides).validate()


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


def attend(scores: Tensor, values: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax of (B, i, j) scores over the unmasked positions j, then
    the attended values (B, i, r) from values (B, j, r)."""
    tape = scores.tape
    return tape.matmul(tape.masked_softmax(scores, mask[:, None, :]), values)


def encode_full(
    doc_emb: Tensor,
    qry_emb: Tensor,
    cfg: ReaderConfig,
    params: ReaderParams,
    doc_mask: np.ndarray,
    qry_mask: np.ndarray,
    qe_features: np.ndarray | None = None,
    dropout: tuple[float, np.random.Generator | None] = (0.0, None),
) -> tuple[Tensor, Tensor, list[np.ndarray]]:
    """Full encoding pass over (B, n, D) / (B, m, D) embeddings under
    their (B, n) / (B, m) 0/1 masks.

    Reading 0 reads both sides from zero states. Each of the cfg.hops
    rounds computes the energies e = doc @ qryᵀ, gates the document with
    its attended query context, routes the query side by the three
    switches (attending to the document only under query_gating),
    applies dropout (rate, generator) to the document input and then the
    query input, appends the qe column to the document input of the last
    round, and reads both sides again; qe_features is read only under
    cfg.qe_comm. Returns the final document and query readings and the
    cfg.hops energy matrices, each (B, n, m).
    """
    if doc_emb.ndim != 3 or qry_emb.ndim != 3:
        raise DimensionError(
            f"encode_full expects (B, n, D) and (B, m, D) embeddings, got "
            f"{doc_emb.data.shape} and {qry_emb.data.shape}"
        )
    if cfg.qe_comm and qe_features is None:
        raise ContractViolation("config enables the qe feature but none was supplied")

    tape = doc_emb.tape
    rate, rng = dropout
    doc = bigru(doc_emb, None, None, params.doc_readers[0], doc_mask)
    qry = bigru(qry_emb, None, None, params.qry_readers[0], qry_mask)
    energies = []
    for s in range(1, cfg.hops + 1):
        h0f, h0b = final_states(qry) if cfg.carry_query_state else (None, None)
        e = tape.matmul(doc, tape.transpose_last2(qry))
        energies.append(e.data)
        doc_in = tape.mul(doc, attend(e, qry, qry_mask))
        if cfg.query_gating:
            qry_in = tape.mul(qry, attend(tape.transpose_last2(e), doc, doc_mask))
        else:
            qry_in = qry if cfg.dependent_query else qry_emb
        doc_in = tape.dropout(doc_in, rate, rng)
        qry_in = tape.dropout(qry_in, rate, rng)
        if s == cfg.hops and cfg.qe_comm:
            doc_in = tape.concat_last([doc_in, tape.constant(qe_features[:, :, None])])
        doc = bigru(doc_in, None, None, params.doc_readers[s], doc_mask)
        qry = bigru(qry_in, h0f, h0b, params.qry_readers[s], qry_mask)
    return doc, qry, energies
