"""Post-hoc analysis over prediction dumps and attention energies:
accuracy bucketed by sequence length, per-hop candidate-over-query
attention exports (JSON and a static SVG heat map), and an exact
one-sided McNemar test for comparing two prediction files.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import ClozeSample
from .errors import ConfigError, ContractViolation

LENGTH_AXES = ("document", "query")


@dataclass
class LengthBucketReport:
    axis: str
    centers: list[int]
    counts: list[int]
    accuracies: list[float | None]

    def to_csv(self) -> str:
        lines = ["center,count,accuracy"]
        for center, count, acc in zip(self.centers, self.counts, self.accuracies):
            cell = "" if acc is None else f"{acc:.6f}"
            lines.append(f"{center},{count},{cell}")
        return "\n".join(lines) + "\n"


def nearest_center(length: int, centers: list[int]) -> int:
    """Nearest bucket center; equidistant lengths go to the lower one."""
    return min(centers, key=lambda c: (abs(length - c), c))


def bucket_by_length(
    records: list[dict],
    centers: list[int],
    axis: str = "document",
) -> LengthBucketReport:
    """Accuracy per length bucket over loaded prediction records."""
    if axis not in LENGTH_AXES:
        raise ConfigError(f"axis must be one of {LENGTH_AXES}, got {axis!r}")
    if not centers:
        raise ConfigError("at least one bucket center is required")
    if sorted(set(centers)) != list(centers):
        raise ConfigError("bucket centers must be strictly increasing")
    if not records:
        raise ContractViolation("no prediction records to bucket")
    key = "doc_len" if axis == "document" else "qry_len"
    hits = {c: 0 for c in centers}
    totals = {c: 0 for c in centers}
    for record in records:
        if record.get("correct") is None:
            raise ContractViolation(
                f"record {record.get('sample_id')!r} has no correctness flag"
            )
        center = nearest_center(int(record[key]), centers)
        totals[center] += 1
        hits[center] += bool(record["correct"])
    return LengthBucketReport(
        axis=axis,
        centers=list(centers),
        counts=[totals[c] for c in centers],
        accuracies=[hits[c] / totals[c] if totals[c] else None for c in centers],
    )


@dataclass
class AttentionExport:
    candidates: list[str]
    query: list[str]
    layers: list[np.ndarray]
    placeholder_column: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "candidates": self.candidates,
                "query": self.query,
                "layers": [layer.tolist() for layer in self.layers],
                "placeholder_column": self.placeholder_column.tolist(),
            }
        )


def _minmax(matrix: np.ndarray) -> np.ndarray:
    lo = matrix.min()
    hi = matrix.max()
    if hi == lo:
        return np.zeros_like(matrix)
    return (matrix - lo) / (hi - lo)


def export_attention(
    energies: list[np.ndarray],
    sample: ClozeSample,
    occurrence: np.ndarray,
) -> AttentionExport:
    """Aggregate each hop's energy rows (sample 0 of its (B, n, m)
    matrix) over candidate occurrences and min-max normalize per hop.
    occurrence is the forward's Batch.occurrence (B, g, n); row g of
    sample 0 selects the document positions of its g-th candidate. The
    last hop also contributes the (normalized) placeholder column
    restricted to candidates.

    A hop whose aggregated matrix is constant exports all zeros.
    """
    if not energies:
        raise ContractViolation("energies carry no attention rounds")
    hits = occurrence[0, : len(sample.candidates), : len(sample.document)] != 0.0
    layers = []
    for batch_e in energies:
        e = batch_e[0]
        if e.shape[0] < len(sample.document) or e.shape[1] < len(sample.query):
            raise ContractViolation(
                f"energies shape {e.shape} smaller than sample "
                f"({len(sample.document)}, {len(sample.query)})"
            )
        e = e[: len(sample.document), : len(sample.query)]
        rows = np.stack([e[row].sum(axis=0) for row in hits])
        layers.append(_minmax(rows))
    return AttentionExport(
        candidates=list(sample.candidates),
        query=list(sample.query),
        layers=layers,
        placeholder_column=layers[-1][:, sample.placeholder_index].copy(),
    )


SVG_CELL = 22
SVG_LABEL = 90


def attention_svg(export: AttentionExport) -> str:
    """Static grey-scale heat map of the last exported hop, darker = higher."""
    matrix = export.layers[-1]
    rows, cols = matrix.shape
    width = SVG_LABEL + cols * SVG_CELL
    height = (rows + 1) * SVG_CELL + 6
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="11">'
    ]
    for i, cand in enumerate(export.candidates):
        y = (i + 1) * SVG_CELL
        parts.append(
            f'<text x="{SVG_LABEL - 6}" y="{y - 7}" text-anchor="end">{_svg_escape(cand)}</text>'
        )
        for j in range(cols):
            shade = int(round(255 * (1.0 - matrix[i, j])))
            parts.append(
                f'<rect x="{SVG_LABEL + j * SVG_CELL}" y="{y - SVG_CELL + 2}" '
                f'width="{SVG_CELL - 2}" height="{SVG_CELL - 2}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    y = (rows + 1) * SVG_CELL
    for j, token in enumerate(export.query):
        parts.append(
            f'<text x="{SVG_LABEL + j * SVG_CELL + 2}" y="{y}">{_svg_escape(token[:3])}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class McNemarResult:
    b: int
    c: int
    p_value: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def mcnemar_exact(b: int, c: int) -> float:
    """One-sided exact test that system A beats system B.

    b counts samples only A got right, c samples only B got right. Under
    the null both are coin flips, so p = P(X >= b) with X ~ Bin(b+c, 1/2).
    """
    if b < 0 or c < 0:
        raise ContractViolation(f"counts must be non-negative, got b={b}, c={c}")
    n = b + c
    if n == 0:
        warnings.warn("no discordant pairs; the test is uninformative")
        return 1.0
    tail = sum(math.comb(n, k) for k in range(b, n + 1))
    return tail / 2 ** n


def mcnemar_one_sided(records_a: list[dict], records_b: list[dict]) -> McNemarResult:
    """Exact one-sided McNemar over two aligned prediction dumps."""
    by_id_a = _index_records(records_a, "A")
    by_id_b = _index_records(records_b, "B")
    if set(by_id_a) != set(by_id_b):
        only_a = sorted(set(by_id_a) - set(by_id_b))[:3]
        only_b = sorted(set(by_id_b) - set(by_id_a))[:3]
        raise ContractViolation(
            f"prediction files are not aligned; only in A: {only_a}, only in B: {only_b}"
        )
    b = c = 0
    for sample_id, rec_a in by_id_a.items():
        rec_b = by_id_b[sample_id]
        if rec_a["gold"] != rec_b["gold"]:
            raise ContractViolation(
                f"gold answers disagree for sample {sample_id!r}: "
                f"{rec_a['gold']!r} vs {rec_b['gold']!r}"
            )
        if rec_a["correct"] is None or rec_b["correct"] is None:
            raise ContractViolation(f"sample {sample_id!r} has no correctness flag")
        if rec_a["correct"] and not rec_b["correct"]:
            b += 1
        elif rec_b["correct"] and not rec_a["correct"]:
            c += 1
    return McNemarResult(b=b, c=c, p_value=mcnemar_exact(b, c))


def _index_records(records: list[dict], label: str) -> dict[str, dict]:
    out = {}
    for record in records:
        sample_id = record["sample_id"]
        if sample_id in out:
            raise ContractViolation(f"duplicate sample id {sample_id!r} in file {label}")
        out[sample_id] = record
    return out
