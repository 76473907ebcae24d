"""The prediction rule and prediction dumps.

The model ranks candidates by pointer-sum attention, computed for a
whole batch in `Model.forward_batch`: a softmax over document positions
of the dot product between each final document state and the final
query state at the placeholder, summed over each candidate's occurrence
positions through the 0/1 occurrence matrix that `model.assemble_batch`
builds, and renormalized over the candidate set. `predict` picks the
most probable candidate, exact ties going to the lexicographically
smallest. The scalar per-position version of the ranking is the oracle
in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractViolation, ParseError


def predict(candidate_probs: dict[str, float]) -> str:
    """Highest-probability candidate; exact ties go to the
    lexicographically smallest string."""
    if not candidate_probs:
        raise ContractViolation("empty candidate distribution")
    return min(candidate_probs, key=lambda c: (-candidate_probs[c], c))


@dataclass
class PredictionDistribution:
    candidate_probs: dict[str, float]
    predicted: str


# ---------------------------------------------------------------------------
# Prediction dumps
# ---------------------------------------------------------------------------

PREDICTION_KEYS = (
    "sample_id",
    "predicted",
    "gold",
    "correct",
    "candidate_probs",
    "doc_len",
    "qry_len",
)


def prediction_record(
    sample_id: str,
    dist: PredictionDistribution,
    gold: str | None,
    doc_len: int,
    qry_len: int,
) -> dict:
    return {
        "sample_id": sample_id,
        "predicted": dist.predicted,
        "gold": gold,
        "correct": None if gold is None else dist.predicted == gold,
        "candidate_probs": dist.candidate_probs,
        "doc_len": doc_len,
        "qry_len": qry_len,
    }


def dump_predictions(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_predictions(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path} line {number}: invalid JSON: {exc}") from exc
            missing = [k for k in PREDICTION_KEYS if k not in record]
            if missing:
                raise ParseError(f"{path} line {number}: missing keys {missing}")
            records.append(record)
    return records
