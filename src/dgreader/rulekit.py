"""Rule-based answer disambiguation for name-entity cloze samples.

The rule anchors on an uppercase-initial query token adjacent to the
placeholder, then collects the document tokens sitting on the opposite
side of that word's occurrences. If exactly one candidate survives the
intersection, the sample is solved without the model. Samples must keep
their original casing for the anchor test to mean anything.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .corpus import ClozeSample
from .errors import ContractViolation

STATUS_SOLVED = "disambiguated"
STATUS_AMBIGUOUS = "ambiguous"
STATUS_NO_ANCHOR = "no-anchor"


@dataclass
class RuleDecision:
    status: str
    anchor: str | None = None
    direction: str | None = None
    collected: list[str] = field(default_factory=list)
    survivors: list[str] = field(default_factory=list)
    answer: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _uppercase_initial(token: str) -> bool:
    return bool(token) and token[0].isupper()


def disambiguate(sample: ClozeSample) -> RuleDecision:
    """Apply the adjacency rule to one sample.

    The previous query neighbor of the placeholder is tried first, then
    the next one; the first uppercase-initial neighbor becomes the
    anchor. With a previous-side anchor the tokens following its
    document occurrences are collected, with a next-side anchor the
    tokens preceding them. Occurrences at the document boundary have no
    opposite-side token and are skipped.
    """
    idx = sample.placeholder_index
    anchor = None
    direction = None
    if idx > 0 and _uppercase_initial(sample.query[idx - 1]):
        anchor = sample.query[idx - 1]
        direction = "previous"
    elif idx + 1 < len(sample.query) and _uppercase_initial(sample.query[idx + 1]):
        anchor = sample.query[idx + 1]
        direction = "next"
    if anchor is None:
        return RuleDecision(status=STATUS_NO_ANCHOR)

    collected = []
    seen = set()
    for pos, token in enumerate(sample.document):
        if token != anchor:
            continue
        neighbor = pos + 1 if direction == "previous" else pos - 1
        if not 0 <= neighbor < len(sample.document):
            continue
        opposite = sample.document[neighbor]
        if opposite not in seen:
            seen.add(opposite)
            collected.append(opposite)

    by_lower = {}
    for cand in sample.candidates:
        by_lower.setdefault(cand.lower(), cand)
    survivors = []
    for token in collected:
        cand = by_lower.get(token.lower())
        if cand is not None and cand not in survivors:
            survivors.append(cand)
    survivors.sort()

    solved = len(survivors) == 1
    return RuleDecision(
        status=STATUS_SOLVED if solved else STATUS_AMBIGUOUS,
        anchor=anchor,
        direction=direction,
        collected=collected,
        survivors=survivors,
        answer=survivors[0] if solved else None,
    )


@dataclass
class RuleCoverage:
    total: int
    solved: int
    correct: int
    wrong: int

    @property
    def correct_fraction(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def wrong_fraction(self) -> float:
        return self.wrong / self.total if self.total else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {**asdict(self), "correct_fraction": self.correct_fraction,
             "wrong_fraction": self.wrong_fraction}
        )


def evaluate_rule_coverage(samples: list[ClozeSample]) -> RuleCoverage:
    """Coverage of the rule over a labelled split. Fractions are taken
    over the whole split, not over the solved subset."""
    solved = correct = wrong = 0
    for sample in samples:
        if sample.answer is None:
            raise ContractViolation("rule coverage needs gold answers")
        decision = disambiguate(sample)
        if decision.status != STATUS_SOLVED:
            continue
        solved += 1
        if decision.answer == sample.answer:
            correct += 1
        else:
            wrong += 1
    return RuleCoverage(total=len(samples), solved=solved, correct=correct, wrong=wrong)
