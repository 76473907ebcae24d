"""Cloze sample handling: parsing, validation, vocabulary, synthesis.

Two input formats are supported.

CBT plain text: samples are blank-line-separated blocks of 21 numbered
lines. Lines 1-20 hold document sentences; line 21 holds the query, the
answer and a "|"-separated candidate list in tab-separated fields. The
file's blank marker XXXXX is replaced by the placeholder token.

Normalized JSON lines: one object per line with keys "document",
"query", "candidates" (lists of token strings) and optional "answer".

Every sample satisfies the same invariants regardless of source:
exactly one placeholder token in the query, a non-empty document,
distinct single-token candidates that each occur in the document, and
an answer (when present) drawn from the candidates. Violations are
rejected with an error naming the sample ordinal or line number, and the
file when one was read.
"""

from __future__ import annotations

import contextlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, ParseError

PLACEHOLDER = "@placeholder"
CBT_BLANK = "XXXXX"
CBT_LINES = 21
CBT_CANDIDATES = 10

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1
PLACEHOLDER_ID = 2
# The words at ids 0, 1 and 2; a corpus token spelled like one maps to it.
RESERVED_WORDS = (PAD_TOKEN, UNK_TOKEN, PLACEHOLDER)


@dataclass
class ClozeSample:
    document: list[str]
    query: list[str]
    candidates: list[str]
    answer: str | None
    placeholder_index: int

    def validate(self) -> "ClozeSample":
        if not self.document:
            raise ContractViolation("document is empty")
        if not self.query:
            raise ContractViolation("query is empty")
        for name, tokens in (("document", self.document), ("query", self.query)):
            for tok in tokens:
                if not isinstance(tok, str) or not tok:
                    raise ContractViolation(f"{name} contains an empty or non-string token")
        count = self.query.count(PLACEHOLDER)
        if count != 1:
            raise ContractViolation(
                f"query must contain {PLACEHOLDER} exactly once, found {count}"
            )
        if self.placeholder_index != self.query.index(PLACEHOLDER):
            raise ContractViolation(
                f"placeholder_index {self.placeholder_index} does not point at {PLACEHOLDER}"
            )
        if not self.candidates:
            raise ContractViolation("candidate list is empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ContractViolation("candidates are not distinct")
        doc_set = set(self.document)
        for cand in self.candidates:
            if not isinstance(cand, str) or not cand or cand.split() != [cand]:
                raise ContractViolation(f"candidate {cand!r} is not a single non-empty token")
            if cand not in doc_set:
                raise ContractViolation(f"candidate {cand!r} does not occur in the document")
        if self.answer is not None and self.answer not in self.candidates:
            raise ContractViolation(f"answer {self.answer!r} is not among the candidates")
        return self


@dataclass
class DatasetSplit:
    name: str
    samples: list[ClozeSample] = field(default_factory=list)


@contextlib.contextmanager
def open_text(path, error: type[Exception] = ParseError):
    """The file opened for reading as UTF-8 text. A path that cannot be
    opened (missing, a directory) raises ConfigError naming it; bytes
    that are not UTF-8, met anywhere in the with block, raise `error`
    naming the file. The file is read as it is iterated, never whole."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open ({exc.strerror})") from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load(path, parse) -> list[ClozeSample]:
    """parse applied to the open file, its errors prefixed with the file."""
    with open_text(path) as fh:
        try:
            return parse(fh)
        except ParseError as exc:
            raise ParseError(f"{path} {exc}") from exc


def _build_sample(document, query, candidates, answer, where: str) -> ClozeSample:
    """The validated sample, duplicate candidates collapsed with a
    warning; a contract violation becomes a ParseError naming `where`."""
    if all(isinstance(c, str) for c in candidates):
        deduped = list(dict.fromkeys(candidates))
        if len(deduped) != len(candidates):
            warnings.warn(f"{where}: collapsed duplicate candidates")
        candidates = deduped
    try:
        idx = query.index(PLACEHOLDER) if PLACEHOLDER in query else -1
        sample = ClozeSample(
            document=list(document),
            query=list(query),
            candidates=list(candidates),
            answer=answer,
            placeholder_index=idx,
        )
        return sample.validate()
    except ContractViolation as exc:
        raise ParseError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# CBT plain text
# ---------------------------------------------------------------------------


def parse_cbt(text: str, lowercase: bool = True) -> list[ClozeSample]:
    """Parse blank-line-separated 21-line CBT blocks.

    lowercase=True (the default used for training) lowercases every
    token; pass False to keep original casing, which the rule-based
    disambiguator needs.
    """
    blocks: list[list[str]] = []
    current: list[str] = []
    for line in text.split("\n"):  # not splitlines, which also splits at \x1c, \x85, \u2028
        if line.strip() == "":
            if current:
                blocks.append(current)
                current = []
        else:
            current.append(line)
    if current:
        blocks.append(current)
    if not blocks:
        warnings.warn("no samples found in CBT input")
        return []
    return [_parse_cbt_block(block, ordinal, lowercase) for ordinal, block in enumerate(blocks, 1)]


def load_cbt(path, lowercase: bool = True) -> list[ClozeSample]:
    return _load(path, lambda fh: parse_cbt(fh.read(), lowercase))


def _parse_cbt_block(lines: list[str], ordinal: int, lowercase: bool) -> ClozeSample:
    where = f"sample {ordinal}"
    if len(lines) != CBT_LINES:
        raise ParseError(f"{where}: expected {CBT_LINES} lines, got {len(lines)}")
    document: list[str] = []
    for number, line in enumerate(lines[:-1], 1):
        prefix, _, rest = line.partition(" ")
        if prefix != str(number):
            raise ParseError(f"{where}: line numbered {prefix!r} where {number} was expected")
        document.extend(rest.split())

    prefix, _, rest = lines[-1].partition(" ")
    if prefix != str(CBT_LINES):
        raise ParseError(f"{where}: final line numbered {prefix!r}, expected {CBT_LINES}")
    fields = [f.strip() for f in rest.split("\t")]
    fields = [f for f in fields if f]
    if len(fields) != 3:
        raise ParseError(
            f"{where}: final line needs query, answer and candidates "
            f"in tab-separated fields, got {len(fields)} non-empty fields"
        )
    query = [PLACEHOLDER if tok == CBT_BLANK else tok for tok in fields[0].split()]
    answer = fields[1]
    candidates = fields[2].split("|")
    if any(not c for c in candidates):
        raise ParseError(f"{where}: empty candidate in {fields[2]!r}")
    if len(candidates) != CBT_CANDIDATES:
        raise ParseError(
            f"{where}: expected {CBT_CANDIDATES} candidates, got {len(candidates)}"
        )
    if lowercase:
        document = [t.lower() for t in document]
        query = [t.lower() for t in query]
        candidates = [c.lower() for c in candidates]
        answer = answer.lower()
    return _build_sample(document, query, candidates, answer, where)


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


def json_object(raw: str, where: str) -> dict:
    """The JSON object on one line; invalid JSON or a value that is not
    an object raises ParseError naming `where`."""
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ParseError(f"{where}: record is not an object")
    return record


def samples_from_jsonl(lines: Iterable[str]) -> list[ClozeSample]:
    samples = []
    for number, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        where = f"line {number}"
        record = json_object(raw, where)
        for key in ("document", "query", "candidates"):
            if key not in record:
                raise ParseError(f"{where}: missing key {key!r}")
            if not isinstance(record[key], list):
                raise ParseError(f"{where}: {key!r} must be a list of tokens")
        answer = record.get("answer")
        if answer is not None and not isinstance(answer, str):
            raise ParseError(f"{where}: 'answer' must be a string or null")
        samples.append(
            _build_sample(record["document"], record["query"], record["candidates"], answer, where)
        )
    return samples


def load_jsonl(path) -> list[ClozeSample]:
    return _load(path, samples_from_jsonl)


def sample_to_record(sample: ClozeSample) -> dict:
    return {
        "document": sample.document,
        "query": sample.query,
        "candidates": sample.candidates,
        "answer": sample.answer,
    }


def dump_jsonl(samples: Sequence[ClozeSample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_record(sample), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


class Vocabulary:
    """Token and character id maps.

    Word ids: 0 padding, 1 unknown, 2 the placeholder, then corpus
    tokens ordered by (-frequency, token). Character ids: 0 padding,
    1 unknown, then corpus characters in the same order. Id 0 is
    reserved for padding in both tables and maps to an all-zero
    embedding row.
    """

    def __init__(self, words: list[str], chars: list[str]):
        self.id_to_word = [*RESERVED_WORDS, *words]
        self.id_to_char = [PAD_TOKEN, UNK_TOKEN] + list(chars)
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        self.char_to_id = {c: i for i, c in enumerate(self.id_to_char)}
        if len(self.word_to_id) != len(self.id_to_word):
            raise ContractViolation("duplicate tokens in vocabulary")
        if len(self.char_to_id) != len(self.id_to_char):
            raise ContractViolation("duplicate characters in vocabulary")

    @property
    def word_size(self) -> int:
        return len(self.id_to_word)

    @property
    def char_size(self) -> int:
        return len(self.id_to_char)

    def word_id(self, token: str) -> int:
        return self.word_to_id.get(token, UNK_ID)

    def char_ids(self, token: str) -> list[int]:
        return [self.char_to_id.get(ch, UNK_ID) for ch in token]


def build_vocab(splits, min_count: int = 1) -> Vocabulary:
    """Count tokens in the training split and build both id maps.

    splits is an iterable of DatasetSplits; only those named "train"
    contribute, and there must be one. min_count filters words;
    characters are always kept. Tokens spelled like a reserved word
    (RESERVED_WORDS) are not counted, so each maps to its reserved id.
    """
    source = [s for s in splits if s.name == "train"]
    if not source:
        raise ConfigError("build_vocab needs a split named 'train'")

    word_counts: dict[str, int] = {}
    char_counts: dict[str, int] = {}
    for split in source:
        for sample in split.samples:
            for token in list(sample.document) + list(sample.query):
                if token in RESERVED_WORDS:
                    continue
                word_counts[token] = word_counts.get(token, 0) + 1
                for ch in token:
                    char_counts[ch] = char_counts.get(ch, 0) + 1
    words = sorted(
        (t for t, c in word_counts.items() if c >= min_count),
        key=lambda t: (-word_counts[t], t),
    )
    chars = sorted(char_counts, key=lambda c: (-char_counts[c], c))
    return Vocabulary(words, chars)


def save_vocab(vocab: Vocabulary, path) -> None:
    """Dump both id maps as UTF-8 "token<TAB>id" lines.

    The word map goes to path, the character map to path + ".chars".
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i, w in enumerate(vocab.id_to_word):
            fh.write(f"{w}\t{i}\n")
    with open(f"{path}.chars", "w", encoding="utf-8") as fh:
        for i, c in enumerate(vocab.id_to_char):
            fh.write(f"{c}\t{i}\n")


def _read_vocab_file(path) -> list[str]:
    lines: dict[str, int] = {}  # token -> line of its entry, in id order
    with open_text(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            token, sep, ident = line.rpartition("\t")
            if not sep or not ident.isdigit():
                raise ParseError(f"{path} line {number}: expected 'token<TAB>id'")
            if int(ident) != len(lines):
                raise ParseError(
                    f"{path} line {number}: id {ident} out of order (expected {len(lines)})"
                )
            first = lines.setdefault(token, number)
            if first != number:
                raise ParseError(f"{path} line {number}: token {token!r} repeats line {first}")
    return list(lines)


def load_vocab(path) -> Vocabulary:
    words = _read_vocab_file(path)
    chars = _read_vocab_file(f"{path}.chars")
    if words[:3] != list(RESERVED_WORDS) or chars[:2] != [PAD_TOKEN, UNK_TOKEN]:
        raise ParseError(f"{path}: vocabulary files lack the reserved leading entries")
    return Vocabulary(words[3:], chars[2:])


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """generate_synthetic's settings; `gen-synth` has one flag per field."""

    samples: int = 50
    vocab_size: int = 40
    doc_len: tuple[int, int] = (15, 25)
    qry_len: tuple[int, int] = (5, 9)
    candidates: int = 4
    seed: int = 0


def generate_synthetic(config: SynthConfig) -> list[ClozeSample]:
    """Deterministically generate a solvable cloze corpus.

    The vocabulary is split into candidate tokens, per-candidate
    signature tokens and filler. Each document embeds every candidate
    once, preceded by its signature; the query puts the answer's
    signature directly before the placeholder. The answer is therefore
    recoverable from the query context around the placeholder.
    """
    pool = config.vocab_size // 4
    if config.candidates > pool:
        raise ConfigError(
            f"cannot draw {config.candidates} candidates from a pool of {pool} "
            f"(vocab_size {config.vocab_size})"
        )
    if config.doc_len[0] < 2 * config.candidates + 1:
        raise ConfigError(
            f"doc_len minimum {config.doc_len[0]} too short for "
            f"{config.candidates} signature/candidate pairs"
        )
    if config.qry_len[0] < 2:
        raise ConfigError("qry_len minimum must be at least 2")
    if config.samples < 1:
        raise ConfigError("samples must be positive")
    if config.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {config.seed}")
    for name in ("doc_len", "qry_len"):
        lo, hi = getattr(config, name)
        if lo > hi:
            raise ConfigError(f"{name} minimum {lo} exceeds its maximum {hi}")

    types = [f"w{i:02d}" for i in range(config.vocab_size)]
    cand_pool = types[:pool]
    sig_pool = types[pool : 2 * pool]
    filler = types[2 * pool :]

    rng = np.random.default_rng(config.seed)
    out: list[ClozeSample] = []
    for _ in range(config.samples):
        cand_ids = rng.choice(pool, size=config.candidates, replace=False)
        answer_pos = int(rng.integers(config.candidates))
        n = int(rng.integers(config.doc_len[0], config.doc_len[1] + 1))
        m = int(rng.integers(config.qry_len[0], config.qry_len[1] + 1))

        document = [filler[int(rng.integers(len(filler)))] for _ in range(n)]
        slots = rng.choice(n // 2, size=config.candidates, replace=False)
        for j, slot in enumerate(slots):
            document[2 * slot] = sig_pool[cand_ids[j]]
            document[2 * slot + 1] = cand_pool[cand_ids[j]]

        query = [filler[int(rng.integers(len(filler)))] for _ in range(m)]
        ph = int(rng.integers(1, m))
        query[ph] = PLACEHOLDER
        query[ph - 1] = sig_pool[cand_ids[answer_pos]]

        out.append(
            ClozeSample(
                document=document,
                query=query,
                candidates=[cand_pool[i] for i in cand_ids],
                answer=cand_pool[cand_ids[answer_pos]],
                placeholder_index=ph,
            ).validate()
        )
    return out
