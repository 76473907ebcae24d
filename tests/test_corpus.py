"""Corpus tests: CBT and JSONL parsing, invariants, vocabulary
construction, and the synthetic generator."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgreader.corpus import (
    PAD_ID,
    PLACEHOLDER,
    PLACEHOLDER_ID,
    UNK_ID,
    ClozeSample,
    DatasetSplit,
    SynthConfig,
    build_vocab,
    dump_jsonl,
    generate_synthetic,
    load_jsonl,
    load_vocab,
    parse_cbt,
    samples_from_jsonl,
    save_vocab,
)
from dgreader.errors import ConfigError, ContractViolation, ParseError

DATA = Path(__file__).parent / "data"


def small_block(query="the XXXXX sat here", answer="cat", cands=None):
    """A minimal valid CBT block for mutation tests."""
    doc_words = "cat dog bird fish cow pig hen fox owl bee".split()
    lines = [f"{i} the {doc_words[(i - 1) % 10]} ran".format(i=i) for i in range(1, 21)]
    cands = cands or "|".join(doc_words)
    lines.append(f"21 {query}\t{answer}\t\t{cands}")
    return "\n".join(lines)


class TestParseCBT:
    def test_golden_file_structure(self):
        samples = parse_cbt((DATA / "rule_example.cbt").read_text(), lowercase=False)
        assert len(samples) == 1
        s = samples[0]
        assert s.answer == "Skunk"
        assert len(s.candidates) == 10
        assert s.query[s.placeholder_index] == PLACEHOLDER
        assert s.query[:3] == ["If", "Jimmy", PLACEHOLDER]
        assert s.document[:4] == ["Instead", "of", "answering", ","]

    def test_lowercase_mode(self):
        samples = parse_cbt((DATA / "rule_example.cbt").read_text(), lowercase=True)
        s = samples[0]
        assert s.answer == "skunk"
        assert "jimmy" in s.candidates
        assert s.query[s.placeholder_index] == PLACEHOLDER  # marker is never case-mangled

    def test_multiple_blocks_and_ordinals(self):
        text = small_block() + "\n\n" + small_block(query="a XXXXX b", answer="dog")
        samples = parse_cbt(text)
        assert len(samples) == 2
        assert samples[1].answer == "dog"

    def test_empty_input_warns_and_returns_nothing(self):
        with pytest.warns(UserWarning, match="no samples"):
            assert parse_cbt("") == []

    def test_wrong_line_count(self):
        text = "\n".join(small_block().splitlines()[:15])
        with pytest.raises(ParseError, match="sample 1.*21 lines"):
            parse_cbt(text)

    def test_bad_line_number(self):
        lines = small_block().splitlines()
        lines[4] = "99 " + lines[4].partition(" ")[2]
        with pytest.raises(ParseError, match="sample 1.*99"):
            parse_cbt("\n".join(lines))

    def test_missing_placeholder(self):
        with pytest.raises(ParseError, match="sample 1.*exactly once"):
            parse_cbt(small_block(query="no marker here"))

    def test_wrong_candidate_count(self):
        with pytest.raises(ParseError, match="sample 1.*10 candidates"):
            parse_cbt(small_block(cands="cat|dog|bird"))

    def test_answer_not_in_candidates(self):
        with pytest.raises(ParseError, match="sample 1.*answer"):
            parse_cbt(small_block(answer="zebra"))

    def test_error_names_second_sample(self):
        text = small_block() + "\n\n" + small_block(answer="zebra")
        with pytest.raises(ParseError, match="sample 2"):
            parse_cbt(text)

    def test_only_newlines_end_a_line(self):
        # str.splitlines would also split at these; CBT splits tokens at them instead
        lines = small_block().splitlines()
        lines[0] = "1 the cat\x1cran\x85off\u2028far"
        (sample,) = parse_cbt("\n".join(lines))
        assert sample.document[:5] == ["the", "cat", "ran", "off", "far"]

    def test_duplicate_candidates_collapse_with_warning(self):
        cands = "cat|cat|dog|bird|fish|cow|pig|hen|fox|owl"
        with pytest.warns(UserWarning, match="duplicate"):
            samples = parse_cbt(small_block(cands=cands))
        assert samples[0].candidates.count("cat") == 1
        assert len(samples[0].candidates) == 9


class TestJSONL:
    def test_roundtrip_identity(self, tmp_path):
        samples = generate_synthetic(SynthConfig(samples=12, seed=3))
        path = tmp_path / "data.jsonl"
        dump_jsonl(samples, path)
        assert load_jsonl(path) == samples

    def test_line_separator_inside_a_token_is_kept(self, tmp_path):
        # dump_jsonl writes U+2028 and U+0085 unescaped, so only newlines may end a record
        token = "a\u2028b\x85c"
        sample = ClozeSample([token, "d"], [token, PLACEHOLDER], ["d"], "d", 1).validate()
        path = tmp_path / "data.jsonl"
        dump_jsonl([sample], path)
        assert load_jsonl(path) == [sample]

    def test_answer_may_be_absent(self):
        line = json.dumps(
            {"document": ["a", "b"], "query": ["x", PLACEHOLDER], "candidates": ["a", "b"]}
        )
        (sample,) = samples_from_jsonl([line])
        assert sample.answer is None

    def test_error_carries_line_number(self):
        good = json.dumps(
            {"document": ["a"], "query": [PLACEHOLDER], "candidates": ["a"], "answer": "a"}
        )
        bad = json.dumps(
            {"document": ["a"], "query": [PLACEHOLDER], "candidates": ["b"], "answer": "b"}
        )
        with pytest.raises(ParseError, match="line 3"):
            samples_from_jsonl([good, "", bad])

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError, match="line 1.*JSON"):
            samples_from_jsonl(["{not json"])

    def test_multi_token_candidate_rejected(self):
        line = json.dumps(
            {
                "document": ["new", "york"],
                "query": [PLACEHOLDER],
                "candidates": ["new york"],
            }
        )
        with pytest.raises(ParseError, match="single"):
            samples_from_jsonl([line])

    def test_duplicate_candidates_collapse(self):
        line = json.dumps(
            {"document": ["a", "b"], "query": [PLACEHOLDER], "candidates": ["a", "a", "b"]}
        )
        with pytest.warns(UserWarning, match="duplicate"):
            (sample,) = samples_from_jsonl([line])
        assert sample.candidates == ["a", "b"]


class TestSampleValidation:
    def base(self):
        return dict(
            document=["x", "y", "z"],
            query=["q", PLACEHOLDER],
            candidates=["x", "y"],
            answer="x",
            placeholder_index=1,
        )

    def test_valid_sample_passes(self):
        ClozeSample(**self.base()).validate()

    def test_two_placeholders_rejected(self):
        kw = self.base()
        kw["query"] = [PLACEHOLDER, PLACEHOLDER]
        kw["placeholder_index"] = 0
        with pytest.raises(ContractViolation, match="exactly once"):
            ClozeSample(**kw).validate()

    def test_candidate_absent_from_document_rejected(self):
        kw = self.base()
        kw["candidates"] = ["x", "missing"]
        with pytest.raises(ContractViolation, match="missing"):
            ClozeSample(**kw).validate()

    def test_empty_document_rejected(self):
        kw = self.base()
        kw["document"] = []
        with pytest.raises(ContractViolation, match="document"):
            ClozeSample(**kw).validate()


class TestVocabulary:
    def split(self):
        samples = [
            ClozeSample(["b", "a", "b"], ["a", PLACEHOLDER], ["a", "b"], "a", 1).validate(),
            ClozeSample(["b", "c"], ["c", PLACEHOLDER], ["b", "c"], "b", 1).validate(),
        ]
        return DatasetSplit("train", samples)

    def test_reserved_ids(self):
        vocab = build_vocab([self.split()])
        assert vocab.word_to_id["<pad>"] == PAD_ID
        assert vocab.word_to_id["<unk>"] == UNK_ID
        assert vocab.word_to_id[PLACEHOLDER] == PLACEHOLDER_ID
        assert vocab.char_to_id["<pad>"] == PAD_ID

    def test_frequency_then_token_order(self):
        vocab = build_vocab([self.split()])
        # counts: b=3, a=2, c=2 -> b first, then a before c on the tie
        assert vocab.id_to_word[3:6] == ["b", "a", "c"]

    def test_min_count_filters_words_only(self):
        vocab = build_vocab([self.split()], min_count=3)
        assert vocab.id_to_word[3:] == ["b"]
        assert set(vocab.id_to_char[2:]) == {"a", "b", "c"}

    def test_unknown_maps_to_unk(self):
        vocab = build_vocab([self.split()])
        assert vocab.word_id("never-seen") == UNK_ID
        assert vocab.word_id(PLACEHOLDER) == PLACEHOLDER_ID

    def test_only_train_split_contributes(self):
        dev = DatasetSplit(
            "dev", [ClozeSample(["zz"], [PLACEHOLDER], ["zz"], None, 0).validate()]
        )
        vocab = build_vocab([self.split(), dev])
        assert "zz" not in vocab.word_to_id

    def test_no_train_split_rejected(self):
        dev = DatasetSplit("dev", self.split().samples)
        with pytest.raises(ConfigError, match="split named 'train'"):
            build_vocab([dev])

    @pytest.mark.parametrize("suffix", ["", ".chars"], ids=["words", "chars"])
    def test_repeated_token_names_file_line_and_first_line(self, tmp_path, suffix):
        path = tmp_path / "vocab.txt"
        save_vocab(build_vocab([self.split()]), path)
        target = Path(f"{path}{suffix}")
        lines = target.read_text(encoding="utf-8").splitlines()
        first = 1 + [line.split("\t")[0] for line in lines].index("b")
        target.write_text("\n".join(lines + [f"b\t{len(lines)}"]) + "\n", encoding="utf-8")
        message = f"{target} line {len(lines) + 1}: token 'b' repeats line {first}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_vocab(path)

    def test_roundtrip_through_dump(self, tmp_path):
        vocab = build_vocab([self.split()])
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_word == vocab.id_to_word
        assert loaded.id_to_char == vocab.id_to_char
        first = path.read_text().splitlines()[0]
        assert first == "<pad>\t0"


class TestSynthetic:
    def test_deterministic_for_seed(self):
        cfg = SynthConfig(samples=20, seed=11)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SynthConfig(samples=20, seed=1))
        b = generate_synthetic(SynthConfig(samples=20, seed=2))
        assert a != b

    def test_invariants_and_requested_shape(self):
        cfg = SynthConfig(samples=50, vocab_size=40, doc_len=(15, 25), qry_len=(5, 9), candidates=4)
        samples = generate_synthetic(cfg)
        assert len(samples) == 50
        for s in samples:
            s.validate()
            assert 15 <= len(s.document) <= 25
            assert 5 <= len(s.query) <= 9
            assert len(s.candidates) == 4

    def test_signature_precedes_placeholder(self):
        # the generative rule the reader is supposed to learn
        for s in generate_synthetic(SynthConfig(samples=10, seed=5)):
            sig = s.query[s.placeholder_index - 1]
            pos = s.document.index(s.answer)
            assert s.document[pos - 1] == sig

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError, match="pool"):
            generate_synthetic(SynthConfig(samples=1, vocab_size=8, candidates=5))
        with pytest.raises(ConfigError, match="doc_len"):
            generate_synthetic(SynthConfig(samples=1, doc_len=(5, 8), candidates=4))


@settings(max_examples=60, deadline=None)
@given(
    doc=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
    cands=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=4, unique=True),
    ph=st.integers(min_value=0, max_value=3),
)
def test_validation_accepts_iff_invariants_hold(doc, cands, ph):
    """Property: validate() accepts exactly the samples whose invariants
    hold, independent of how the fields were produced."""
    query = ["q0", "q1", "q2", "q3"]
    query[ph] = PLACEHOLDER
    answer = cands[0]
    ok = all(c in doc for c in cands)
    sample = ClozeSample(doc, query, list(cands), answer, ph)
    if ok:
        sample.validate()
    else:
        with pytest.raises(ContractViolation):
            sample.validate()
