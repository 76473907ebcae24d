"""Acceptance suite. Each test covers one shipping criterion at its
stated tolerance and prints a single pass/fail line.

Criteria: (1) finite-difference gradient integrity across the ablation
lattice, (2) equivalence with an independent degenerate-configuration
reference, (3) normalization invariants of attention and the answer
distributions, (4) padding invariance, (5) learnability of the synthetic
task by the full and the baseline configuration, (6) the rule-based
solver's golden case and branches, (7) the exact McNemar tail against
full enumeration, (8) determinism and checkpoint persistence, (9) data
contract enforcement under fuzzing.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dgreader.analysis import mcnemar_exact, mcnemar_one_sided
from dgreader.autodiff import Tape, backward, load_checkpoint, restore_parameters
from dgreader.corpus import (
    PLACEHOLDER,
    ClozeSample,
    DatasetSplit,
    SynthConfig,
    build_vocab,
    generate_synthetic,
    parse_cbt,
    sample_to_record,
    samples_from_jsonl,
)
from dgreader.embed import EmbedConfig
from dgreader.errors import ParseError
from dgreader.gradcheck import check_gradients
from dgreader.model import Model, assemble_batch
from dgreader.ranker import predict
from dgreader.reader import (
    ABLATION_PRESETS,
    ReaderConfig,
    ReaderParams,
    attend,
    encode_full,
)
from dgreader.rulekit import STATUS_AMBIGUOUS, STATUS_NO_ANCHOR, STATUS_SOLVED, disambiguate
from dgreader.trainer import HyperParams, evaluate, train

from ga_reference import ga_encode, random_embeddings, suffix_mask
from oracles import aggregate_candidates, find_occurrences, token_distribution

DATA = Path(__file__).parent / "data"


@pytest.fixture
def report(capfd):
    """One pass/fail line per criterion, emitted past pytest's capture."""

    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
        with capfd.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return _report


def tiny_world(seed, **synth_kw):
    synth_kw.setdefault("samples", 2)
    synth_kw.setdefault("vocab_size", 16)
    synth_kw.setdefault("doc_len", (7, 12))
    synth_kw.setdefault("qry_len", (4, 6))
    synth_kw.setdefault("candidates", 3)
    samples = generate_synthetic(SynthConfig(seed=seed, **synth_kw))
    vocab = build_vocab([DatasetSplit("train", samples)])
    return samples, vocab


def test_criterion_1_gradient_integrity_across_ablations(report):
    # tiny model: hidden 8, char output 6, two attention hops, documents
    # up to 12 tokens, queries up to 6, three candidates
    started = time.perf_counter()
    samples, vocab = tiny_world(seed=11)
    batch = assemble_batch(samples, vocab)
    worst = {}
    for preset in sorted(ABLATION_PRESETS):
        cfg = ReaderConfig.from_preset(preset, hops=2, hidden=8, qe_comm=True)
        model = Model(
            vocab,
            EmbedConfig(word_dim=3, char_dim=3, char_hidden=4, char_out=6),
            cfg,
            np.random.default_rng(101),
        )

        def loss_fn():
            return float(model.forward_batch(batch).loss.data)

        result = model.forward_batch(batch)
        grads = backward(result.tape, result.loss)
        check = check_gradients(loss_fn, model.parameters(), grads)
        worst[preset] = check.max_rel_error
        assert check.passed, f"{preset}: {check.summary()}"
    elapsed = time.perf_counter() - started
    top = max(worst.values())
    report(
        1,
        top < 1e-4 and elapsed < 120.0,
        f"gradient check over {len(worst)} ablation configs, "
        f"max rel error {top:.3e} < 1e-4, {elapsed:.1f}s < 120s",
    )


def test_criterion_2_degenerate_config_matches_reference(report):
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        hops = int(rng.integers(1, 4))
        hidden = int(rng.integers(1, 4)) * 2
        dim = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 6))
        b = int(rng.integers(1, 3))
        use_qe = bool(i % 2)
        cfg = ReaderConfig.from_preset("ga-reader", hops=hops, hidden=hidden, qe_comm=use_qe)
        params = ReaderParams.create(rng, cfg, dim)
        doc, qry = random_embeddings(rng, b, n, m, dim)
        dmask = suffix_mask(rng, b, n)
        qmask = suffix_mask(rng, b, m)
        qe = (rng.random((b, n)) > 0.5).astype(float) if use_qe else None

        tape = Tape()
        got_d, got_q, _ = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, dmask, qmask, qe
        )
        exp_d, exp_q = ga_encode(doc, qry, params, hops, dmask, qmask, qe)
        worst = max(
            worst,
            float(np.abs(got_d.data - exp_d).max()),
            float(np.abs(got_q.data - exp_q).max()),
        )
    report(2, worst <= 1e-12, f"flags-off output vs independent reference on 100 instances, max abs diff {worst:.2e} <= 1e-12")


def brute_force_aggregate(y, doc_tokens, candidates):
    sums = {}
    for cand in candidates:
        total = 0.0
        for position, token in enumerate(doc_tokens):
            if token == cand:
                total = total + y[position]
        sums[cand] = total
    denom = 0.0
    for cand in candidates:
        denom = denom + sums[cand]
    return {cand: sums[cand] / denom for cand in candidates}


def test_criterion_3_normalization_invariants(report):
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    exact_matches = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, 6))
        r = int(rng.integers(2, 7))
        doc = rng.normal(size=(1, n, r))
        qry = rng.normal(size=(1, m, r))
        dmask = suffix_mask(rng, 1, n)
        qmask = suffix_mask(rng, 1, m)

        # attending identity values returns the attention weights as is
        tape = Tape()
        e = tape.matmul(tape.constant(doc), tape.transpose_last2(tape.constant(qry)))
        att_doc = attend(e, tape.constant(np.eye(m)[None]), qmask).data
        att_qry = attend(tape.transpose_last2(e), tape.constant(np.eye(n)[None]), dmask).data
        worst_sum = max(worst_sum, float(np.abs(att_doc.sum(-1) - 1.0).max()))
        worst_sum = max(worst_sum, float(np.abs(att_qry.sum(-1) - 1.0).max()))

        live = int(dmask[0].sum())
        ph = int(rng.integers(0, max(int(qmask[0].sum()), 1)))
        y = token_distribution(doc[0], qry[0], ph, dmask[0])
        worst_sum = max(worst_sum, abs(float(y.sum()) - 1.0))

        alphabet = [f"t{k}" for k in range(4)]
        tokens = [alphabet[k] for k in rng.integers(0, 4, size=live)]
        cands = sorted(set(tokens))
        occ = find_occurrences(tokens, cands)
        probs = aggregate_candidates(y[:live], occ)
        worst_sum = max(worst_sum, abs(sum(probs.values()) - 1.0))
        exact_matches += probs == brute_force_aggregate(y[:live], tokens, cands)
    report(
        3,
        worst_sum <= 1e-9 and exact_matches == 1000,
        f"attention/token/candidate sums within {worst_sum:.2e} of 1 on 1000 instances; "
        f"aggregation equals brute force exactly on {exact_matches}/1000",
    )


def test_criterion_4_masking_invariance(report):
    rng = np.random.default_rng(404)
    worst = 0.0
    predictions_changed = 0
    cfg = ReaderConfig(hops=2, hidden=6, qe_comm=False).validate()
    for _ in range(100):
        dim = 4
        n = int(rng.integers(4, 11))
        m = int(rng.integers(3, 6))
        params = ReaderParams.create(rng, cfg, dim)
        doc, qry = random_embeddings(rng, 1, n, m, dim)

        tape = Tape()
        base_d, base_q, _ = encode_full(
            tape.constant(doc), tape.constant(qry), cfg, params, np.ones((1, n)), np.ones((1, m))
        )

        pad_d = int(rng.integers(0, 9))
        pad_q = int(rng.integers(0, 9))
        doc_p = np.concatenate([doc, rng.normal(size=(1, pad_d, dim))], axis=1)
        qry_p = np.concatenate([qry, rng.normal(size=(1, pad_q, dim))], axis=1)
        dmask = np.concatenate([np.ones((1, n)), np.zeros((1, pad_d))], axis=1)
        qmask = np.concatenate([np.ones((1, m)), np.zeros((1, pad_q))], axis=1)
        long_d, long_q, _ = encode_full(
            tape.constant(doc_p), tape.constant(qry_p), cfg, params, dmask, qmask
        )
        worst = max(worst, float(np.abs(long_d.data[0, :n] - base_d.data[0]).max()))
        worst = max(worst, float(np.abs(long_q.data[0, :m] - base_q.data[0]).max()))

        ph = int(rng.integers(0, m))
        y_base = token_distribution(base_d.data[0], base_q.data[0], ph)
        y_long = token_distribution(long_d.data[0], long_q.data[0], ph, dmask[0])
        worst = max(worst, float(np.abs(y_long[:n] - y_base).max()))

        tokens = [f"t{k}" for k in rng.integers(0, 3, size=n)]
        cands = sorted(set(tokens))
        occ = find_occurrences(tokens, cands)
        pred_base = predict(aggregate_candidates(y_base, occ))
        pred_long = predict(aggregate_candidates(y_long[:n], occ))
        predictions_changed += pred_base != pred_long
    report(
        4,
        worst < 1e-9 and predictions_changed == 0,
        f"padding up to 8 tokens moved encodings/distributions by {worst:.2e} < 1e-9 "
        f"and changed 0/100 predictions",
    )


def test_criterion_5_learnability_of_synthetic_task(report):
    started = time.perf_counter()
    samples = generate_synthetic(
        SynthConfig(samples=50, vocab_size=40, doc_len=(15, 25), qry_len=(5, 9),
                    candidates=4, seed=0)
    )
    vocab = build_vocab([DatasetSplit("train", samples)])
    outcomes = {}
    for preset, target in (("dgr", 1.0), ("ga-reader", 0.95)):
        model = Model(
            vocab,
            EmbedConfig(word_dim=16, char_dim=8, char_hidden=8, char_out=8),
            ReaderConfig.from_preset(preset, hops=2, hidden=32),
            np.random.default_rng(1),
        )
        hp = HyperParams(lr=0.0005, dropout=0.0, batch_size=16, epochs=300,
                         patience=300, seed=2, target_train_acc=target)
        result = train(model, samples, samples, hp)
        accuracy = evaluate(model, samples, 16).accuracy
        outcomes[preset] = (result.reached_target, result.epochs_run, accuracy)
        assert result.reached_target, (
            f"{preset} reached {accuracy:.2%} after {result.epochs_run} epochs"
        )
        assert accuracy >= target
    elapsed = time.perf_counter() - started
    detail = ", ".join(
        f"{preset} hit {acc:.0%} in {epochs} epochs"
        for preset, (_, epochs, acc) in outcomes.items()
    )
    report(5, elapsed < 600.0, f"{detail}; {elapsed:.1f}s < 600s")


def test_criterion_6_rule_golden_case_and_branches(report):
    golden = parse_cbt((DATA / "rule_example.cbt").read_text(encoding="utf-8"),
                       lowercase=False)[0]
    decision = disambiguate(golden)
    solved = decision.status == STATUS_SOLVED and decision.answer == "Skunk"

    no_anchor = disambiguate(
        ClozeSample(
            document=["Ann", "went", "home"],
            query=["then", "@placeholder", "slept"],
            candidates=["Ann", "home"],
            answer="Ann",
            placeholder_index=1,
        ).validate()
    )
    ambiguous = disambiguate(
        ClozeSample(
            document=["Rex", "Barker", "barked", "up", "Barker"],
            query=["the", "@placeholder", "Barker", "ran"],
            candidates=["Rex", "up"],
            answer="Rex",
            placeholder_index=1,
        ).validate()
    )
    ok = (
        solved
        and no_anchor.status == STATUS_NO_ANCHOR
        and ambiguous.status == STATUS_AMBIGUOUS
        and len(ambiguous.survivors) == 2
    )
    report(
        6,
        ok,
        f"golden sample solved as {decision.answer!r}; no-anchor and ambiguous "
        f"branches exercised",
    )


def enumerate_tail(b, c):
    n = b + c
    outcomes = np.arange(2 ** n, dtype=np.uint32)
    heads = np.zeros(2 ** n, dtype=np.uint32)
    for bit in range(n):
        heads += (outcomes >> bit) & 1
    return int((heads >= b).sum()) / 2 ** n


def test_criterion_7_mcnemar_exact_tail(report):
    golden = mcnemar_exact(10, 2)
    golden_ok = abs(golden - 79 / 4096) <= 1e-12

    # same counts reached through aligned prediction dumps
    flags_a = [True] * 10 + [False] * 2 + [True, False]
    flags_b = [False] * 10 + [True] * 2 + [True, False]
    records_a = [
        {"sample_id": f"s{i}", "gold": "x", "correct": flag}
        for i, flag in enumerate(flags_a)
    ]
    records_b = [
        {"sample_id": f"s{i}", "gold": "x", "correct": flag}
        for i, flag in enumerate(flags_b)
    ]
    paired = mcnemar_one_sided(records_a, records_b)
    golden_ok = (
        golden_ok
        and (paired.b, paired.c) == (10, 2)
        and abs(paired.p_value - 79 / 4096) <= 1e-12
    )
    mismatches = 0
    checked = 0
    for n in range(0, 21):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for b in range(n + 1):
                checked += 1
                if mcnemar_exact(b, n - b) != enumerate_tail(b, n - b):
                    mismatches += 1
    report(
        7,
        golden_ok and mismatches == 0,
        f"p(b=10,c=2) = {golden:.6g} = 79/4096; enumeration sweep matched "
        f"{checked - mismatches}/{checked} (b, c) pairs with b+c <= 20",
    )


class TickTimer:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_criterion_8_determinism_and_persistence(report, tmp_path):
    samples, vocab = tiny_world(seed=8, samples=16, doc_len=(8, 12))

    def run(tag):
        model = Model(
            vocab,
            EmbedConfig(word_dim=8, char_dim=4, char_hidden=4, char_out=4),
            ReaderConfig(hops=1, hidden=8).validate(),
            np.random.default_rng(30),
        )
        log = tmp_path / f"log_{tag}.csv"
        ckpt = tmp_path / f"model_{tag}.ckpt"
        hp = HyperParams(lr=0.01, dropout=0.1, batch_size=8, epochs=6, patience=6, seed=31)
        result = train(model, samples, samples, hp, log_path=log,
                       checkpoint_path=ckpt, timer=TickTimer())
        return model, result, log, ckpt

    model_a, result_a, log_a, ckpt_a = run("a")
    model_b, result_b, log_b, ckpt_b = run("b")
    logs_identical = log_a.read_bytes() == log_b.read_bytes()

    fresh = Model(
        vocab,
        EmbedConfig(word_dim=8, char_dim=4, char_hidden=4, char_out=4),
        ReaderConfig(hops=1, hidden=8).validate(),
        np.random.default_rng(99),
    )
    restore_parameters(fresh.parameters(), load_checkpoint(ckpt_a))
    before = evaluate(model_a, samples, 8)
    after = evaluate(fresh, samples, 8)
    round_trip = before.accuracy == after.accuracy and before.nll == after.nll
    report(
        8,
        logs_identical and round_trip,
        f"identical seeds gave byte-identical logs ({log_a.stat().st_size} bytes); "
        f"checkpoint round trip reproduced accuracy {after.accuracy:.2%} exactly",
    )


VALID_MUTATIONS = ("asis", "drop_answer", "dup_candidate", "shuffle_candidates")
BREAK_MUTATIONS = (
    "empty_document",
    "empty_query",
    "no_placeholder",
    "two_placeholders",
    "bad_placeholder_token",
    "empty_candidates",
    "multiword_candidate",
    "candidate_missing_from_doc",
    "answer_not_candidate",
    "nonstring_token",
    "empty_token",
    "missing_key",
    "candidates_not_list",
    "truncated_json",
)


def fuzz_record(rng, base_samples):
    """One fuzzed JSON line plus whether it must be accepted."""
    sample = base_samples[int(rng.integers(0, len(base_samples)))]
    record = json.loads(json.dumps(sample_to_record(sample)))
    if rng.random() < 0.45:
        op = VALID_MUTATIONS[int(rng.integers(0, len(VALID_MUTATIONS)))]
        if op == "drop_answer":
            record["answer"] = None
        elif op == "dup_candidate":
            record["candidates"] = record["candidates"] + [record["candidates"][0]]
        elif op == "shuffle_candidates":
            order = rng.permutation(len(record["candidates"]))
            record["candidates"] = [record["candidates"][i] for i in order]
        return json.dumps(record), True
    op = BREAK_MUTATIONS[int(rng.integers(0, len(BREAK_MUTATIONS)))]
    if op == "empty_document":
        record["document"] = []
    elif op == "empty_query":
        record["query"] = []
    elif op == "no_placeholder":
        record["query"] = [t for t in record["query"] if t != PLACEHOLDER] or ["w"]
    elif op == "two_placeholders":
        record["query"] = record["query"] + [PLACEHOLDER]
    elif op == "bad_placeholder_token":
        record["query"] = [t if t != PLACEHOLDER else "@plaseholder" for t in record["query"]]
    elif op == "empty_candidates":
        record["candidates"] = []
    elif op == "multiword_candidate":
        record["candidates"] = record["candidates"][:-1] + ["two words"]
        record["answer"] = record["candidates"][0]
    elif op == "candidate_missing_from_doc":
        ghost = "zzghost"
        record["candidates"] = record["candidates"] + [ghost]
    elif op == "answer_not_candidate":
        record["answer"] = "zznotacandidate"
    elif op == "nonstring_token":
        record["document"] = record["document"][:-1] + [17]
    elif op == "empty_token":
        record["document"] = record["document"][:-1] + [""]
    elif op == "missing_key":
        del record[("document", "query", "candidates")[int(rng.integers(0, 3))]]
    elif op == "candidates_not_list":
        record["candidates"] = "w01"
    elif op == "truncated_json":
        return json.dumps(record)[:-5], False
    return json.dumps(record), False


def satisfies_invariants(sample: ClozeSample) -> bool:
    """Independent restatement of the data contract."""
    try:
        docs_ok = sample.document and all(
            isinstance(t, str) and t for t in sample.document
        )
        qry_ok = sample.query and all(isinstance(t, str) and t for t in sample.query)
        one_ph = sample.query.count(PLACEHOLDER) == 1
        idx_ok = one_ph and sample.query[sample.placeholder_index] == PLACEHOLDER
        cands = sample.candidates
        cands_ok = (
            bool(cands)
            and len(set(cands)) == len(cands)
            and all(isinstance(c, str) and c and len(c.split()) == 1 for c in cands)
            and all(c in sample.document for c in cands)
        )
        answer_ok = sample.answer is None or sample.answer in cands
        return bool(docs_ok and qry_ok and one_ph and idx_ok and cands_ok and answer_ok)
    except (TypeError, AttributeError, IndexError):
        return False


def test_criterion_9_data_contract_fuzzing(report):
    rng = np.random.default_rng(909)
    base_samples = generate_synthetic(
        SynthConfig(samples=20, vocab_size=24, doc_len=(8, 14), qry_len=(4, 7),
                    candidates=3, seed=17)
    )
    accepted = rejected = 0
    failures = []
    for i in range(10_000):
        line, must_accept = fuzz_record(rng, base_samples)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parsed = samples_from_jsonl([line])
        except ParseError as error:
            rejected += 1
            if must_accept:
                failures.append(f"record {i} wrongly rejected: {error}")
            elif "line 1" not in str(error):
                failures.append(f"record {i} rejection not located: {error}")
            continue
        accepted += 1
        if not must_accept:
            failures.append(f"record {i} wrongly accepted: {line[:80]}")
        elif not satisfies_invariants(parsed[0]):
            failures.append(f"record {i} accepted but violates invariants")
    ok = not failures and accepted + rejected == 10_000
    detail = (
        f"10000 fuzzed records: {accepted} accepted all satisfying invariants, "
        f"{rejected} rejected all with located errors"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    report(9, ok, detail)
