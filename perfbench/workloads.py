"""Workloads, their phases and the checks that make a wrong program fail.

A run has a set-up step and three phases, each measured by repeating a
fixed unit of work on inputs made from the run's seed:

  train      one ``trainer.train`` call, fixed epochs, early stopping off
  eval       one pass of the ``dgreader predict`` loop over a held-out split
  gradcheck  one ``gradcheck.check_gradients`` call per preset

The workload's own phase (its *primary* phase) takes most of
``--seconds``; the other two phases are companions at the workload's
scale, run so that every end-to-end metric is reported on every
workload. Units of all three are interleaved over the whole run. Every
unit must reproduce the first unit of its phase (its reference) bit for
bit: the program is deterministic for a fixed seed, and in a traced run
this is also the proof that the tracing wrappers change no result.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dgreader import autodiff, corpus, gradcheck, model as model_mod, ranker, trainer
from dgreader.embed import EmbedConfig
from dgreader.reader import ReaderConfig

PRESETS = ("dgr", "ga-reader", "no-a", "no-ab", "no-ac", "no-c")
BATCH_SIZE = 32
GRADCHECK_SAMPLES = 2
GRADCHECK_BUDGET = 48  # entries per preset, smallest trainable parameters first
GRADCHECK_TOLERANCE = 1e-4
PROB_SUM_TOLERANCE = 1e-9
ORACLE_SAMPLES = 16
ORACLE_TOLERANCE = 1e-9
# Host-speed calibration: a fixed slice of numpy and Python work, timed
# between units, and the rate (slices per second) that the reported
# timings are scaled to.
CALIBRATION_SECONDS = 0.1
REFERENCE_RATE = 3000.0
SPEED_INTERVAL = 0.5  # longest stretch of timed operations between two samples


@dataclass(frozen=True)
class Scale:
    """Synthetic corpus shape plus model widths."""

    synth: dict
    embed: EmbedConfig
    hidden: int


# criterion 1 of the acceptance suite
TINY = Scale(
    dict(vocab_size=16, doc_len=(7, 12), qry_len=(4, 6), candidates=3),
    EmbedConfig(word_dim=3, char_dim=3, char_hidden=4, char_out=6),
    hidden=8,
)
# `dgreader gen-synth` and the CLI's default widths
QUICK = Scale(
    dict(vocab_size=40, doc_len=(15, 25), qry_len=(5, 9), candidates=4),
    EmbedConfig(word_dim=16, char_dim=8, char_hidden=8, char_out=8),
    hidden=32,
)
# the EmbedConfig / ReaderConfig defaults
PAPER = Scale(
    dict(vocab_size=400, doc_len=(80, 120), qry_len=(10, 20), candidates=10),
    EmbedConfig(),
    hidden=128,
)


@dataclass(frozen=True)
class Workload:
    name: str
    scale: Scale
    primary: str  # "train", "eval" or "gradcheck"
    train: int  # training samples
    dev: int  # dev samples, evaluated by trainer.train after every epoch
    epochs: int
    heldout: int  # samples per eval pass
    presets: tuple[str, ...]  # gradcheck presets, one unit checks each in turn
    why: str
    eval_share: float = 0.2  # share of --seconds for the eval phase when it is a companion


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-quick", QUICK, "train", train=200, dev=50, epochs=2, heldout=128,
            presets=("dgr",),
            why="quickstart training: tiny matmuls, so per-op and per-step interpreter "
            "overhead dominates; fused scans and fewer tape nodes show here",
        ),
        Workload(
            "train-paper", PAPER, "train", train=32, dev=16, epochs=2, heldout=64,
            presets=("dgr",),
            why="paper-width training: BLAS work, about 8 char rows per distinct type, "
            "and a peak RSS of about 0.7 GiB held by tape lifetime",
            # a paper-width eval batch takes a quarter of a second, and the
            # p90 latency needs enough of them
            eval_share=0.4,
        ),
        Workload(
            "eval-quick", QUICK, "eval", train=64, dev=16, epochs=2, heldout=1000,
            presets=("dgr",),
            why="the predict loop with seeded weights: no backward or optimizer, so "
            "per-sample ranking and recording-free forwards show here",
        ),
        Workload(
            "gradcheck-tiny", TINY, "gradcheck", train=64, dev=16, epochs=2, heldout=128,
            presets=PRESETS,
            why="criterion 1's gradient check over the six presets: batch-2 forwards "
            "that are almost pure per-op overhead",
        ),
    )
}

# Share of --seconds that the train and gradcheck phases spend on timed
# units when they are companions (the eval phase's is the workload's
# eval_share; the primary phase takes the rest), and the fewest timed
# cycles each phase runs when its share is too short for them.
COMPANION_SHARES = {"train": 0.2, "gradcheck": 0.2}
MIN_CYCLES = {"train": 2, "eval": 2, "gradcheck": 1}


def split_seeds(seed: int) -> dict[str, int]:
    """generate_synthetic seed of each split, derived from the run's seed.
    The model is initialized from default_rng([seed, 5]), trainer.train
    gets HyperParams(seed=seed), and the oracle subset is drawn from
    default_rng([seed, 7])."""
    return {"train": 100 * seed + 1, "dev": 100 * seed + 2, "heldout": 100 * seed + 3,
            "gradcheck": 100 * seed + 4}


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict[str, Path]:
    """Generate every split from the seed and write it as JSON lines;
    the program only ever reads these files."""
    seeds = split_seeds(seed)
    sizes = {
        "train": workload.train,
        "dev": workload.dev,
        "heldout": workload.heldout,
        "gradcheck": GRADCHECK_SAMPLES,
    }
    paths = {}
    for split, size in sizes.items():
        synth = dict(workload.scale.synth)
        if split == "gradcheck":
            # Two samples leave the padded shape, and so the cost of a loss
            # evaluation, to chance; the longest document and query make
            # every seed check the same shape.
            synth["doc_len"] = (synth["doc_len"][1],) * 2
            synth["qry_len"] = (synth["qry_len"][1],) * 2
        samples = corpus.generate_synthetic(
            corpus.SynthConfig(samples=size, seed=seeds[split], **synth)
        )
        paths[split] = directory / f"{split}.jsonl"
        corpus.dump_jsonl(samples, paths[split])
    return paths


def new_model(workload: Workload, vocab, preset: str, seed: int):
    reader = ReaderConfig.from_preset(preset, hops=2, hidden=workload.scale.hidden, qe_comm=True)
    return model_mod.Model(vocab, workload.scale.embed, reader, np.random.default_rng([seed, 5]))


class HostSpeed:
    """Speed of the host right now, relative to REFERENCE_RATE.

    A shared VM's speed drifts by up to 2x over minutes, and the guest
    reports no steal time, so a slow spell cannot be told apart from a
    slow program by wall time alone. `sample` times a fixed calibration
    slice that calls nothing of the program: small matmuls with tanh,
    as in a GRU step, and a pure-Python loop. Every timed unit is
    bracketed by two samples, and its seconds are multiplied by their
    mean, so a unit reads as it would on a host that runs the slice at
    REFERENCE_RATE. Units made of many timed operations (eval batches,
    loss evaluations) also sample between operations, at most every
    SPEED_INTERVAL seconds, and each operation is scaled by the samples
    around it. A change to the program cannot move the slice."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((32, 64))
        self.w = 0.1 * rng.standard_normal((64, 64))
        self.last = 1.0
        self.at = time.perf_counter()

    def _slice(self) -> float:
        h = self.x
        for _ in range(20):
            h = np.tanh(h @ self.w)
        total = 0.0
        for i in range(2000):
            total += i * 0.5
        return float(h[0, 0]) + total

    def sample(self) -> float:
        slices = 0
        started = time.perf_counter()
        while True:
            self._slice()
            slices += 1
            elapsed = time.perf_counter() - started
            if elapsed >= CALIBRATION_SECONDS:
                self.last = slices / elapsed / REFERENCE_RATE
                self.at = time.perf_counter()
                return self.last

    def settle(self, unit: "Unit") -> float:
        """Sample, and give the unit's operations since the last sample
        the mean of the two samples; returns the new sample."""
        previous = self.last
        current = self.sample()
        pending = len(unit.op_seconds) - len(unit.op_speeds)
        unit.op_speeds.extend([(previous + current) / 2] * pending)
        return current

    def track(self, unit: "Unit") -> None:
        """Call after each timed operation of a unit."""
        if time.perf_counter() - self.at >= SPEED_INTERVAL:
            self.settle(unit)


class Setup:
    """Loads every split, builds the vocabulary from the training split
    and constructs the model. `again` repeats this, timed, between the
    units of a run, so that `setup_s` samples the whole run; `speeds`
    holds the host speed of each repetition."""

    def __init__(self, workload: Workload, paths: dict[str, Path], seed: int):
        self.workload = workload
        self.paths = paths
        self.seed = seed
        self.seconds: list[float] = []
        self.speeds: list[float] = []
        self.splits, self.vocab = self.again()

    def again(self):
        gc.collect()
        started = time.perf_counter()
        splits = {name: corpus.load_jsonl(path) for name, path in self.paths.items()}
        vocab = corpus.build_vocab(
            [corpus.DatasetSplit("train", splits["train"]), corpus.DatasetSplit("dev", splits["dev"])]
        )
        new_model(self.workload, vocab, "dgr", self.seed)
        self.seconds.append(time.perf_counter() - started)
        return splits, vocab


@dataclass
class Unit:
    seconds: float  # timed region
    work: int  # samples trained or evaluated, or loss evaluations
    ops: int  # optimizer steps, eval batches or loss evaluations
    failed: int = 0
    digest: str = ""
    failures: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)  # each eval batch or loss evaluation
    op_speeds: list[float] = field(default_factory=list)  # host speed for each of op_seconds
    info: dict = field(default_factory=dict)
    speed: float = 1.0  # host speed while the unit ran, see HostSpeed


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


class TrainPhase:
    """One unit: trainer.train from a freshly seeded model for a fixed
    number of epochs, early stopping off."""

    name = "train"
    cycle = 1

    def __init__(self, workload: Workload, setup: Setup, seed: int):
        self.workload = workload
        self.setup = setup
        self.seed = seed
        self.train = setup.splits["train"]
        self.dev = setup.splits["dev"]
        self.steps = math.ceil(len(self.train) / BATCH_SIZE) * workload.epochs

    def unit(self, index: int, tracer, host: HostSpeed | None) -> Unit:
        wl = self.workload
        model = new_model(wl, self.setup.vocab, "dgr", self.seed)
        hp = trainer.HyperParams(
            batch_size=BATCH_SIZE, epochs=wl.epochs, patience=wl.epochs + 1, seed=self.seed
        )
        out = Unit(0.0, len(self.train) * wl.epochs, self.steps)
        started = time.perf_counter()
        try:
            result = trainer.train(model, self.train, self.dev, hp)
        except Exception as exc:  # a failed unit is counted, the run goes on
            out.seconds = time.perf_counter() - started
            out.failed = out.ops
            out.failures.append(f"train raised {type(exc).__name__}: {exc}")
            return out
        out.seconds = time.perf_counter() - started
        losses = [row["train_loss"] for row in result.rows]
        params = sorted(model.parameters(), key=lambda p: p.id)
        out.digest = _digest([np.array(losses)] + [p.data for p in params])
        out.info = {"epoch_losses": losses, "final_train_loss": losses[-1] if losses else None}
        if len(losses) != wl.epochs or result.stopped_early:
            out.failures.append(f"ran {len(losses)} of {wl.epochs} epochs")
        elif not all(math.isfinite(v) for v in losses):
            out.failures.append(f"non-finite epoch loss in {losses}")
        elif not losses[-1] < losses[0]:
            out.failures.append(f"training loss did not fall: {losses}")
        if out.failures:
            out.failed = out.ops
        return out


def oracle_rank(doc_enc, qry_enc, placeholder, document, candidates):
    """Scalar pointer-sum ranking, independent of dgreader.ranker: softmax
    over document positions of doc_enc @ qry_enc[placeholder], each
    candidate's mass summed over its positions in ascending order,
    renormalized; exact ties go to the lexicographically smallest."""
    scores = np.asarray(doc_enc) @ np.asarray(qry_enc)[placeholder]
    top = max(float(s) for s in scores)
    weights = [math.exp(float(s) - top) for s in scores]
    norm = sum(weights)
    y = [w / norm for w in weights]
    raw = {}
    for cand in candidates:
        total = 0.0
        for pos, tok in enumerate(document):
            if tok == cand:
                total += y[pos]
        raw[cand] = total
    denom = sum(raw.values())
    probs = {c: v / denom for c, v in raw.items()}
    return min(probs, key=lambda c: (-probs[c], c)), probs


class EvalPhase:
    """One unit: the `dgreader predict` loop over the held-out split with
    seeded weights (assemble_batch, forward_batch, predict_batch,
    prediction_record), each batch timed on its own."""

    name = "eval"
    cycle = 1

    def __init__(self, workload: Workload, setup: Setup, seed: int):
        self.samples = setup.splits["heldout"]
        self.model = new_model(workload, setup.vocab, "dgr", seed)
        self.batches = math.ceil(len(self.samples) / BATCH_SIZE)
        rng = np.random.default_rng([seed, 7])
        count = min(ORACLE_SAMPLES, len(self.samples))
        self.oracle_subset = sorted(int(i) for i in rng.choice(len(self.samples), count, replace=False))
        self.oracle_checked = 0
        self.last_records: list[dict] = []

    def unit(self, index: int, tracer, host: HostSpeed | None) -> Unit:
        out = Unit(0.0, len(self.samples), self.batches)
        records = []
        for start in range(0, len(self.samples), BATCH_SIZE):
            chunk = self.samples[start:start + BATCH_SIZE]
            began = time.perf_counter()
            try:
                batch = model_mod.assemble_batch(chunk, self.model.vocab)
                dists = self.model.predict_batch(self.model.forward_batch(batch), batch)
                part = [
                    ranker.prediction_record(
                        str(start + i), dist, sample.answer,
                        len(sample.document), len(sample.query),
                    )
                    for i, (sample, dist) in enumerate(zip(chunk, dists))
                ]
            except Exception as exc:  # a failed batch is counted, the pass goes on
                out.op_seconds.append(time.perf_counter() - began)
                out.failed += 1
                out.failures.append(f"batch at {start} raised {type(exc).__name__}: {exc}")
                continue
            out.op_seconds.append(time.perf_counter() - began)
            if host is not None:
                host.track(out)
            bad = [r for r in part if not _distribution_ok(r)]
            if bad or len(part) != len(chunk):
                out.failed += 1
                out.failures.append(f"batch at {start}: {len(bad)} distributions do not sum to 1")
            records.extend(part)
        out.seconds = sum(out.op_seconds)
        digest = hashlib.sha256()
        for r in records:
            digest.update(r["predicted"].encode())
            digest.update(np.array(list(r["candidate_probs"].values())).tobytes())
        out.digest = digest.hexdigest()
        self.last_records = records
        return out

    def check_oracle(self, unit: Unit) -> None:
        """Compare the pass just run with the scalar oracle on single-
        sample (unpadded) encodings of a seeded subset."""
        by_id = {int(r["sample_id"]): r for r in self.last_records}
        for index in self.oracle_subset:
            sample = self.samples[index]
            record = by_id.get(index)
            if record is None:
                continue
            result = self.model.forward_batch(model_mod.assemble_batch([sample], self.model.vocab))
            n, m = len(sample.document), len(sample.query)
            predicted, probs = oracle_rank(
                result.doc_enc.data[0, :n], result.qry_enc.data[0, :m],
                sample.placeholder_index, sample.document, sample.candidates,
            )
            self.oracle_checked += 1
            gap = max(abs(probs[c] - record["candidate_probs"][c]) for c in probs)
            if predicted != record["predicted"] or gap > ORACLE_TOLERANCE:
                unit.failed += 1
                unit.failures.append(
                    f"sample {index}: predicted {record['predicted']!r}, oracle "
                    f"{predicted!r}, max probability gap {gap:.3e}"
                )


def _distribution_ok(record: dict) -> bool:
    probs = list(record["candidate_probs"].values())
    return (
        all(math.isfinite(p) and p >= 0.0 for p in probs)
        and abs(sum(probs) - 1.0) <= PROB_SUM_TOLERANCE
        and record["predicted"] in record["candidate_probs"]
    )


def smallest_parameters(params, budget: int):
    """Trainable parameters in (size, id) order while their entries fit
    the budget; at least one."""
    chosen, used = [], 0
    for p in sorted((p for p in params if p.trainable), key=lambda p: (p.data.size, p.id)):
        if chosen and used + p.data.size > budget:
            break
        chosen.append(p)
        used += p.data.size
    return chosen


class GradcheckPhase:
    """One unit: one preset's seeded model, its analytic gradients (one
    forward and backward) against central differences on its smallest
    trainable parameters. A cycle checks every preset of the workload."""

    name = "gradcheck"

    def __init__(self, workload: Workload, setup: Setup, seed: int):
        self.workload = workload
        self.setup = setup
        self.seed = seed
        self.cycle = len(workload.presets)
        self.batch = model_mod.assemble_batch(setup.splits["gradcheck"], setup.vocab)

    def unit(self, index: int, tracer, host: HostSpeed | None) -> Unit:
        preset = self.workload.presets[index]
        model = new_model(self.workload, self.setup.vocab, preset, self.seed)
        subset = smallest_parameters(model.parameters(), GRADCHECK_BUDGET)
        evals = 2 * sum(p.data.size for p in subset)
        out = Unit(0.0, evals, evals)
        batch = self.batch

        def loss_fn():
            return float(model.forward_batch(batch).loss.data)

        if tracer is not None:
            loss_fn = tracer.traced("gradcheck.loss_eval", loss_fn)
        evaluate = loss_fn

        def loss_fn():
            began = time.perf_counter()
            try:
                return evaluate()
            finally:
                out.op_seconds.append(time.perf_counter() - began)
                if host is not None:
                    host.track(out)
        try:
            result = model.forward_batch(batch)
            grads = autodiff.backward(result.tape, result.loss)
            started = time.perf_counter()
            report = gradcheck.check_gradients(loss_fn, subset, grads)
            out.seconds = time.perf_counter() - started
        except Exception as exc:  # a failed unit is counted, the run goes on
            out.failed = evals
            out.failures.append(f"{preset}: raised {type(exc).__name__}: {exc}")
            return out
        err = report.max_rel_error
        out.digest = _digest([np.array([err])])
        out.info = {"preset": preset, "max_rel_error": err}
        if not (math.isfinite(err) and err < GRADCHECK_TOLERANCE):
            out.failed = evals
            out.failures.append(f"{preset}: {report.summary()}")
        return out


PHASES = {"train": TrainPhase, "eval": EvalPhase, "gradcheck": GradcheckPhase}


@dataclass
class PhaseResult:
    reference: list[Unit] = field(default_factory=list)  # one per cycle position
    timed: list[Unit] = field(default_factory=list)
    untimed: list[Unit] = field(default_factory=list)

    @property
    def units(self) -> list[Unit]:
        return self.untimed + self.timed


def tracing_on(tracer):
    return tracer.on() if tracer is not None else contextlib.nullcontext()


def shares(workload: Workload) -> dict[str, float]:
    share = dict(COMPANION_SHARES, eval=workload.eval_share)
    del share[workload.primary]
    return dict(share, **{workload.primary: 1.0 - sum(share.values())})


def run_phases(
    phases: dict, workload: Workload, seconds: float, setup: Setup, tracer
) -> dict[str, PhaseResult]:
    """Interleave timed units of all phases for `seconds`, each phase
    taking its share of the time, until every phase has finished its
    current cycle and at least MIN_CYCLES cycles. Interleaving spreads
    every metric's units over the whole run, so slow spells of a shared
    machine reach every metric alike.

    The first cycle of each phase runs before the timed loop, untraced
    and untimed. It warms the process up (heap, lazily built state) and
    is the phase's reference: every timed unit must reproduce it bit for
    bit. Only the primary phase's timed units are traced. A timed set-up
    follows every unit, traced when tracing. Host-speed samples bracket
    every unit with the set-up that follows it; the first also stands
    for the set-up made before the phases."""
    primary = workload.primary
    results = {name: PhaseResult() for name in phases}
    host = HostSpeed()
    for name in sorted(phases, key=lambda n: n != primary):
        for index in range(phases[name].cycle):
            gc.collect()
            results[name].untimed.append(phases[name].unit(index, None, None))
        results[name].reference = list(results[name].untimed)
    share = shares(workload)
    spent = dict.fromkeys(phases, 0.0)

    def unfinished(name):
        done, cycle = len(results[name].timed), phases[name].cycle
        return done < MIN_CYCLES[name] * cycle or done % cycle

    before = host.sample()
    setup.speeds.extend([before] * (len(setup.seconds) - len(setup.speeds)))
    started = time.perf_counter()
    while True:
        due = [name for name in phases if unfinished(name)]
        if time.perf_counter() - started < seconds:
            due = list(phases)
        if not due:
            break
        name = min(due, key=lambda n: spent[n] / share[n])
        phase, result = phases[name], results[name]
        index = len(result.timed) % phase.cycle
        traced = tracer if name == primary else None
        gc.collect()
        with tracing_on(traced):
            began = time.perf_counter()
            unit = phase.unit(index, traced, host)
            spent[name] += time.perf_counter() - began
        result.timed.append(unit)
        if unit.digest != result.reference[index].digest and not unit.failed:
            unit.failed = unit.ops
            unit.failures.append(f"{name} result differs from the reference unit")
        if isinstance(phase, EvalPhase) and len(result.timed) == 1:
            phase.check_oracle(unit)
        with tracing_on(tracer):
            setup.again()
        after = host.settle(unit)
        unit.speed = (before + after) / 2
        setup.speeds.append(unit.speed)
        before = after
    return results


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
