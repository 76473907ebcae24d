"""Per-layer spans recorded from outside the program.

Each wrapper replaces the attribute its caller looks up at call time: a
module global such as ``dgreader.embed.gru_scan`` (used by the
character embedder) and ``dgreader.autodiff.gru_scan`` (used by
``bigru``), or a method on a class such as ``Model.forward_batch``.
Nothing under ``src/`` changes. A wrapper records one span (name,
start, end, parent) per call while the tracer is enabled and calls
straight through otherwise, so the reference units of a traced run and
every untraced run execute the program's own functions only.

A span's self time is its duration minus the time its direct children
cover; calls are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

# (module, attribute path, span name). A module global is wrapped in
# the module whose code looks it up: trainer.train calls its own
# imported `assemble_batch` and `backward`, bigru calls autodiff's
# `gru_scan`, the character embedder calls embed's `gru_scan`.
TARGETS = (
    ("dgreader.corpus", "load_jsonl", "corpus.load"),
    ("dgreader.corpus", "build_vocab", "corpus.vocab"),
    ("dgreader.model", "assemble_batch", "model.assemble"),
    ("dgreader.trainer", "assemble_batch", "model.assemble"),
    ("dgreader.model", "Model.forward_batch", "model.forward"),
    ("dgreader.model", "Model.predict_batch", "model.predict"),
    ("dgreader.model", "find_occurrences", "ranker"),
    ("dgreader.model", "aggregate_candidates", "ranker"),
    ("dgreader.model", "encode_full", "reader.encode"),
    ("dgreader.reader", "bigru", "reader.bigru"),
    ("dgreader.embed", "TokenEmbedder.embed_batch", "embed.embed"),
    ("dgreader.embed", "CharEmbedder.embed_ids", "embed.char"),
    ("dgreader.embed", "gru_scan", "autodiff.gru_scan"),
    ("dgreader.autodiff", "gru_scan", "autodiff.gru_scan"),
    ("dgreader.autodiff", "backward", "autodiff.backward"),
    ("dgreader.trainer", "backward", "autodiff.backward"),
    ("dgreader.trainer", "adam_step", "trainer.adam"),
    ("dgreader.trainer", "evaluate", "trainer.dev_eval"),
    ("dgreader.gradcheck", "check_gradients", "gradcheck.check"),
    ("dgreader.gradcheck", "numeric_gradient", "gradcheck.numeric"),
)

# name -> (unit, better); the order is the order of the printed report.
LAYER_METRICS = {
    "corpus.load_ms": ("ms", "lower"),
    "corpus.vocab_ms": ("ms", "lower"),
    "model.assemble_ms": ("ms", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.head_self_ms": ("ms", "lower"),
    "model.pad_ratio": ("ratio", "higher"),
    "model.predict_ms": ("ms", "lower"),
    "ranker.ms": ("ms", "lower"),
    "embed.embed_ms": ("ms", "lower"),
    "embed.char_rows": ("count", "lower"),
    "embed.char_unique_ratio": ("ratio", "higher"),
    "reader.encode_self_ms": ("ms", "lower"),
    "reader.bigru_ms": ("ms", "lower"),
    "reader.bigru_calls": ("count", "lower"),
    "autodiff.gru_scan_ms": ("ms", "lower"),
    "autodiff.gru_scan_calls": ("count", "lower"),
    "autodiff.tape_nodes": ("count", "lower"),
    "autodiff.tape_mb": ("MiB", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "trainer.adam_ms": ("ms", "lower"),
    "trainer.dev_eval_ms": ("ms", "lower"),
    "gradcheck.loss_eval_ms": ("ms", "lower"),
    "gradcheck.entries": ("count", "higher"),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute) for 'name' or 'Class.name', or None when the
    program no longer has it; its metric then reads 0."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Spans and counts for one process. Enabled only around the units
    it should describe; disabled wrappers call straight through."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.setups = 0
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.real_positions = 0.0
        self.padded_positions = 0
        self.entries = 0
        self.char_ids_per_forward: list[list[np.ndarray]] = []
        self._char_ids: list[np.ndarray] | None = None

    @contextlib.contextmanager
    def on(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def traced(self, name: str, fn, before=None, after=None):
        """fn wrapped in a span named `name` when the tracer is enabled."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            index = len(tracer.spans)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        hooks = {
            "model.forward": (self._forward_before, self._forward_after),
            "embed.char": (self._char_before, None),
            "gradcheck.numeric": (self._numeric_before, None),
        }
        for module_name, path, name in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr = found
            original = getattr(owner, attr)
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self.traced(name, original, before, after))

    # ---- counts taken at the same boundaries as the spans ----

    def _forward_before(self, args) -> None:
        self._char_ids = []
        batch = args[1]
        for mask in (batch.doc_mask, batch.qry_mask):
            self.real_positions += float(np.sum(mask))
            self.padded_positions += mask.size

    def _forward_after(self, args, result) -> None:
        nodes = getattr(getattr(result, "tape", None), "nodes", ())
        self.tape_nodes += len(nodes)
        self.tape_bytes += sum(node.data.nbytes for node in nodes)
        self.char_ids_per_forward.append(self._char_ids or [])
        self._char_ids = None

    def _char_before(self, args) -> None:
        if self._char_ids is None:
            return
        ids = next(
            (a for a in args if isinstance(a, np.ndarray) and a.dtype.kind in "iu"), None
        )
        if ids is not None:
            self._char_ids.append(ids.reshape(ids.shape[0], -1))

    def _numeric_before(self, args) -> None:
        self.entries += args[1].data.size

    # ---- aggregation ----

    def totals(self) -> dict[str, list[float]]:
        """name -> [total seconds, self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += end - start
            entry[1] += end - start - covered
            entry[2] += 1
        return out

    def char_rows(self) -> tuple[int, int]:
        """(char-scan rows, distinct non-padding token types), summed
        over forwards; types are counted across document and query."""
        rows = distinct = 0
        for mats in self.char_ids_per_forward:
            if not mats:
                continue
            width = max(m.shape[1] for m in mats)
            stacked = np.concatenate(
                [np.pad(m, ((0, 0), (0, width - m.shape[1]))) for m in mats]
            )
            rows += stacked.shape[0]
            real = stacked[stacked.any(axis=1)]
            distinct += len(np.unique(real, axis=0)) if len(real) else 0
        return rows, distinct

    def layer_metrics(self) -> dict[str, float]:
        agg = self.totals()

        def total(name):
            return agg.get(name, [0.0, 0.0, 0])[0]

        def calls(name):
            return agg.get(name, [0.0, 0.0, 0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        def mean_ms(name):
            return 1e3 * ratio(total(name), calls(name))

        forwards = calls("model.forward")
        rows, distinct = self.char_rows()
        return {
            "corpus.load_ms": 1e3 * ratio(total("corpus.load"), self.setups),
            "corpus.vocab_ms": 1e3 * ratio(total("corpus.vocab"), self.setups),
            "model.assemble_ms": mean_ms("model.assemble"),
            "model.forward_ms": mean_ms("model.forward"),
            "model.head_self_ms": 1e3 * ratio(agg.get("model.forward", [0, 0, 0])[1], forwards),
            "model.pad_ratio": ratio(self.real_positions, self.padded_positions),
            "model.predict_ms": mean_ms("model.predict"),
            "ranker.ms": 1e3 * ratio(total("ranker"), forwards),
            "embed.embed_ms": 1e3 * ratio(total("embed.embed"), forwards),
            "embed.char_rows": ratio(rows, forwards),
            "embed.char_unique_ratio": ratio(distinct, rows),
            "reader.encode_self_ms": 1e3 * ratio(agg.get("reader.encode", [0, 0, 0])[1], forwards),
            "reader.bigru_ms": 1e3 * ratio(total("reader.bigru"), forwards),
            "reader.bigru_calls": ratio(calls("reader.bigru"), forwards),
            "autodiff.gru_scan_ms": 1e3 * ratio(total("autodiff.gru_scan"), forwards),
            "autodiff.gru_scan_calls": ratio(calls("autodiff.gru_scan"), forwards),
            "autodiff.tape_nodes": ratio(self.tape_nodes, forwards),
            "autodiff.tape_mb": ratio(self.tape_bytes, forwards) / 2**20,
            "autodiff.backward_ms": mean_ms("autodiff.backward"),
            "trainer.adam_ms": mean_ms("trainer.adam"),
            "trainer.dev_eval_ms": mean_ms("trainer.dev_eval"),
            "gradcheck.loss_eval_ms": mean_ms("gradcheck.loss_eval"),
            "gradcheck.entries": ratio(self.entries, calls("gradcheck.check")),
        }
