"""Training loop: Adam updates, deterministic mini-batching, per-epoch
logging, dev-set model selection with early stopping, and checkpointing.

Every source of randomness is derived from a single integer seed, and the
wall clock is injectable, so two runs with the same inputs produce the
same log bytes and the same final parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, backward, save_checkpoint
from .corpus import ClozeSample
from .errors import ConfigError, ContractViolation, NumericalError
from .model import Model, assemble_batch

LOG_HEADER = "epoch,train_loss,dev_acc,seconds"


@dataclass
class HyperParams:
    lr: float = 0.0005
    dropout: float = 0.0
    batch_size: int = 32
    epochs: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 5
    seed: int = 0
    grad_clip: float | None = None
    target_train_acc: float | None = None

    def validate(self) -> "HyperParams":
        # comparisons with nan are false, so every range below rejects it
        inf = math.inf
        for name, ok, rule in (
            ("lr", 0.0 <= self.lr < inf, "finite and non-negative"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("beta1", 0.0 < self.beta1 < 1.0, "in (0, 1)"),
            ("beta2", 0.0 < self.beta2 < 1.0, "in (0, 1)"),
            ("eps", 0.0 < self.eps < inf, "finite and positive"),
            ("patience", self.patience >= 1, ">= 1"),
            ("seed", self.seed >= 0, "non-negative"),
            ("grad_clip", self.grad_clip is None or 0.0 < self.grad_clip < inf,
             "finite and positive when set"),
            ("target_train_acc",
             self.target_train_acc is None or 0.0 < self.target_train_acc <= 1.0,
             "in (0, 1] when set"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}", name)
        return self


class AdamState:
    """First and second moment accumulators keyed by parameter id."""

    def __init__(self, params: list[Parameter]):
        self.step = 0
        self.m = {p.id: np.zeros_like(p.data) for p in params if p.trainable}
        self.v = {p.id: np.zeros_like(p.data) for p in params if p.trainable}


def adam_step(
    params: list[Parameter],
    grads: dict[str, np.ndarray],
    state: AdamState,
    hp: HyperParams,
) -> None:
    """One bias-corrected Adam update in place. Frozen parameters are
    left untouched."""
    state.step += 1
    t = state.step
    scale_m = 1.0 - hp.beta1 ** t
    scale_v = 1.0 - hp.beta2 ** t
    for p in params:
        if not p.trainable:
            continue
        if p.id not in grads:
            raise ContractViolation(f"no gradient supplied for trainable parameter {p.id}")
        g = grads[p.id]
        m = state.m[p.id]
        v = state.v[p.id]
        m *= hp.beta1
        m += (1.0 - hp.beta1) * g
        v *= hp.beta2
        v += (1.0 - hp.beta2) * g * g
        p.data -= hp.lr * (m / scale_m) / (np.sqrt(v / scale_v) + hp.eps)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def mean_nll(gold_probs) -> float:
    """Mean negative log probability assigned to the gold answers."""
    probs = list(gold_probs)
    if not probs:
        raise ContractViolation("mean_nll needs at least one probability")
    total = 0.0
    for p in probs:
        if not 0.0 < p <= 1.0:
            raise ContractViolation(f"gold probability {p} outside (0, 1]")
        total += -math.log(p)
    return total / len(probs)


def make_batches(
    samples: list[ClozeSample],
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> list[list[ClozeSample]]:
    """Chunk samples into consecutive mini-batches, optionally after a
    seeded shuffle. The final batch may be smaller."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    pool = list(samples)
    if rng is not None:
        order = rng.permutation(len(pool))
        pool = [pool[i] for i in order]
    return [pool[i:i + batch_size] for i in range(0, len(pool), batch_size)]


@dataclass
class EvalResult:
    accuracy: float
    nll: float
    count: int


def evaluate(model: Model, samples: list[ClozeSample], batch_size: int = 32) -> EvalResult:
    """Accuracy and mean gold NLL over a labelled sample list, computed
    without dropout (the forwards get no generator)."""
    if not samples:
        raise ContractViolation("evaluate needs at least one sample")
    correct = 0
    gold_probs = []
    for chunk in make_batches(samples, batch_size):
        batch = assemble_batch(chunk, model.vocab)
        # the forward result (and its tape) dies once predict_batch returns
        dists = model.predict_batch(model.forward_batch(batch), batch)
        for dist, sample in zip(dists, chunk):
            if sample.answer is None:
                raise ContractViolation("evaluate needs gold answers on every sample")
            correct += dist.predicted == sample.answer
            gold_probs.append(dist.candidate_probs[sample.answer])
    return EvalResult(correct / len(samples), mean_nll(gold_probs), len(samples))


@dataclass
class TrainResult:
    rows: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_dev_acc: float = -1.0
    epochs_run: int = 0
    stopped_early: bool = False
    reached_target: bool = False


def train(
    model: Model,
    train_samples: list[ClozeSample],
    dev_samples: list[ClozeSample],
    hp: HyperParams,
    log_path=None,
    checkpoint_path=None,
    timer=time.perf_counter,
) -> TrainResult:
    """Optimize the model, keeping the parameters of the epoch with the
    best dev accuracy. Stops after `patience` epochs without improvement
    or, when target_train_acc is set, once training accuracy reaches it.

    On return the model holds the best parameters seen, and the optional
    checkpoint file matches them.
    """
    hp.validate()
    if not train_samples:
        raise ContractViolation("train needs a non-empty training split")
    if not dev_samples:
        raise ContractViolation("train needs a non-empty dev split")

    shuffle_rng = np.random.default_rng([hp.seed, 11])
    drop_rng = np.random.default_rng([hp.seed, 23]) if hp.dropout > 0.0 else None
    params = model.parameters()
    state = AdamState(params)
    result = TrainResult()
    best_data: dict[str, np.ndarray] = {}
    since_best = 0
    log_fh = open(log_path, "w", encoding="utf-8", newline="") if log_path else None
    try:
        if log_fh:
            log_fh.write(LOG_HEADER + "\n")
        for epoch in range(1, hp.epochs + 1):
            started = timer()
            loss_sum = 0.0
            seen = 0
            for index, chunk in enumerate(make_batches(train_samples, hp.batch_size, shuffle_rng)):
                batch = assemble_batch(chunk, model.vocab)
                out = model.forward_batch(batch, dropout=hp.dropout, rng=drop_rng)
                loss = float(out.loss.data)
                if not math.isfinite(loss):
                    norms = ", ".join(
                        f"{p.id}={float(np.linalg.norm(p.data)):.3e}" for p in params
                    )
                    raise NumericalError(
                        f"non-finite training loss {loss} at epoch {epoch}, "
                        f"batch {index}; parameter norms: {norms}"
                    )
                grads = backward(out.tape, out.loss)
                # free this step's tape before the next step's forward
                del out
                if hp.grad_clip is not None:
                    clip_global_norm(grads, hp.grad_clip)
                adam_step(params, grads, state, hp)
                loss_sum += loss * len(chunk)
                seen += len(chunk)
            dev = evaluate(model, dev_samples, hp.batch_size)
            row = {
                "epoch": epoch,
                "train_loss": loss_sum / seen,
                "dev_acc": dev.accuracy,
                "seconds": timer() - started,
            }
            result.rows.append(row)
            result.epochs_run = epoch
            if log_fh:
                log_fh.write(
                    f"{epoch},{row['train_loss']:.6f},{row['dev_acc']:.6f},{row['seconds']:.3f}\n"
                )
                log_fh.flush()
            if dev.accuracy > result.best_dev_acc:
                result.best_dev_acc = dev.accuracy
                result.best_epoch = epoch
                since_best = 0
                best_data = {p.id: p.data.copy() for p in params}
                if checkpoint_path:
                    save_checkpoint(params, checkpoint_path)
            else:
                since_best += 1
            if hp.target_train_acc is not None:
                if evaluate(model, train_samples, hp.batch_size).accuracy >= hp.target_train_acc:
                    # keep the current parameters, not the best-dev snapshot,
                    # and make the checkpoint agree with them
                    result.reached_target = True
                    if checkpoint_path:
                        save_checkpoint(params, checkpoint_path)
                    break
            if since_best >= hp.patience:
                result.stopped_early = True
                break
    finally:
        if log_fh:
            log_fh.close()
    if best_data and not result.reached_target:
        for p in params:
            p.data[...] = best_data[p.id]
    return result
