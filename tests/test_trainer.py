"""Trainer tests: Adam against a scalar oracle, batching determinism,
loss/accuracy evaluation against per-sample loops, and the training loop
contracts (logging, early stop, checkpointing, failure diagnostics)."""

import math
import weakref

import numpy as np
import pytest

from dgreader.autodiff import Parameter, load_checkpoint, restore_parameters
from dgreader.corpus import DatasetSplit, SynthConfig, build_vocab, generate_synthetic
from dgreader.embed import EmbedConfig
from dgreader.errors import ConfigError, ContractViolation, NumericalError
from dgreader.model import Model, assemble_batch
from dgreader.reader import ReaderConfig
from dgreader.trainer import (
    LOG_HEADER,
    AdamState,
    HyperParams,
    adam_step,
    clip_global_norm,
    evaluate,
    make_batches,
    mean_nll,
    train,
)


def scalar_adam(values, grads_per_step, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook per-element reference, one float at a time."""
    x = list(values)
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mh = m[i] / (1 - b1 ** t)
            vh = v[i] / (1 - b2 ** t)
            x[i] -= lr * mh / (math.sqrt(vh) + eps)
    return x


def make_world(n=16, candidates=3, seed=5):
    samples = generate_synthetic(SynthConfig(samples=n, vocab_size=24, doc_len=(8, 12),
                                             qry_len=(4, 6), candidates=candidates, seed=seed))
    vocab = build_vocab([DatasetSplit("train", samples)])
    return samples, vocab


def make_model(vocab, seed=0, **kw):
    kw.setdefault("hops", 1)
    kw.setdefault("hidden", 8)
    return Model(vocab, EmbedConfig(word_dim=8, char_dim=4, char_hidden=6, char_out=6),
                 ReaderConfig(**kw).validate(), np.random.default_rng(seed))


class TestHyperParams:
    def test_defaults_validate(self):
        hp = HyperParams().validate()
        assert hp.lr == 0.0005 and hp.patience == 5

    @pytest.mark.parametrize("field,value", [
        ("lr", -1.0), ("lr", math.nan), ("lr", math.inf), ("dropout", 1.0),
        ("batch_size", 0), ("epochs", 0), ("beta1", 1.0), ("beta2", 1.0), ("eps", 0.0),
        ("eps", math.inf), ("patience", 0), ("seed", -1), ("grad_clip", 0.0),
        ("grad_clip", math.nan), ("grad_clip", math.inf), ("target_train_acc", 0.0),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError) as info:
            HyperParams(**{field: value}).validate()
        assert info.value.field == field


class TestAdam:
    def test_matches_scalar_oracle_over_steps(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=5)
        p = Parameter("w", data.copy())
        hp = HyperParams(lr=0.001)
        state = AdamState([p])
        grads_per_step = [rng.normal(size=5) for _ in range(4)]
        for g in grads_per_step:
            adam_step([p], {"w": g}, state, hp)
        want = scalar_adam(data, grads_per_step, lr=0.001)
        np.testing.assert_allclose(p.data, want, atol=1e-15)

    def test_frozen_parameter_untouched(self):
        p = Parameter("frozen", np.ones(3), trainable=False)
        q = Parameter("live", np.ones(3))
        state = AdamState([p, q])
        adam_step([p, q], {"live": np.ones(3)}, state, HyperParams())
        np.testing.assert_array_equal(p.data, np.ones(3))
        assert not np.allclose(q.data, np.ones(3))

    def test_missing_gradient_rejected(self):
        p = Parameter("w", np.ones(2))
        with pytest.raises(ContractViolation, match="w"):
            adam_step([p], {}, AdamState([p]), HyperParams())

    def test_minimizes_a_quadratic(self):
        p = Parameter("x", np.array([10.0]))
        state = AdamState([p])
        hp = HyperParams(lr=0.1)
        for _ in range(500):
            adam_step([p], {"x": 2.0 * (p.data - 3.0)}, state, hp)
        assert abs(p.data[0] - 3.0) < 1e-3

    def test_zero_lr_is_bitwise_noop(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=6)
        p = Parameter("w", data.copy())
        state = AdamState([p])
        hp = HyperParams(lr=0.0)
        for _ in range(3):
            adam_step([p], {"w": rng.normal(size=6)}, state, hp)
        np.testing.assert_array_equal(p.data, data)


class TestClip:
    def test_norm_reported_and_scaled(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_global_norm(grads, 1.0)
        assert abs(norm - 5.0) < 1e-12
        joint = math.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert abs(joint - 1.0) < 1e-12

    def test_below_threshold_untouched(self):
        grads = {"a": np.array([0.3])}
        clip_global_norm(grads, 1.0)
        assert grads["a"][0] == 0.3


class TestMeanNll:
    def test_certain_answer_costs_nothing(self):
        assert mean_nll([1.0]) == 0.0

    def test_one_nat(self):
        assert abs(mean_nll([1.0 / math.e]) - 1.0) < 1e-12

    def test_averages(self):
        assert abs(mean_nll([1.0, 1.0 / math.e]) - 0.5) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ContractViolation):
            mean_nll([])
        with pytest.raises(ContractViolation):
            mean_nll([0.0])
        with pytest.raises(ContractViolation):
            mean_nll([1.5])


class TestMakeBatches:
    def test_sizes_with_remainder(self):
        samples, _ = make_world(16)
        pool = samples * 5  # 80
        batches = make_batches(pool[:70], 32)
        assert [len(b) for b in batches] == [32, 32, 6]

    def test_no_shuffle_preserves_order(self):
        samples, _ = make_world(10)
        batches = make_batches(samples, 4)
        flat = [s for b in batches for s in b]
        assert flat == samples

    def test_shuffle_is_seeded(self):
        samples, _ = make_world(12)
        a = make_batches(samples, 5, np.random.default_rng(7))
        b = make_batches(samples, 5, np.random.default_rng(7))
        c = make_batches(samples, 5, np.random.default_rng(8))
        assert a == b
        assert a != c
        flat = [s for bt in a for s in bt]
        assert sorted(map(repr, flat)) == sorted(map(repr, samples))


class TestEvaluate:
    def test_matches_per_sample_loop(self):
        samples, vocab = make_world()
        model = make_model(vocab)
        result = evaluate(model, samples, batch_size=5)
        singles = []
        for s in samples:
            one = assemble_batch([s], vocab)
            singles.extend(model.predict_batch(model.forward_batch(one), one))
        correct = sum(d.predicted == s.answer for d, s in zip(singles, samples))
        probs = [d.candidate_probs[s.answer] for d, s in zip(singles, samples)]
        assert result.accuracy == correct / len(samples)
        assert abs(result.nll - mean_nll(probs)) < 1e-9
        assert result.count == len(samples)

    def test_unlabeled_sample_rejected(self):
        import dataclasses
        samples, vocab = make_world()
        model = make_model(vocab)
        bad = [dataclasses.replace(samples[0], answer=None)]
        with pytest.raises(ContractViolation):
            evaluate(model, bad)


class FakeTimer:
    """Ticks one second per call, for byte-stable log output."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestTrain:
    def run(self, tmp_path, seed=0, tag="a", **hp_kw):
        samples, vocab = make_world()
        model = make_model(vocab, seed=seed)
        hp_kw.setdefault("lr", 0.01)
        hp_kw.setdefault("batch_size", 8)
        hp_kw.setdefault("epochs", 40)
        hp_kw.setdefault("patience", 40)
        hp = HyperParams(seed=seed, **hp_kw)
        log = tmp_path / f"log_{tag}.csv"
        ckpt = tmp_path / f"model_{tag}.ckpt"
        result = train(model, samples, samples, hp, log_path=log,
                       checkpoint_path=ckpt, timer=FakeTimer())
        return samples, model, result, log, ckpt

    def test_reaches_target_and_logs(self, tmp_path):
        samples, model, result, log, _ = self.run(tmp_path, target_train_acc=1.0)
        assert result.reached_target
        assert evaluate(model, samples).accuracy == 1.0
        lines = log.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == result.epochs_run + 1
        first = lines[1].split(",")
        assert first[0] == "1" and len(first) == 4
        float(first[1]), float(first[2]), float(first[3])

    def test_identical_seeds_identical_log_bytes(self, tmp_path):
        _, _, res_a, log_a, _ = self.run(tmp_path, seed=3, tag="a", dropout=0.1, epochs=6, patience=6)
        _, _, res_b, log_b, _ = self.run(tmp_path, seed=3, tag="b", dropout=0.1, epochs=6, patience=6)
        assert log_a.read_bytes() == log_b.read_bytes()
        assert res_a.rows == res_b.rows

    def test_different_seed_changes_training(self, tmp_path):
        _, _, res_a, log_a, _ = self.run(tmp_path, seed=3, tag="a", epochs=4, patience=4)
        _, _, res_b, log_b, _ = self.run(tmp_path, seed=4, tag="b", epochs=4, patience=4)
        assert log_a.read_bytes() != log_b.read_bytes()

    def test_checkpoint_reproduces_accuracy(self, tmp_path):
        samples, model, result, _, ckpt = self.run(tmp_path, epochs=8, patience=8)
        final = evaluate(model, samples)
        _, vocab = make_world()
        fresh = make_model(vocab, seed=99)
        restore_parameters(fresh.parameters(), load_checkpoint(ckpt))
        rehydrated = evaluate(fresh, samples)
        assert rehydrated.accuracy == result.best_dev_acc
        assert rehydrated.accuracy == final.accuracy
        assert abs(rehydrated.nll - final.nll) < 1e-15

    def test_model_holds_best_parameters(self, tmp_path):
        samples, model, result, _, _ = self.run(tmp_path, epochs=8, patience=8)
        assert evaluate(model, samples).accuracy == result.best_dev_acc

    def test_early_stop_on_plateau(self, tmp_path):
        samples, model, result, _, _ = self.run(tmp_path, epochs=40, patience=2)
        assert result.stopped_early
        assert result.epochs_run < 40
        assert result.best_epoch <= result.epochs_run - 2

    def test_non_finite_loss_aborts_with_diagnostics(self, tmp_path):
        samples, vocab = make_world()
        model = make_model(vocab)
        model.parameters()[2].data[...] = np.nan
        hp = HyperParams(lr=0.01, batch_size=8, epochs=2)
        with pytest.raises(NumericalError, match="epoch 1.*norms"):
            train(model, samples, samples, hp)

    def test_each_step_frees_its_tape(self, live_tapes):
        samples, vocab = make_world()
        model = make_model(vocab)
        forward = model.forward_batch
        tapes = []
        alive_at_forward = []

        def recording_forward(*args, **kwargs):
            alive_at_forward.append(sum(t() is not None for t in tapes))
            result = forward(*args, **kwargs)
            tapes.append(weakref.ref(result.tape))
            return result

        model.forward_batch = recording_forward
        train(model, samples[:8], samples[8:], HyperParams(batch_size=4, epochs=2))
        assert len(tapes) == 2 * (2 + 2)  # per epoch: two steps, two dev batches
        # neither a training step nor a dev batch overlaps an earlier tape
        assert alive_at_forward == [0] * len(tapes)
        assert live_tapes() == []

    def test_empty_splits_rejected(self):
        samples, vocab = make_world()
        model = make_model(vocab)
        with pytest.raises(ContractViolation):
            train(model, [], samples, HyperParams())
        with pytest.raises(ContractViolation):
            train(model, samples, [], HyperParams())
