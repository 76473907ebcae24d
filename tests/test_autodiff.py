"""Engine tests: primitive forwards, backward correctness against central
finite differences, GRU primitives against a plain-Python scalar oracle,
tape lifetime, and checkpoint round-trips."""

import math
import re
import weakref

import numpy as np
import pytest

from dgreader.autodiff import (
    BiGRUParams,
    Parameter,
    Tape,
    backward,
    bigru,
    final_states,
    load_checkpoint,
    restore_parameters,
    save_checkpoint,
)
from dgreader.corpus import DatasetSplit, SynthConfig, build_vocab, generate_synthetic
from dgreader.embed import EmbedConfig
from dgreader.errors import ContractViolation, DimensionError, ParseError
from dgreader.gradcheck import check_gradients, numeric_gradient
from dgreader.model import Model, assemble_batch
from dgreader.reader import ReaderConfig
from oracles import gru_cell, sigmoid, sum_all, tanh


def scalar_gru_step(x, h, w_in, w_hid, b):
    """Independent single-step GRU oracle: plain Python loops over the
    fused [z | r | c] layout."""

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    n = len(h)
    pre = [sum(x[i] * w_in[i][k] for i in range(len(x))) + b[k] for k in range(3 * n)]
    z = [sig(pre[k] + sum(h[j] * w_hid[j][k] for j in range(n))) for k in range(n)]
    r = [sig(pre[n + k] + sum(h[j] * w_hid[j][n + k] for j in range(n))) for k in range(n)]
    c = [
        math.tanh(pre[2 * n + k] + sum(r[j] * h[j] * w_hid[j][2 * n + k] for j in range(n)))
        for k in range(n)
    ]
    return [(1.0 - z[k]) * h[k] + z[k] * c[k] for k in range(n)]


def make_bigru(rng, input_size, hidden):
    """Random BiGRU weights, drawn per direction (w_in, w_hid, bias),
    forward first, then stacked."""
    draws = [
        (
            rng.normal(0, 0.4, (input_size, 3 * hidden)),
            rng.normal(0, 0.4, (hidden, 3 * hidden)),
            rng.normal(0, 0.2, 3 * hidden),
        )
        for _ in range(2)
    ]
    return BiGRUParams(
        Parameter("g.w_in", np.concatenate([w for w, _, _ in draws], axis=1)),
        Parameter("g.w_hid", np.stack([u for _, u, _ in draws])),
        Parameter("g.bias", np.concatenate([b for _, _, b in draws])),
    )


class TestPrimitivesForward:
    def test_add_mul_known_values(self):
        tape = Tape()
        a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        b = tape.constant([[10.0, 20.0], [30.0, 40.0]])
        np.testing.assert_array_equal(tape.add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
        np.testing.assert_array_equal(tape.mul(a, b).data, [[10.0, 40.0], [90.0, 160.0]])

    def test_matmul_known_values(self):
        tape = Tape()
        a = tape.constant([[1.0, 2.0, 3.0]])
        b = tape.constant([[1.0], [10.0], [100.0]])
        np.testing.assert_array_equal(tape.matmul(a, b).data, [[321.0]])

    def test_matmul_shape_error_names_both_shapes(self):
        tape = Tape()
        a = tape.constant(np.zeros((2, 3)))
        b = tape.constant(np.zeros((4, 2)))
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            tape.matmul(a, b)

    @pytest.mark.parametrize(
        "key, axis",
        [
            (np.array([0, -1]), 0),
            ((np.arange(2), np.array([1, 4])), 1),
            ((..., np.array([3])), 2),
        ],
        ids=["negative", "past-the-axis", "after-ellipsis"],
    )
    def test_select_index_outside_its_axis_raises(self, key, axis):
        tape = Tape()
        with pytest.raises(ContractViolation, match=f"on axis {axis}"):
            tape.select(tape.constant(np.zeros((2, 4, 3))), key)

    def test_concat_slice_roundtrip(self):
        tape = Tape()
        rng = np.random.default_rng(0)
        a = tape.constant(rng.normal(size=(3, 2)))
        b = tape.constant(rng.normal(size=(3, 5)))
        cat = tape.concat_last([a, b])
        np.testing.assert_array_equal(tape.select(cat, (..., slice(0, 2))).data, a.data)
        np.testing.assert_array_equal(tape.select(cat, (..., slice(2, 7))).data, b.data)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        outs = []
        for _ in range(2):
            tape = Tape()
            t = tanh(tape.matmul(tape.constant(x), tape.constant(x.T)))
            outs.append(t.data.tobytes())
        assert outs[0] == outs[1]


class TestMaskedSoftmax:
    def test_rows_sum_to_one_and_masked_are_exact_zero(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        logits = tape.constant(rng.normal(0, 5, (6, 9)))
        mask = (rng.random((6, 9)) > 0.3).astype(float)
        mask[:, 0] = 1.0  # keep every row feasible
        y = tape.masked_softmax(logits, mask)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (y.data[mask == 0.0] == 0.0).all()
        assert (y.data[mask == 1.0] > 0.0).all()

    def test_all_masked_row_rejected(self):
        tape = Tape()
        logits = tape.constant(np.zeros((2, 3)))
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ContractViolation):
            tape.masked_softmax(logits, mask)

    def test_broadcast_mask_with_all_masked_row_rejected(self):
        tape = Tape()
        logits = tape.constant(np.zeros((2, 4, 3)))
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])[:, None, :]
        with pytest.raises(ContractViolation):
            tape.masked_softmax(logits, mask)

    def test_broadcast_mask_equals_full_mask_bitwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 5, (3, 4, 6))
        mask = (rng.random((3, 1, 6)) > 0.4).astype(float)
        mask[:, :, 0] = 1.0
        tape = Tape()
        narrow = tape.masked_softmax(tape.constant(x), mask)
        full = tape.masked_softmax(tape.constant(x), np.broadcast_to(mask, x.shape).copy())
        assert narrow.data.shape == x.shape
        assert narrow.data.tobytes() == full.data.tobytes()

    def test_mask_wider_than_input_rejected(self):
        tape = Tape()
        with pytest.raises(DimensionError, match="does not broadcast"):
            tape.masked_softmax(tape.constant(np.zeros((2, 1, 3))), np.ones((2, 4, 3)))

    def test_matches_plain_softmax_when_unmasked(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7))
        tape = Tape()
        y = tape.masked_softmax(tape.constant(x), np.ones((5, 7)))
        ref = np.exp(x - x.max(-1, keepdims=True))
        ref /= ref.sum(-1, keepdims=True)
        np.testing.assert_allclose(y.data, ref, atol=1e-14)


class TestBackward:
    def test_scalar_chain(self):
        # loss = sum((x @ w)^2) with known small values
        tape = Tape()
        w = Parameter("w", np.array([[2.0], [3.0]]))
        x = tape.constant([[1.0, 4.0]])
        y = tape.matmul(x, tape.watch(w))  # [[14.0]]
        loss = sum_all(tape.mul(y, y))
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads["w"], [[28.0], [112.0]])

    def test_value_reused_twice_accumulates(self):
        tape = Tape()
        w = Parameter("w", np.array([3.0]))
        leaf = tape.watch(w)
        out = sum_all(tape.add(tape.mul(leaf, leaf), leaf))  # w^2 + w
        grads = backward(tape, out)
        np.testing.assert_allclose(grads["w"], [7.0])

    def test_unused_parameter_gets_zero(self):
        tape = Tape()
        used = Parameter("used", np.array([1.0]))
        unused = Parameter("unused", np.array([5.0]))
        tape.watch(unused)
        loss = sum_all(tape.watch(used))
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads["unused"], [0.0])

    def test_frozen_parameter_gets_zero(self):
        tape = Tape()
        frozen = Parameter("frozen", np.array([[1.0, 2.0]]), trainable=False)
        live = Parameter("live", np.array([[3.0], [4.0]]))
        y = tape.matmul(tape.watch(frozen), tape.watch(live))
        grads = backward(tape, sum_all(y))
        np.testing.assert_array_equal(grads["frozen"], [[0.0, 0.0]])
        np.testing.assert_allclose(grads["live"], [[1.0], [2.0]])

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        p = Parameter("p", np.ones(3))
        y = tape.mul(tape.watch(p), tape.constant(2.0))
        with pytest.raises(ContractViolation):
            backward(tape, y)

    @pytest.mark.parametrize("seed", range(3))
    def test_primitive_mix_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = Parameter("a", rng.normal(size=(3, 4)))
        b = Parameter("b", rng.normal(size=(4, 5)))
        c = Parameter("c", rng.normal(size=(5,)))
        mask = (rng.random((3, 5)) > 0.3).astype(float)
        mask[:, 0] = 1.0

        def run():
            tape = Tape()
            x = tape.matmul(tape.watch(a), tape.watch(b))
            x = tape.add(x, tape.watch(c))
            x = tape.masked_softmax(tanh(x), mask)
            top = tape.select(x, (..., slice(0, 2)))
            rest = tape.select(x, (..., slice(2, 5)))
            y = tape.concat_last([sigmoid(top), rest])
            y = tape.div(y, tape.add(tape.sum_last(y), tape.constant(0.5)))
            loss = tape.mean_all(tape.mul(y, y))
            return tape, loss

        tape, loss = run()
        grads = backward(tape, loss)
        report = check_gradients(lambda: run()[1].data.item(), [a, b, c], grads)
        assert report.passed, report.summary()

    def test_gather_reduction_reshape_against_finite_differences(self):
        rng = np.random.default_rng(11)
        table = Parameter("table", rng.normal(size=(7, 4)))
        ids = np.array([[1, 3, 1], [0, 6, 2]])

        def run():
            tape = Tape()
            e = tape.select(tape.watch(table), ids)
            e = tape.reshape(e, (2, 12))
            e = tape.transpose_last2(tape.reshape(e, (2, 3, 4)))
            step = tape.select(e, (np.arange(2), np.array([3, 1])))  # one step per row
            again = tape.select(tape.watch(table), np.array([5, 5, 1]))  # repeated ids
            loss = sum_all(tape.log(tape.add(tape.mul(e, e), tape.constant(1.0))))
            loss = tape.add(loss, sum_all(tape.mul(step, step)))
            loss = tape.add(loss, sum_all(tape.mul(again, again)))
            return tape, loss

        tape, loss = run()
        grads = backward(tape, loss)
        report = check_gradients(lambda: run()[1].data.item(), [table], grads)
        assert report.passed, report.summary()


class TestGRUCell:
    def test_zero_weights_halve_state(self):
        # All-zero weights: z = r = 0.5, candidate = 0, so h' = h / 2.
        tape = Tape()
        params = BiGRUParams(
            Parameter("g.w_in", np.zeros((3, 12))),
            Parameter("g.w_hid", np.zeros((2, 2, 6))),
            Parameter("g.bias", np.zeros(12)),
        )
        x = tape.constant([1.0, -1.0, 2.0])
        h = tape.constant([2.0, -4.0])
        for d in range(2):
            out = gru_cell(x, h, params, d)
            np.testing.assert_allclose(out.data, [1.0, -2.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        params = make_bigru(rng, 3, 4)
        x = rng.normal(size=3)
        h = rng.normal(size=4)
        tape = Tape()
        for d in range(2):
            out = gru_cell(tape.constant(x), tape.constant(h), params, d)
            cols = slice(12 * d, 12 * (d + 1))
            expected = scalar_gru_step(
                x.tolist(), h.tolist(), params.w_in.data[:, cols].tolist(),
                params.w_hid.data[d].tolist(), params.bias.data[cols].tolist(),
            )
            np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_input_width_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        params = make_bigru(rng, 3, 4)
        tape = Tape()
        with pytest.raises(DimensionError):
            gru_cell(tape.constant(np.zeros(5)), tape.constant(np.zeros(4)), params, 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = make_bigru(rng, 3, 2)
        x = rng.normal(size=(2, 3))
        h = rng.normal(size=(2, 2))

        def run(d):
            tape = Tape()
            out = gru_cell(tape.constant(x), tape.constant(h), params, d)
            loss = sum_all(tape.mul(out, out))
            return tape, loss

        for d in range(2):
            tape, loss = run(d)
            grads = backward(tape, loss)
            report = check_gradients(lambda: run(d)[1].data.item(), params.parameters(), grads)
            assert report.passed, report.summary()


class TestBiGRU:
    def test_matches_unrolled_cell_chains(self):
        rng = np.random.default_rng(31)
        steps, width, hidden = 3, 4, 3
        params = make_bigru(rng, width, hidden)
        x = rng.normal(size=(1, steps, width))
        h0f = rng.normal(size=(1, hidden))
        h0b = rng.normal(size=(1, hidden))

        tape = Tape()
        outputs = bigru(
            tape.constant(x), tape.constant(h0f), tape.constant(h0b), params, np.ones((1, steps))
        )
        ff, fb = final_states(outputs)

        chain = Tape()
        h = chain.constant(h0f)
        fwd = []
        for t in range(steps):
            h = gru_cell(chain.constant(x[:, t]), h, params, 0)
            fwd.append(h.data)
        h = chain.constant(h0b)
        rev = {}
        for t in reversed(range(steps)):
            h = gru_cell(chain.constant(x[:, t]), h, params, 1)
            rev[t] = h.data
        expected = np.concatenate(
            [np.stack(fwd, axis=1), np.stack([rev[t] for t in range(steps)], axis=1)], axis=-1
        )
        assert outputs.data.shape == (1, steps, 2 * hidden)
        np.testing.assert_allclose(outputs.data, expected, atol=1e-13)
        np.testing.assert_allclose(ff.data, fwd[-1], atol=1e-13)
        np.testing.assert_allclose(fb.data, rev[0], atol=1e-13)

    def test_inconsistent_weight_shapes_rejected(self):
        # w_hid says hidden 2 (3n = 6), w_in has one direction's columns only
        with pytest.raises(DimensionError, match=r"\(3, 6\).*\(2, 2, 6\).*\(12,\)"):
            BiGRUParams(
                Parameter("g.w_in", np.zeros((3, 6))),
                Parameter("g.w_hid", np.zeros((2, 2, 6))),
                Parameter("g.bias", np.zeros(12)),
            )

    def test_final_states_with_padding_ignore_padded_tail(self):
        rng = np.random.default_rng(32)
        params = make_bigru(rng, 3, 2)
        x = rng.normal(size=(1, 3, 3))
        padded = np.concatenate([x, rng.normal(size=(1, 2, 3))], axis=1)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])

        tape = Tape()
        out_short = bigru(tape.constant(x), None, None, params, np.ones((1, 3)))
        out_long = bigru(tape.constant(padded), None, None, params, mask)
        ff_s, fb_s = final_states(out_short)
        ff_l, fb_l = final_states(out_long)
        np.testing.assert_array_equal(out_long.data[:, :3], out_short.data)
        np.testing.assert_array_equal(ff_l.data, ff_s.data)
        np.testing.assert_array_equal(fb_l.data, fb_s.data)

    # A padded batch of two with distinct lengths, non-zero initial states
    # in both directions and non-zero values in the padding.
    PADDED_LENGTHS = (3, 5)

    def padded_case(self, seed):
        rng = np.random.default_rng(seed)
        steps, width, hidden = max(self.PADDED_LENGTHS), 3, 2
        params = make_bigru(rng, width, hidden)
        x = rng.normal(size=(2, steps, width))
        h0f = rng.normal(size=(2, hidden))
        h0b = rng.normal(size=(2, hidden))
        mask = np.array([[1.0] * n + [0.0] * (steps - n) for n in self.PADDED_LENGTHS])
        return params, x, h0f, h0b, mask

    def test_padded_batch_matches_stepwise_cell_chains(self):
        params, x, h0f, h0b, mask = self.padded_case(33)
        steps, hidden = x.shape[1], params.hidden

        tape = Tape()
        outputs = bigru(tape.constant(x), tape.constant(h0f), tape.constant(h0b), params, mask)
        ff, fb = final_states(outputs)

        # Per sample, each direction reads only the real tokens; past the
        # last one the forward state stays frozen and the backward state
        # is still its initial state.
        chain = Tape()
        expected = np.empty((2, steps, 2 * hidden))
        for b, length in enumerate(self.PADDED_LENGTHS):
            h = chain.constant(h0f[b : b + 1])
            for t in range(steps):
                if t < length:
                    h = gru_cell(chain.constant(x[b, t : t + 1]), h, params, 0)
                expected[b, t, :hidden] = h.data[0]
            h = chain.constant(h0b[b : b + 1])
            for t in reversed(range(steps)):
                if t < length:
                    h = gru_cell(chain.constant(x[b, t : t + 1]), h, params, 1)
                expected[b, t, hidden:] = h.data[0]
        np.testing.assert_allclose(outputs.data, expected, atol=1e-13)
        np.testing.assert_allclose(ff.data, expected[:, -1, :hidden], atol=1e-13)
        np.testing.assert_allclose(fb.data, expected[:, 0, hidden:], atol=1e-13)

    def test_gradients_match_finite_differences(self):
        # The padded batch, then the edges of the previous states the
        # backward rebuilds from the output: a one-step sequence, whose
        # only previous state is the initial one, and a batch whose second
        # row is masked throughout, so its output is its initial state at
        # every step. Initial states are non-zero in both directions.
        params, x, h0f, h0b, mask = self.padded_case(34)
        cases = [
            (x, mask),
            (x[:, :1], np.ones((2, 1))),
            (x, np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [0.0] * 5])),
        ]
        for x, mask in cases:
            x_param = Parameter("x", x)
            h0f_param = Parameter("h0f", h0f)
            h0b_param = Parameter("h0b", h0b)
            checked = params.parameters() + [x_param, h0f_param, h0b_param]

            def run():
                tape = Tape()
                outputs = bigru(
                    tape.watch(x_param), tape.watch(h0f_param), tape.watch(h0b_param), params, mask
                )
                ff, fb = final_states(outputs)
                loss = tape.add(
                    tape.mean_all(tanh(outputs)), sum_all(tape.mul(ff, fb))
                )
                return tape, loss

            tape, loss = run()
            grads = backward(tape, loss)
            report = check_gradients(lambda: run()[1].data.item(), checked, grads)
            assert report.passed, report.summary()
            assert len(report.per_param) == 6
            if not mask[1].any():
                np.testing.assert_array_equal(grads["x"][1], 0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        tape = Tape()
        x = tape.constant(np.arange(6.0).reshape(2, 3))
        out = tape.dropout(x, 0.5, None)
        assert out is x

    def test_train_mode_scales_survivors(self):
        rng = np.random.default_rng(41)
        tape = Tape()
        x = tape.constant(np.ones((2000,)))
        out = tape.dropout(x, 0.25, rng)
        kept = out.data != 0.0
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.05

    def test_same_seed_same_mask(self):
        x = np.ones((50,))
        outs = []
        for _ in range(2):
            tape = Tape()
            outs.append(tape.dropout(tape.constant(x), 0.4, np.random.default_rng(9)).data)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        params = [
            Parameter("a.w", rng.normal(size=(3, 5)) * 1e-7),
            Parameter("b.bias", rng.normal(size=(7,)) * 1e12),
            Parameter("frozen", rng.normal(size=(2, 2)), trainable=False),
        ]
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert set(loaded) == {"a.w", "b.bias", "frozen"}
        for p in params:
            assert loaded[p.id].tobytes() == p.data.tobytes()

    def test_restore_into_fresh_parameters(self, tmp_path):
        rng = np.random.default_rng(52)
        src = [Parameter("w", rng.normal(size=(4, 4)))]
        path = tmp_path / "m.ckpt"
        save_checkpoint(src, path)
        dst = [Parameter("w", np.zeros((4, 4)))]
        restore_parameters(dst, load_checkpoint(path))
        assert dst[0].data.tobytes() == src[0].data.tobytes()

    def test_missing_and_mismatched_entries_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint([Parameter("w", np.ones((2, 2)))], path)
        loaded = load_checkpoint(path)
        with pytest.raises(ContractViolation, match="missing"):
            restore_parameters([Parameter("other", np.ones(2))], loaded)
        with pytest.raises(ContractViolation, match="shape"):
            restore_parameters([Parameter("w", np.ones((3, 2)))], loaded)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(path)

    # Layout of the archive below: header bytes 0-11; entry 0 ("a.w",
    # 3 x 5) bytes 12-158; entry 1 ("b.bias", 7) from byte 159, its
    # values from byte 181 to the end at 237.
    @pytest.mark.parametrize(
        "cut, where",
        [
            (8, "the header at byte 4"),
            (17, "entry 0 at byte 16"),
            (200, "entry 1 ('b.bias') at byte 181"),
        ],
        ids=["header", "name", "values"],
    )
    def test_truncated_file_raises_located_error(self, tmp_path, cut, where):
        path = tmp_path / "model.ckpt"
        save_checkpoint([Parameter("a.w", np.ones((3, 5))), Parameter("b.bias", np.ones(7))], path)
        assert len(path.read_bytes()) == 237
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ParseError, match=re.escape(f"model.ckpt: truncated in {where}:")):
            load_checkpoint(path)

    def test_name_not_utf8_raises_located_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint([Parameter("a.w", np.ones((3, 5)))], path)
        blob = bytearray(path.read_bytes())
        blob[17] = 0xFF  # the second byte of entry 0's name, which starts at byte 16
        path.write_bytes(bytes(blob))
        message = "model.ckpt: entry 0 name is not UTF-8 at byte 17"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_checkpoint(path)


class TestNumericGradientHelper:
    def test_quadratic_has_exact_linear_derivative(self):
        p = Parameter("p", np.array([1.5, -2.0]))

        def loss():
            return float((p.data**2).sum())

        grad = numeric_gradient(loss, p)
        np.testing.assert_allclose(grad, [3.0, -4.0], atol=1e-9)
        np.testing.assert_array_equal(p.data, [1.5, -2.0])


class TestTapeLifetime:
    """With the cyclic collector off, a tape must die by reference
    counting alone as soon as nothing holds it."""

    @pytest.fixture(scope="class")
    def model_and_batch(self):
        samples = generate_synthetic(SynthConfig(samples=3, vocab_size=16, doc_len=(7, 10),
                                                 qry_len=(4, 5), candidates=3, seed=8))
        vocab = build_vocab([DatasetSplit("train", samples)])
        model = Model(vocab, EmbedConfig(word_dim=4, char_dim=3, char_hidden=4, char_out=4),
                      ReaderConfig(hops=2, hidden=6).validate(), np.random.default_rng(3))
        return model, assemble_batch(samples, vocab)

    def test_forward_batch_tape_dies_with_its_result(self, model_and_batch, live_tapes):
        model, batch = model_and_batch
        result = model.forward_batch(batch)
        tape = weakref.ref(result.tape)
        probs = result.token_probs
        del result
        assert tape() is None
        assert live_tapes() == []
        # values stay readable without the graph
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0)

    def test_backward_releases_intermediate_gradients(self, model_and_batch, live_tapes):
        model, batch = model_and_batch
        result = model.forward_batch(batch)
        tape, loss = result.tape, result.loss
        grads = backward(tape, loss)
        assert len(tape.nodes) > 50
        assert [n.op for n in tape.nodes if n is not loss and n.grad is not None] == []
        np.testing.assert_array_equal(loss.grad, 1.0)
        assert set(grads) == {param.id for param, _ in tape.watched.values()}
        for param, leaf in tape.watched.values():
            if param.trainable:
                np.testing.assert_array_equal(leaf.grad, grads[param.id])
            else:
                np.testing.assert_array_equal(grads[param.id], 0.0)

    def test_backward_releases_every_closure_and_keeps_outputs(self, model_and_batch, live_tapes):
        model, batch = model_and_batch
        result = model.forward_batch(batch)
        doc_enc, cand_probs = result.doc_enc.data.copy(), result.cand_probs.data.copy()
        backward(result.tape, result.loss)
        assert [n.op for n in result.tape.nodes if n.bwd is not None] == []
        np.testing.assert_array_equal(result.doc_enc.data, doc_enc)
        np.testing.assert_array_equal(result.cand_probs.data, cand_probs)

    def test_second_backward_on_a_tape_raises_located_error(self, model_and_batch, live_tapes):
        model, batch = model_and_batch
        result = model.forward_batch(batch)
        backward(result.tape, result.loss)
        nodes = len(result.tape.nodes)
        with pytest.raises(
            ContractViolation, match=rf"op 'neg': this tape of {nodes} nodes was already consumed"
        ):
            backward(result.tape, result.loss)

    def test_orphaned_tensor_raises_located_error(self, model_and_batch, live_tapes):
        model, batch = model_and_batch
        loss = model.forward_batch(batch).loss
        with pytest.raises(ContractViolation, match=r"op 'neg' with shape \(\) outlived its tape"):
            backward(loss.tape, loss)
        with pytest.raises(ContractViolation, match="outlived its tape"):
            loss.tape.mul(loss, loss)
        assert np.isfinite(loss.data)
