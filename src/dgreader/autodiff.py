"""Minimal dense-tensor engine with tape-based reverse-mode differentiation.

All values are float64, row-major. A Tape records every primitive
application in execution order (which is a topological order, since an
op's inputs always exist before the op runs); backward walks that record
once in reverse. Tape construction and backward are single-threaded per
model instance. Forward evaluation of the same graph with the same
inputs is bit-identical across runs.

Gate convention for the GRU primitives, fixed throughout the package:

    z = sigmoid(x Wz + h Uz + bz)          update gate
    r = sigmoid(x Wr + h Ur + br)          reset gate
    c = tanh(x Wc + (r * h) Uc + bc)       candidate
    h' = (1 - z) * h + z * c

Stacked parameter layout: a BiGRUParams stores both directions in the
layout the scan reads, as fused RNN layers do (cuDNN; Appleyard et al.
2016). w_in is (input, 2*3*hidden) with column blocks
[fwd z | r | c, bwd z | r | c], w_hid is (2, hidden, 3*hidden), each
direction's block with columns [z | r | c], and bias is (2*3*hidden,),
laid out like the columns of w_in.

bigru, the one recurrent primitive, runs its two directions stacked as
(2, B, ·) in one scan, so a single time loop, whose recurrence is
batched over directions, and a single reverse sweep serve both; the
backward direction reads the flipped input under the flipped mask. The
whole scan is one tape node: a bigru over (B, T, in) records one node
with output (B, T, 2*hidden). A caller that reads the final directional
states asks final_states for them, which records two small select
nodes.

Ownership: a Tape holds its nodes strongly, and each Tensor refers to
its tape only weakly, so the graph has no reference cycle. Whoever
holds the Tape (or a ForwardResult, which holds its tape) keeps the
whole graph alive; once the last holder lets go, reference counting
frees the tape and every activation its nodes saved, without waiting
for the cyclic collector. A tensor that outlives its tape can still be
read (.data), but using its tape raises ContractViolation.

Each activation is saved once and lives until its last reader is done.
A scan's states are saved only as its node output; its gates are held
by its backward closure alone. backward consumes the tape: it drops
each node's closure, and with it what only the closure saved, as soon
as the sweep has passed the node, and it refuses to run a second time
on the same tape. Node outputs stay readable after a backward.
"""

from __future__ import annotations

import struct
import warnings
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, DimensionError, ParseError

CHECKPOINT_MAGIC = b"DGRD"
CHECKPOINT_VERSION = 2

# Additive mask offset: exp() of anything this far below the row max
# underflows to exactly 0.0 in float64, so masked softmax entries are
# exact zeros.
MASK_OFFSET = 1e30


class Parameter:
    """A named, persistent weight array. Its gradients live only in the
    dict that backward returns.

    trainable=False parameters get a zero gradient from every backward
    pass and are never touched by the optimizer.
    """

    __slots__ = ("id", "data", "trainable")

    def __init__(self, pid: str, data: np.ndarray, trainable: bool = True):
        self.id = pid
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.trainable = trainable

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Parameter({self.id!r}, shape={self.data.shape}, trainable={self.trainable})"


class Tensor:
    """A node in the computation graph: dense float64 values plus, for op
    outputs, the references backward needs."""

    __slots__ = ("data", "grad", "_tape", "op", "bwd", "needs_grad")

    def __init__(self, data: np.ndarray, tape: "Tape"):
        self.data = data
        self.grad: np.ndarray | None = None
        self._tape = weakref.ref(tape)
        self.op: str | None = None
        self.bwd: Callable[[Tensor], None] | None = None
        self.needs_grad = False

    @property
    def tape(self) -> "Tape":
        """The tape that recorded this tensor, while something still
        holds it (see the module docstring)."""
        tape = self._tape()
        if tape is None:
            raise ContractViolation(
                f"tensor from op {self.op or 'leaf'!r} with shape {self.data.shape} "
                "outlived its tape; keep the Tape or ForwardResult while using it"
            )
        return tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, needs_grad={self.needs_grad})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.needs_grad:
        return
    # Never mutate an existing grad buffer in place: buffers may be
    # aliased when an op passes its output grad straight through.
    t.grad = g if t.grad is None else t.grad + g


class Tape:
    """Ordered record of primitive applications for one forward pass.
    One backward consumes it (see backward)."""

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.watched: dict[int, tuple[Parameter, Tensor]] = {}
        self.consumed = False

    # ---- leaves ----

    def constant(self, value) -> Tensor:
        data = np.asarray(value, dtype=np.float64)
        return Tensor(data, self)

    def watch(self, param: Parameter) -> Tensor:
        """Bring a Parameter onto this tape. Repeated watches of the same
        Parameter return the same leaf, so gradients accumulate."""
        cached = self.watched.get(id(param))
        if cached is not None:
            return cached[1]
        leaf = Tensor(param.data, self)
        leaf.needs_grad = param.trainable
        self.watched[id(param)] = (param, leaf)
        return leaf

    def _node(self, data, parents: tuple[Tensor, ...], bwd, op: str) -> Tensor:
        t = Tensor(data, self)
        t.op = op
        t.bwd = bwd
        t.needs_grad = any(p.needs_grad for p in parents)
        self.nodes.append(t)
        return t

    # ---- elementwise ----

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        def bwd(out):
            _acc(a, _unbroadcast(out.grad, a.data.shape))
            _acc(b, _unbroadcast(out.grad, b.data.shape))

        return self._node(a.data + b.data, (a, b), bwd, "add")

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        def bwd(out):
            if a.needs_grad:
                _acc(a, _unbroadcast(out.grad * b.data, a.data.shape))
            if b.needs_grad:
                _acc(b, _unbroadcast(out.grad * a.data, b.data.shape))

        return self._node(a.data * b.data, (a, b), bwd, "mul")

    def div(self, a: Tensor, b: Tensor) -> Tensor:
        def bwd(out):
            if a.needs_grad:
                _acc(a, _unbroadcast(out.grad / b.data, a.data.shape))
            if b.needs_grad:
                _acc(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))

        return self._node(a.data / b.data, (a, b), bwd, "div")

    def neg(self, a: Tensor) -> Tensor:
        def bwd(out):
            _acc(a, -out.grad)

        return self._node(-a.data, (a,), bwd, "neg")

    def log(self, a: Tensor) -> Tensor:
        def bwd(out):
            _acc(a, out.grad / a.data)

        return self._node(np.log(a.data), (a,), bwd, "log")

    # ---- linear algebra / structure ----

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.ndim < 2 or b.ndim < 2:
            raise DimensionError(
                f"matmul requires rank >= 2 operands, got {a.data.shape} and {b.data.shape}"
            )
        if a.data.shape[-1] != b.data.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
            )

        def bwd(out):
            if a.needs_grad:
                ga = np.matmul(out.grad, np.swapaxes(b.data, -1, -2))
                _acc(a, _unbroadcast(ga, a.data.shape))
            if b.needs_grad:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), out.grad)
                _acc(b, _unbroadcast(gb, b.data.shape))

        return self._node(np.matmul(a.data, b.data), (a, b), bwd, "matmul")

    def concat_last(self, parts: Sequence[Tensor]) -> Tensor:
        parts = tuple(parts)
        widths = [p.data.shape[-1] for p in parts]

        def bwd(out):
            lo = 0
            for p, w in zip(parts, widths):
                _acc(p, out.grad[..., lo : lo + w])
                lo += w

        return self._node(np.concatenate([p.data for p in parts], axis=-1), parts, bwd, "concat_last")

    def reshape(self, a: Tensor, shape) -> Tensor:
        def bwd(out):
            _acc(a, out.grad.reshape(a.data.shape))

        return self._node(a.data.reshape(shape), (a,), bwd, "reshape")

    def transpose_last2(self, a: Tensor) -> Tensor:
        def bwd(out):
            _acc(a, np.swapaxes(out.grad, -1, -2))

        return self._node(np.swapaxes(a.data, -1, -2), (a,), bwd, "transpose_last2")

    def select(self, a: Tensor, key) -> Tensor:
        """out = a[key], copied: the one indexing op. key is any numpy
        index: slices and integers, or integer arrays for a table lookup
        (table[ids]) or one step per row (a[rows, idx]). The backward
        scatters with np.add.at, so repeated rows accumulate. An integer
        array reaching outside its axis raises ContractViolation naming
        the axis, so a negative index never wraps around."""
        parts = key if isinstance(key, tuple) else (key,)
        for i, part in enumerate(parts):
            if isinstance(part, np.ndarray) and part.size:
                after_ellipsis = any(p is Ellipsis for p in parts[:i])
                axis = a.data.ndim - len(parts) + i if after_ellipsis else i
                size = a.data.shape[axis]
                if part.min() < 0 or part.max() >= size:
                    raise ContractViolation(
                        f"select index out of range [0, {size}) on axis {axis}: "
                        f"min={part.min()}, max={part.max()}"
                    )

        def bwd(out):
            if a.needs_grad:
                buf = np.zeros_like(a.data)
                np.add.at(buf, key, out.grad)
                _acc(a, buf)

        return self._node(np.ascontiguousarray(a.data[key]), (a,), bwd, "select")

    # ---- reductions ----

    def mean_all(self, a: Tensor) -> Tensor:
        size = a.data.size

        def bwd(out):
            _acc(a, np.broadcast_to(out.grad / size, a.data.shape))

        return self._node(a.data.mean(), (a,), bwd, "mean_all")

    def sum_last(self, a: Tensor) -> Tensor:
        def bwd(out):
            _acc(a, np.broadcast_to(out.grad, a.data.shape))

        return self._node(a.data.sum(axis=-1, keepdims=True), (a,), bwd, "sum_last")

    # ---- attention / regularization ----

    def masked_softmax(self, a: Tensor, mask: np.ndarray) -> Tensor:
        """Softmax over the last axis with a 0/1 mask (broadcastable to a).

        Masked positions get an additive -MASK_OFFSET before
        normalization and come out exactly zero; each output row sums to
        one over the surviving positions. A row with no unmasked entry
        is a contract violation.
        """
        mask = np.asarray(mask, dtype=np.float64)
        if not mask.any(axis=-1).all():
            raise ContractViolation("masked_softmax: a row has no unmasked positions")
        y = a.data + (mask - 1.0) * MASK_OFFSET
        if y.shape != a.data.shape:
            raise DimensionError(
                f"masked_softmax: mask {mask.shape} does not broadcast to {a.data.shape}"
            )
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y *= mask
        y /= y.sum(axis=-1, keepdims=True)

        def bwd(out):
            if a.needs_grad:
                inner = (out.grad * y).sum(axis=-1, keepdims=True)
                _acc(a, y * (out.grad - inner))

        return self._node(y, (a,), bwd, "masked_softmax")

    def dropout(self, a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
        """Inverted dropout, drawing its mask from rng. Without a generator
        (rng=None) or at rate 0 this is exactly the identity: the input
        tensor is returned unchanged."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        if rng is None or rate == 0.0:
            return a
        keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

        def bwd(out):
            _acc(a, out.grad * keep)

        return self._node(a.data * keep, (a,), bwd, "dropout")


def backward(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse pass over the tape, visiting each node exactly once.

    Returns {parameter id: gradient} for every watched parameter, the
    only place gradients are kept: d loss / d param for trainable ones,
    zeros for frozen ones and for parameters the loss does not depend
    on. Each gradient is a fresh array the caller may modify.

    The sweep frees what it has consumed: once a node's turn has come,
    its backward closure (and with it every activation that only the
    closure saved, such as a scan's gates) and its .grad are released.
    Afterwards only the loss and the watched leaves hold a .grad, and
    every node output can still be read. A backward therefore consumes
    its tape; a second one on the same tape raises ContractViolation.
    """
    if loss.tape is not tape:
        raise ContractViolation("loss tensor does not belong to the given tape")
    if loss.data.size != 1:
        raise ContractViolation(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if tape.consumed:
        raise ContractViolation(
            f"backward from op {loss.op or 'leaf'!r}: this tape of {len(tape.nodes)} nodes "
            "was already consumed by an earlier backward; run the forward again"
        )
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        bwd, node.bwd = node.bwd, None
        if bwd is not None and node.grad is not None and node.needs_grad:
            bwd(node)
            if node is not loss:
                node.grad = None
    return {
        param.id: np.array(leaf.grad)
        if param.trainable and leaf.grad is not None
        else np.zeros_like(param.data)
        for param, leaf in tape.watched.values()
    }


# ---------------------------------------------------------------------------
# GRU primitives
# ---------------------------------------------------------------------------


class BiGRUParams:
    """The weights of one bidirectional GRU: three Parameters, already in
    the stacked layout the scan reads (see the module docstring)."""

    __slots__ = ("w_in", "w_hid", "bias")

    def __init__(self, w_in: Parameter, w_hid: Parameter, bias: Parameter):
        self.w_in = w_in
        self.w_hid = w_hid
        self.bias = bias
        hid = w_hid.data.shape
        n = hid[1] if len(hid) == 3 else -1
        if hid != (2, n, 3 * n) or w_in.data.shape[1:] != (6 * n,) or bias.data.shape != (6 * n,):
            raise DimensionError(
                f"BiGRU weights disagree: w_in {w_in.data.shape}, "
                f"w_hid {w_hid.data.shape}, bias {bias.data.shape}"
            )

    @property
    def hidden(self) -> int:
        return self.w_hid.data.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_in.data.shape[0]

    def parameters(self) -> list[Parameter]:
        return [self.w_in, self.w_hid, self.bias]

    @staticmethod
    def create(rng: np.random.Generator, pid: str, input_size: int, hidden: int) -> "BiGRUParams":
        """Glorot weights and zero bias. The forward direction's w_in and
        w_hid are drawn first, then the backward direction's."""
        (w_f, u_f), (w_b, u_b) = [
            (glorot(rng, input_size, 3 * hidden), glorot(rng, hidden, 3 * hidden))
            for _ in range(2)
        ]
        return BiGRUParams(
            Parameter(f"{pid}.w_in", np.concatenate([w_f, w_b], axis=1)),
            Parameter(f"{pid}.w_hid", np.stack([u_f, u_b])),
            Parameter(f"{pid}.bias", np.zeros(6 * hidden)),
        )


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _reading_order(a: np.ndarray, d: int) -> np.ndarray:
    """(B, T, ...) in input time order -> direction d's reading order
    (direction 1 reads backward in time). Its own inverse."""
    return a[:, ::-1] if d else a


def _per_direction(a: np.ndarray, transpose: bool = False) -> np.ndarray:
    """(T, 2, B, k) -> (2, T*B, k), or (2, k, T*B) when transposed."""
    flat = a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1, a.shape[-1])
    return np.swapaxes(flat, -1, -2) if transpose else flat


def _reverse_sweep(
    g: np.ndarray, h_prevs: np.ndarray, zrs: np.ndarray, cs: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The scan's reverse time loop. g (T, 2, B, n) is the gradient of
    each step's output state and h_prevs the state each step read, both
    in reading order; zrs and cs are the saved gates. Returns the
    gradient of the gate pre-activations, laid out like xg, and the
    gradient of the initial states (2, B, n)."""
    steps = g.shape[0]
    u_t = np.swapaxes(u, -1, -2)
    d_xg = np.empty((steps, 3) + g.shape[1:])
    dh = np.zeros(g.shape[1:])
    for t in range(steps - 1, -1, -1):
        h_prev = h_prevs[t]
        z, r = zrs[t, 0], zrs[t, 1]
        c = cs[t]
        dz, dr, dc = d_xg[t, 0], d_xg[t, 1], d_xg[t, 2]
        dht = g[t] + dh
        dht_z = dht * z
        np.multiply(dht_z, 1.0 - c * c, out=dc)
        drh = dc @ u_t[2]
        np.multiply(dht_z * (c - h_prev), 1.0 - z, out=dz)
        np.multiply(drh * h_prev * r, 1.0 - r, out=dr)
        dh_zr = d_xg[t, :2] @ u_t[:2]
        dh = dht - dht_z + drh * r + dh_zr[0] + dh_zr[1]
    return d_xg, dh


def bigru(
    sequence: Tensor,
    h0_fwd: Tensor | None,
    h0_bwd: Tensor | None,
    params: BiGRUParams,
    mask: np.ndarray,
) -> Tensor:
    """Bidirectional GRU over a (B, T, in) batch of sequences under its
    (B, T) 0/1 mask.

    Returns the per-step states (B, T, 2*hidden), forward and backward
    halves side by side in the time order of the sequence; final_states
    picks the pair of final directional states out of them. The backward
    direction reads the flipped sequence under the flipped mask (step t
    consumes sequence[:, T-1-t]), so with a padded batch its final state
    is the state after the first real token.

    The two directions are stacked as (2, B, ·) and advance together, so
    one time loop and one reverse sweep serve both; each step's
    recurrence is batched over directions and gates. The whole scan is
    one tape node. It reads params.w_in and params.bias as they are and
    params.w_hid through a gate-major view, all from the live parameter
    arrays, so in-place perturbation (finite differences) is always
    seen; each gradient comes back in its parameter's own layout.

    The states are saved once, as the node's output: the backward
    rebuilds each step's previous state from it and the initial states.
    Besides the output the node saves only the gates (z, r and the
    candidate), and its backward frees each of its arrays at its last
    read.
    """
    x = sequence
    tape = x.tape
    if x.ndim != 3:
        raise DimensionError(f"bigru expects (B, T, in), got {x.data.shape}")
    batch, steps, width = x.data.shape
    if steps < 1:
        raise ContractViolation("bigru requires at least one step")
    n = params.hidden
    if width != params.input_size:
        raise DimensionError(
            f"bigru input width {x.data.shape} does not match weights {params.w_in.data.shape}"
        )
    h0s = (h0_fwd, h0_bwd)
    for h0 in h0s:
        if h0 is not None and h0.data.shape != (batch, n):
            raise DimensionError(f"bigru h0 shape {h0.data.shape}, expected {(batch, n)}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (batch, steps):
        raise DimensionError(f"bigru mask shape {mask.shape}, expected {(batch, steps)}")

    w_in, w_hid, bias = (tape.watch(p) for p in params.parameters())
    # u[g, d] is gate g's (n, n) block of direction d.
    u = w_hid.data.reshape(2, n, 3, n).transpose(2, 0, 1, 3)
    proj = x.data.reshape(batch * steps, width) @ w_in.data
    proj += bias.data  # in place: no second array as large as proj
    proj = proj.reshape(batch, steps, 2, 3, n)
    # A padded position shuts the update gate in both directions:
    # tanh(-inf) = -1 below gives z = 0 exactly, so h[t] = h[t-1] and
    # no gradient reaches the position's input.
    proj[:, :, :, 0][mask == 0.0] = -np.inf
    # Gate-major and in reading order, so that every per-step operand is
    # contiguous: xg[t, g, d] is gate g's input to direction d at step t.
    xg = np.empty((steps, 3, 2, batch, n))
    for d in range(2):
        xg[:, :, d] = _reading_order(proj[:, :, d], d).transpose(1, 2, 0, 3)
    del proj  # as large as xg; freed before the scan allocates its own arrays
    # states[0] holds the initial states and states[t + 1] the states
    # after step t; it lives only until the output is built.
    states = np.empty((steps + 1, 2, batch, n))
    for d, h0 in enumerate(h0s):
        states[0, d] = 0.0 if h0 is None else h0.data

    # sigmoid(a) = (1 + tanh(a/2)) / 2 and halving is exact, so the z and
    # r pre-activations are formed at half scale and cost one tanh.
    x_zr = xg[:, :2]
    x_zr *= 0.5
    u_zr = 0.5 * u[:2]
    u_c = u[2]
    zrs = np.empty((steps, 2, 2, batch, n))
    cs = np.empty((steps, 2, batch, n))
    h = states[0]
    for t in range(steps):
        zr = zrs[t]
        np.matmul(h, u_zr, out=zr)
        zr += x_zr[t]
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        c = cs[t]
        np.matmul(zr[1] * h, u_c, out=c)
        c += xg[t, 2]
        np.tanh(c, out=c)
        h = np.add(h, zr[0] * (c - h), out=states[t + 1])

    out_data = np.empty((batch, steps, 2 * n))
    for d in range(2):
        out_data[:, :, d * n : (d + 1) * n] = _reading_order(states[1:, d].transpose(1, 0, 2), d)
    # The backward takes the gates out of this list, so that it alone
    # holds them and can drop each at its last read.
    saved = [zrs, cs]

    def bwd(out):
        zrs, cs = saved
        saved.clear()
        # g[t, d]: gradient of direction d's state after its step t, and
        # h_prevs[t, d]: the state that step read, both in reading order.
        g = np.empty((steps, 2, batch, n))
        h_prevs = np.empty((steps, 2, batch, n))
        for d, h0 in enumerate(h0s):
            cols = slice(d * n, (d + 1) * n)
            g[:, d] = _reading_order(out.grad[:, :, cols], d).transpose(1, 0, 2)
            h_prevs[0, d] = 0.0 if h0 is None else h0.data
            h_prevs[1:, d] = _reading_order(out.data[:, :, cols], d).transpose(1, 0, 2)[:-1]
        d_xg, dh = _reverse_sweep(g, h_prevs, zrs, cs, u)
        del g, cs

        if w_hid.needs_grad:
            h_t = _per_direction(h_prevs, True)
            d_u = [
                h_t @ _per_direction(d_xg[:, 0]),
                h_t @ _per_direction(d_xg[:, 1]),
                _per_direction(zrs[:, 1] * h_prevs, True) @ _per_direction(d_xg[:, 2]),
            ]
            del h_t
            _acc(w_hid, np.concatenate(d_u, axis=-1))
        del h_prevs, zrs
        # d_proj: gradient of the projected inputs in x's time order, laid
        # out like the columns of w_in.
        d_proj = np.empty((batch, steps, 2, 3, n))
        for d in range(2):
            d_proj[:, :, d] = _reading_order(d_xg[:, :, d].transpose(2, 0, 1, 3), d)
        del d_xg
        d_proj = d_proj.reshape(batch * steps, 6 * n)
        if w_in.needs_grad:
            _acc(w_in, x.data.reshape(batch * steps, width).T @ d_proj)
        _acc(bias, d_proj.sum(axis=0))
        for h0, dh0 in zip(h0s, dh):
            if h0 is not None:
                _acc(h0, dh0)
        if x.needs_grad:
            _acc(x, (d_proj @ w_in.data.T).reshape(batch, steps, width))

    parents = (x, *(h0 for h0 in h0s if h0 is not None), w_in, w_hid, bias)
    return tape._node(out_data, parents, bwd, "bigru")


def final_states(outputs: Tensor) -> tuple[Tensor, Tensor]:
    """The final directional states of a bigru's (B, T, 2*hidden)
    outputs: the forward state after the last step, outputs[:, T-1,
    :hidden], and the backward state after the first,
    outputs[:, 0, hidden:]. Records two select nodes, so a caller asks
    for them only when something reads them."""
    tape = outputs.tape
    n = outputs.data.shape[-1] // 2
    return (
        tape.select(outputs, (slice(None), -1, slice(0, n))),
        tape.select(outputs, (slice(None), 0, slice(n, 2 * n))),
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(params: Iterable[Parameter], path) -> None:
    """Write parameters as a flat binary archive.

    Layout: magic, format version, entry count; then per entry a
    length-prefixed UTF-8 id, the rank, the dimensions (int64 LE) and
    the raw float64 LE values. Round-trips bit-exactly.
    """
    entries = list(params)
    seen: set[str] = set()
    for p in entries:
        if p.id in seen:
            raise ContractViolation(f"duplicate parameter id in checkpoint: {p.id!r}")
        seen.add(p.id)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
        for p in entries:
            name = p.id.encode("utf-8")
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", p.data.ndim))
            fh.write(np.asarray(p.data.shape, dtype="<i8").tobytes())
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read an archive written by save_checkpoint: {parameter id: array}.

    Every read is checked against the file's length, so a file cut short
    raises ParseError naming the file, the entry being read and the byte
    offset where its data runs out. An entry name that is not UTF-8 is a
    ParseError located the same way.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file (bad magic {blob[:4]!r})")
    off, where = 4, "the header"

    def read(dtype: str, count: int) -> np.ndarray:
        nonlocal off
        size = np.dtype(dtype).itemsize * count
        if count < 0 or off + size > len(blob):
            raise ParseError(
                f"{path}: truncated in {where} at byte {off}: "
                f"{size} bytes wanted, {len(blob) - off} left"
            )
        off += size
        return np.frombuffer(blob, dtype=dtype, count=count, offset=off - size)

    version, count = (int(v) for v in read("<u4", 2))
    if version != CHECKPOINT_VERSION:
        raise ParseError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    out: dict[str, np.ndarray] = {}
    for index in range(count):
        where = f"entry {index}"
        raw = read("u1", int(read("<u4", 1)[0])).tobytes()
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: {where} name is not UTF-8 at byte {off - len(raw) + exc.start}"
            ) from None
        where = f"entry {index} ({name!r})"
        shape = tuple(int(d) for d in read("<i8", int(read("<u4", 1)[0])))
        out[name] = read("<f8", int(np.prod(shape))).reshape(shape).copy()
    if off != len(blob):
        raise ParseError(f"{path}: {len(blob) - off} trailing bytes after last entry")
    return out


def restore_parameters(params: Iterable[Parameter], loaded: dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into matching parameters by id.

    A parameter missing from the archive or a shape mismatch is a
    contract violation; extra archive entries only warn.
    """
    entries = list(params)
    for p in entries:
        if p.id not in loaded:
            raise ContractViolation(f"checkpoint is missing parameter {p.id!r}")
        arr = loaded[p.id]
        if arr.shape != p.data.shape:
            raise ContractViolation(
                f"checkpoint shape mismatch for {p.id!r}: {arr.shape} vs {p.data.shape}"
            )
        p.data[...] = arr
    extra = set(loaded) - {p.id for p in entries}
    if extra:
        warnings.warn(f"checkpoint has {len(extra)} unused entries: {sorted(extra)[:5]}...")
