"""Reverse-mode automatic differentiation on dense float64 arrays.

Small by design: the models trained here have ten-dimensional embeddings and
a vanilla recurrent cell.  Each op records one backward closure on an explicit
tape; passing ``tape=None`` runs it forward-only.

Both networks train through one fused op, ``recurrent_window_loss``, which
computes a padded batch's whole loss in plain numpy and records a single
closure with hand-written backpropagation through time, because per-op
overhead, not arithmetic, set the cost of training.  Its forward is made of
the two pieces prediction runs as well: ``recurrent_states``, the one tanh
recurrence, and ``output_softmax``, the one output layer.  The recall weights
come from the network (``UserNet._recall``), also shared by both paths.

The generic ops (``matmul`` ... ``softmax_cross_entropy``) work on tiny 2-D
arrays; no network uses them any more.  They serve the tests and the
benchmark's tracer, which looks them up by name.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import DataError

#: Cells (candidates x rows) of the two row blocks ``recurrent_window_loss``'s
#: output layer scores at once, and of one chunk of rows the stepwise
#: evaluation walk scores, 8 MiB of float64: neither grows with the rows of a
#: batch or the cuts read.
HEAD_CELLS = 1 << 20


class NumericsError(RuntimeError):
    """Non-finite value encountered in a forward pass or gradient."""


def _check_finite(values: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(values)):
        raise NumericsError(f"non-finite value in {op}")


class Tensor:
    """A dense float64 array with an optional gradient accumulator."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if self.requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops; backward() replays it in reverse."""

    def __init__(self):
        self._nodes: list[Callable[[], None]] = []

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._nodes.append(backward_fn)

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.values.shape != ():
            raise ValueError("backward() expects a scalar loss")
        if not loss.requires_grad:
            raise ValueError("loss does not depend on any tracked tensor")
        loss.grad[...] = 1.0
        for fn in reversed(self._nodes):
            fn()


def _make_output(values: np.ndarray, inputs: Sequence[Tensor]) -> Tensor:
    return Tensor(values, requires_grad=any(t.requires_grad for t in inputs))


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    values = a.values @ b.values
    _check_finite(values, "matmul")
    out = _make_output(values, (a, b))
    if tape is not None and out.requires_grad:

        def backward():
            if a.requires_grad:
                a.grad += out.grad @ b.values.T
            if b.requires_grad:
                b.grad += a.values.T @ out.grad

        tape.record(backward)
    return out


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    try:
        values = a.values + b.values
    except ValueError as exc:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}") from exc
    _check_finite(values, "add")
    out = _make_output(values, (a, b))
    if tape is not None and out.requires_grad:

        def backward():
            if a.requires_grad:
                a.grad += _unbroadcast(out.grad, a.values.shape)
            if b.requires_grad:
                b.grad += _unbroadcast(out.grad, b.values.shape)

        tape.record(backward)
    return out


def tanh(a: Tensor, tape: Tape | None = None) -> Tensor:
    values = np.tanh(a.values)
    out = _make_output(values, (a,))
    if tape is not None and out.requires_grad:

        def backward():
            if a.requires_grad:
                a.grad += out.grad * (1.0 - values * values)

        tape.record(backward)
    return out


def scale(a: Tensor, factor, tape: Tape | None = None) -> Tensor:
    """Elementwise product with a constant array or scalar (no gradient into it)."""
    f = np.asarray(factor, dtype=np.float64)
    values = a.values * f
    _check_finite(values, "scale")
    out = _make_output(values, (a,))
    if tape is not None and out.requires_grad:

        def backward():
            if a.requires_grad:
                a.grad += _unbroadcast(out.grad * f, a.values.shape)

        tape.record(backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 1, tape: Tape | None = None) -> Tensor:
    parts = list(tensors)
    if not parts:
        raise ValueError("concat of zero tensors")
    values = np.concatenate([t.values for t in parts], axis=axis)
    _check_finite(values, "concat")
    out = _make_output(values, parts)
    if tape is not None and out.requires_grad:
        sizes = [t.values.shape[axis] for t in parts]
        offsets = np.cumsum([0] + sizes)

        def backward():
            for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    index = [slice(None)] * out.grad.ndim
                    index[axis] = slice(lo, hi)
                    t.grad += out.grad[tuple(index)]

        tape.record(backward)
    return out


def embedding_lookup(table: Tensor, indices, tape: Tape | None = None) -> Tensor:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("embedding_lookup expects a 1-D index list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"embedding index out of range for table with {table.shape[0]} rows")
    values = table.values[idx]
    out = _make_output(values, (table,))
    if tape is not None and out.requires_grad:

        def backward():
            if table.requires_grad:
                np.add.at(table.grad, idx, out.grad)

        tape.record(backward)
    return out


def reduce_sum(a: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum of all elements, as the scalar shape backward() expects."""
    out = _make_output(np.float64(a.values.sum()), (a,))
    _check_finite(out.values, "reduce_sum")
    if tape is not None and out.requires_grad:

        def backward():
            if a.requires_grad:
                a.grad += float(out.grad)

        tape.record(backward)
    return out


def softmax_cross_entropy(logits: Tensor, targets, tape: Tape | None = None) -> Tensor:
    """Mean cross-entropy of softmax(logits) rows against integer targets."""
    if logits.values.ndim != 2:
        raise ValueError("softmax_cross_entropy expects 2-D logits")
    y = np.asarray(targets, dtype=np.intp)
    n_rows, n_classes = logits.values.shape
    if y.shape != (n_rows,):
        raise ValueError(f"expected {n_rows} targets, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"target index out of range for {n_classes} classes")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss_value = -log_probs[np.arange(n_rows), y].mean()
    _check_finite(np.asarray(loss_value), "softmax_cross_entropy")
    out = _make_output(np.float64(loss_value), (logits,))
    if tape is not None and out.requires_grad:
        probs = np.exp(log_probs)

        def backward():
            if logits.requires_grad:
                g = probs.copy()
                g[np.arange(n_rows), y] -= 1.0
                logits.grad += g * (float(out.grad) / n_rows)

        tape.record(backward)
    return out


def _scatter_rows(grad: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """``grad[ids[i]] += rows[i]`` for every i, repeated ids adding up, as
    ``np.add.at`` does, but in one ``bincount`` over the flattened cells."""
    n, width = grad.shape
    cells = (ids[:, None] * width + np.arange(width)).ravel()
    grad += np.bincount(cells, weights=rows.ravel(), minlength=n * width).reshape(n, width)


def _check_ids(table: Tensor, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"embedding index out of range for table with {table.shape[0]} rows")


def recurrent_states(inputs: Sequence[tuple[Tensor, np.ndarray]],
                     cell: tuple[Tensor, Tensor, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence of training and prediction: the tanh cell
    ``h = tanh(h @ w_hidden + x @ w_input + b_hidden)`` of ``cell``, from h = 0.

    Step k of window b reads the rows ``table[ids[b, k]]`` of each
    ``(table, ids)`` in ``inputs``, concatenated.  Returns the step inputs
    (B, K, Din) and the states (B, K, D).
    """
    for table, ids in inputs:
        _check_ids(table, ids)
    w_hidden, w_input, b_hidden = cell
    x = np.concatenate([table.values[ids] for table, ids in inputs], axis=-1)
    n_windows, n_steps, _ = x.shape
    dim = w_hidden.shape[0]
    x_in = (x.reshape(-1, x.shape[2]) @ w_input.values).reshape(n_windows, n_steps, dim)
    states = np.empty((n_windows, n_steps, dim))
    h = np.zeros((n_windows, dim))
    for k in range(n_steps):
        h = np.tanh(h @ w_hidden.values + x_in[:, k] + b_hidden.values)
        states[:, k] = h
    return x, states


def output_softmax(agg: np.ndarray, ctx: np.ndarray, head: tuple[Tensor, Tensor],
                   targets: np.ndarray | None = None, out: np.ndarray | None = None):
    """The output layer of training and prediction.

    Each aggregated state (N, D) is joined with its context row (N, Dc) and
    mapped by ``head`` (``w_out``, ``b_out``) to logits over the candidates,
    normalised by softmax.  The logits are candidate-major and turned into the
    softmax in place, so the (C, N) softmax is the only array of that size,
    and callers bound N (``recurrent_window_loss`` by ``HEAD_CELLS // 2``,
    ``WindowNet.score_states`` by ``CUT_BLOCK``); reducing over axis 0 runs
    across all rows at once.  Given ``out``, a C-contiguous (C, N) array, the
    softmax is written there instead of into a new array.  Returns the
    features (N, D + Dc), the softmax (C, N) and, given ``targets`` (N,), each
    row's cross-entropy, taken from the shifted logits rather than the log of
    the softmax.
    """
    w_out, b_out = head
    features = np.concatenate([agg, ctx], axis=1)
    if out is None:
        probs = w_out.values.T @ features.T
    else:
        probs = np.matmul(w_out.values.T, features.T, out=out)
    probs += b_out.values.reshape(-1, 1)
    probs -= probs.max(axis=0)
    if targets is not None:
        picked = probs[targets, np.arange(targets.size)]
    np.exp(probs, out=probs)
    z = probs.sum(axis=0)
    probs /= z
    return features, probs, None if targets is None else np.log(z) - picked


#: The one helper thread that scores every other head block of a batch
#: larger than one block: an executor of one worker, started by the first
#: such batch.
_helper = None


def _drop_helper_in_child() -> None:
    # A forked child has no helper thread, only the parent's executor object.
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_drop_helper_in_child)


def _in_pairs(score, blocks: list[slice], n_cells: int):
    """``score(rows, out)`` of each block of ``blocks``, yielded in block order.

    One block runs on the calling thread with ``out=None``.  More run two at
    a time: the calling thread scores the first of each pair and the helper
    thread the second, each writing its softmax into its own buffer of
    ``n_cells`` allocated here, on the calling thread.
    """
    global _helper
    if len(blocks) <= 1:
        yield from (score(rows, None) for rows in blocks)
        return
    if _helper is None:
        # Imported here, so that a process whose batches all fit one block
        # does not load concurrent.futures and logging (about 0.5 MiB RSS).
        from concurrent.futures import ThreadPoolExecutor
        _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nextloc-head")
    buffers = np.empty((2, n_cells))
    for lo in range(0, len(blocks), 2):
        second = [_helper.submit(score, rows, buffers[1]) for rows in blocks[lo + 1:lo + 2]]
        try:
            yield score(blocks[lo], buffers[0])
        finally:
            # Also when the first block raised: the helper's block is done
            # with the buffers and its error, if any, is not lost.
            parts = [future.result() for future in second]
        yield from parts


@np.errstate(over="ignore", invalid="ignore")
def _score_head_block(rows: slice, out, agg, ctx, head, y, nll, d_full, cells):
    """Score one row block of ``recurrent_window_loss``'s head.

    Writes the rows' cross-entropy into ``nll`` and, given ``d_full``, their
    feature gradients into it, and returns the block's part of the gradients
    of ``w_out``ᵀ (C, F) and ``b_out`` (C,), or None without ``d_full``.
    Sets its own error state: numpy's does not reach the helper thread.
    """
    n = rows.stop - rows.start
    if out is not None:
        out = out[:head[0].shape[1] * n].reshape(-1, n)
    features, g, nll[rows] = output_softmax(agg[rows], ctx[rows], head, y[rows], out)
    if d_full is None:
        return None
    g[y[rows], np.arange(n)] -= 1.0
    g *= 1.0 / y.size
    d_full.reshape(-1, features.shape[1])[cells[rows]] = (head[0].values @ g).T
    return g @ features, g.sum(axis=1)


@np.errstate(over="ignore", invalid="ignore")
def recurrent_window_loss(inputs: Sequence[tuple[Tensor, np.ndarray]],
                          cell: tuple[Tensor, Tensor, Tensor],
                          context: tuple[Tensor, np.ndarray],
                          head: tuple[Tensor, Tensor],
                          targets, mask, recall=None, tape: Tape | None = None) -> Tensor:
    """Mean next-step cross-entropy of a padded batch of windows, as one op.

    The windows run through ``recurrent_states``.  Their states are
    aggregated as ``recall @ H`` with a fixed (B, K, K) recall, or taken as
    they are when ``recall`` is None, then scored by ``output_softmax`` with
    the window's ``context`` row.  The loss is the mean cross-entropy against
    ``targets`` (B, K) over the rows where ``mask`` (B, K) is true; each
    window's valid steps are a prefix, so padding after them reaches no valid
    row.  One tape node, whose backward is backpropagation through time.

    The head scores the rows in blocks of ``HEAD_CELLS // 2 // candidates``;
    when a tape records, each block forms its part of the head's gradient at
    once and its softmax is dropped.  A batch of one block is scored on the
    calling thread; larger ones two blocks at a time, on the calling thread
    and one helper thread, so at most ``HEAD_CELLS`` cells are in flight and,
    besides the batch's states, memory stays O(HEAD_CELLS + rows x features).
    Each block's partial gradients are added in block order as its pair
    completes, so the result does not depend on the threads' scheduling.
    Overflow on the way only shows as a non-finite loss or gradient, which
    raises NumericsError, so numpy's warnings about it are silenced.
    """
    mask = np.asarray(mask, dtype=bool)
    w_hidden, w_input, b_hidden = cell
    w_out, b_out = head
    table, ids = context
    _check_ids(table, ids)
    y = np.asarray(targets, dtype=np.intp)[mask]
    n_rows = y.size
    n_candidates = w_out.shape[1]
    if y.size and (y.min() < 0 or y.max() >= n_candidates):
        raise ValueError(f"target index out of range for {n_candidates} classes")
    x, states = recurrent_states(inputs, cell)
    agg = (states if recall is None else recall @ states)[mask]
    ctx = np.repeat(table.values[ids], mask.sum(axis=1), axis=0)
    params = [t for t, _ in inputs] + [table, *cell, *head]
    record = tape is not None and any(t.requires_grad for t in params)
    # The head's gradient at a loss gradient of 1: w_outᵀ, b_out, and the
    # features at each (window, step), zero at padded steps.
    n_features = agg.shape[1] + ctx.shape[1]
    d_full = cells = None
    if record:
        d_w_out = np.zeros((n_candidates, n_features))
        d_b_out = np.zeros(n_candidates)
        d_full = np.zeros(mask.shape + (n_features,))
        cells = np.flatnonzero(mask)
    nll = np.empty(n_rows)
    step = max(1, HEAD_CELLS // 2 // n_candidates)
    blocks = [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]
    score = functools.partial(_score_head_block, agg=agg, ctx=ctx, head=head, y=y, nll=nll,
                              d_full=d_full, cells=cells)
    # Partials are added in block order whichever thread formed them, so the
    # sum does not depend on scheduling.
    for part in _in_pairs(score, blocks, step * n_candidates):
        if record:
            d_w_out += part[0]
            d_b_out += part[1]
    loss_value = float(np.mean(nll))
    if not math.isfinite(loss_value):
        raise NumericsError("non-finite value in recurrent_window_loss")
    out = _make_output(np.float64(loss_value), params)
    if not record:
        return out
    dim = states.shape[2]

    @np.errstate(over="ignore", invalid="ignore")
    def backward():
        d_loss = float(out.grad)
        if w_out.requires_grad:
            w_out.grad += (d_w_out * d_loss).T
        if b_out.requires_grad:
            b_out.grad += (d_b_out * d_loss).reshape(b_out.shape)
        np.multiply(d_full, d_loss, out=d_full)
        table, ids = context
        if table.requires_grad:
            _scatter_rows(table.grad, ids, d_full[:, :, dim:].sum(axis=1))
        d_states = d_full[:, :, :dim]
        if recall is not None:
            d_states = recall.transpose(0, 2, 1) @ d_states
        # Backpropagation through time; padded steps receive exact zeros.
        d_pre = np.empty_like(states)
        carry = np.zeros_like(states[:, 0])
        for k in reversed(range(states.shape[1])):
            h = states[:, k]
            d_pre[:, k] = (d_states[:, k] + carry) * (1.0 - h * h)
            carry = d_pre[:, k] @ w_hidden.values.T
        flat = d_pre.reshape(-1, dim)
        if w_hidden.requires_grad:
            prev = np.concatenate([np.zeros_like(states[:, :1]), states[:, :-1]], axis=1)
            w_hidden.grad += prev.reshape(-1, dim).T @ flat
        if w_input.requires_grad:
            w_input.grad += x.reshape(-1, x.shape[2]).T @ flat
        if b_hidden.requires_grad:
            b_hidden.grad += _unbroadcast(flat, b_hidden.shape)
        d_x = d_pre[mask] @ w_input.values.T
        offset = 0
        for table, ids in inputs:
            width = table.shape[1]
            if table.requires_grad:
                _scatter_rows(table.grad, ids[mask], d_x[:, offset:offset + width])
            offset += width

    tape.record(backward)
    return out


def gradient_check(fn: Callable[[Tape | None], Tensor], params: Sequence[Tensor],
                   epsilon: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    ``fn(tape)`` must rebuild the scalar loss from ``params`` on every call.
    The error per coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    loss = fn(tape)
    if not np.isfinite(loss.values):
        raise NumericsError("non-finite loss in gradient_check")
    tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    max_err = 0.0
    for p, grad in zip(params, analytic):
        flat_values = p.values.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat_values.size):
            saved = flat_values[i]
            flat_values[i] = saved + epsilon
            f_plus = float(fn(None).values)
            flat_values[i] = saved - epsilon
            f_minus = float(fn(None).values)
            flat_values[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * epsilon)
            err = abs(flat_grad[i] - numeric) / max(1e-8, abs(flat_grad[i]) + abs(numeric))
            max_err = max(max_err, err)
    return max_err


class Sgd:
    """Plain gradient descent; step() applies updates and zeroes gradients."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        self.params = [p for p in params if p.requires_grad]
        self.lr = float(lr)
        self.steps = 0

    def step(self) -> None:
        for p in self.params:
            _check_grad(p)
            p.values -= self.lr * p.grad
        self.steps += 1
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam with standard bias correction (beta1=0.9, beta2=0.999)."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.requires_grad]
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.steps = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def step(self) -> None:
        self.steps += 1
        t = self.steps
        for p, m, v in zip(self.params, self._m, self._v):
            _check_grad(p)
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self.zero_grad()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def _check_grad(p: Tensor) -> None:
    if p.grad is None:
        raise ValueError("parameter has no gradient buffer")
    if not np.all(np.isfinite(p.grad)):
        raise NumericsError("non-finite gradient")


#: The optimisers ``make_optimizer`` builds, by name.
OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


def make_optimizer(kind: str, params: Iterable[Tensor], lr: float):
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    return OPTIMIZERS[kind](params, lr)


# Checkpoint layout, version 1: the ASCII magic line below, then one entry per
# tensor: a header line "<name> <dim0> <dim1> ...\n" (no dims for scalars)
# followed by the raw little-endian float64 buffer in C order.  Entries appear
# in the dict's iteration order, which the parameter classes keep stable.
_CKPT_MAGIC = b"NLCKPT1\n"


def save_checkpoint(path, named: Mapping[str, Tensor]) -> None:
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        for name, tensor in named.items():
            if any(c.isspace() for c in name):
                raise ValueError(f"checkpoint name {name!r} contains whitespace")
            arr = np.ascontiguousarray(tensor.values, dtype="<f8")
            # ascontiguousarray promotes 0-d to 1-d; keep the true shape.
            dims = " ".join(str(n) for n in tensor.values.shape)
            header = f"{name} {dims}".rstrip() + "\n"
            f.write(header.encode("ascii"))
            f.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read save_checkpoint's layout; any departure from it raises DataError."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if f.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        size = os.fstat(f.fileno()).st_size
        while True:
            header = f.readline()
            if not header:
                break
            try:  # UnicodeDecodeError, and numpy's too-many-dimensions error, are ValueErrors
                name, *fields = header.decode("ascii").split()
                dims = tuple(int(n) for n in fields)
                nbytes = math.prod(dims) * 8
                # Sized against the file first, so a huge dimension cannot ask
                # for a huge read.
                if min(dims, default=0) < 0 or name in out or nbytes > size - f.tell():
                    raise ValueError("negative dimension, repeated name or truncated buffer")
                raw = np.frombuffer(f.read(nbytes), dtype="<f8")
                out[name] = raw.astype(np.float64).reshape(dims)
            except ValueError as exc:
                raise DataError(f"{path}: bad entry {header[:60]!r}: {exc}") from exc
    return out
