"""Reverse-mode automatic differentiation on dense float64 arrays.

Small by design: the models trained here have ten-dimensional embeddings and
a vanilla recurrent cell.  Each op records one backward closure on an explicit
tape; passing ``tape=None`` runs it forward-only.

Both networks train through one fused op, ``recurrent_window_loss``: a
``WindowBatch``'s loss and, by hand-written backpropagation through time, its
gradient, in plain numpy, one run of windows at a time, as one tape node,
because per-op overhead, not arithmetic, set training's cost.  Its forward is
made of the two pieces prediction runs as well: ``recurrent_states``, the one
tanh recurrence, and ``output_softmax``, the one output layer.  The recall
weights come from the network (``UserNet._recall``), also shared by both
paths.

The generic ops (``matmul`` ... ``softmax_cross_entropy``) work on tiny 2-D
arrays; no network uses them any more.  They serve the tests and the
benchmark's tracer, which looks them up by name.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import DataError

#: Cells (candidates x rows) in flight at once, 8 MiB of float64: the two row
#: blocks ``recurrent_window_loss``'s head scores together, or the two chunks
#: the stepwise walk's row streams hold.  A run of training windows
#: (``window_runs``) predicts at most ``HEAD_CELLS // candidates`` rows.
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
        """Add to every tracked tensor's gradient the derivative of the
        scalar ``loss``."""
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
def _score_head_block(rows: slice, out, agg, context, head, y, nll, d_full, cells, weight):
    """Score one row block of a run of ``recurrent_window_loss``'s windows,
    row i read with the row ``table[owners[i]]`` of ``context``: write the
    rows' cross-entropy into ``nll`` and, given ``d_full``, their feature
    gradients at ``weight`` per row into it; return the block's parts of the
    gradients of ``w_out``ᵀ (C, F) and ``b_out`` (C,), or None without
    ``d_full``.  Sets its own error state: numpy's does not reach the helper."""
    n = rows.stop - rows.start
    if out is not None:
        out = out[:head[0].shape[1] * n].reshape(-1, n)
    table, owners = context    # rows gathered per block, as an argument: dropped on return
    features, g, nll[rows] = output_softmax(agg[rows], table.values.take(owners[rows], axis=0),
                                            head, y[rows], out)
    if d_full is None:
        return None
    g[y[rows], np.arange(n)] -= 1.0
    g *= weight
    d_full.reshape(-1, features.shape[1])[cells[rows]] = (head[0].values @ g).T
    return g @ features, g.sum(axis=1)


@dataclasses.dataclass(frozen=True)
class WindowBatch:
    """Windows of mixed lengths padded to K steps (the longest window's).

    Step k of window b reads its inputs at ``steps[i][b, k]`` and predicts
    ``targets[b, k]``; ``mask[b, k]`` marks the real steps, a prefix of each row.
    """
    steps: tuple[np.ndarray, ...]    # (B, K) ids, one array per step table
    context: np.ndarray              # (B,) id of each window's context row
    targets: np.ndarray              # (B, K)
    mask: np.ndarray                 # (B, K) bool
    recall: np.ndarray | None        # (B, K, K) fixed recall weights, or None

    @property
    def rows(self) -> int:
        return int(self.mask.sum())

    def take(self, index) -> "WindowBatch":
        """The windows at ``index``, padded only to the longest of them;
        views of this batch's arrays when ``index`` is a slice."""
        mask = self.mask[index]
        k = int(mask.sum(axis=1).max())
        return WindowBatch(
            steps=tuple(s[index, :k] for s in self.steps), context=self.context[index],
            targets=self.targets[index, :k], mask=mask[:, :k],
            recall=None if self.recall is None else self.recall[index, :k, :k])


def window_runs(lengths: np.ndarray, n_candidates: int) -> list[slice]:
    """The runs of windows ``recurrent_window_loss`` takes one at a time: of
    consecutive windows with ``lengths`` predicted rows, at most ``HEAD_CELLS
    // n_candidates`` rows in all, or one window that alone holds more."""
    limit = HEAD_CELLS // n_candidates
    ends = np.cumsum(lengths)
    bounds = [0]
    while bounds[-1] < ends.size:
        done = ends[bounds[-1] - 1] if bounds[-1] else 0
        bounds.append(max(bounds[-1] + 1, int(np.searchsorted(ends, done + limit, "right"))))
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@np.errstate(over="ignore", invalid="ignore")
def recurrent_window_loss(batch: WindowBatch, tables: Sequence[Tensor], context: Tensor,
                          cell: tuple[Tensor, Tensor, Tensor], head: tuple[Tensor, Tensor],
                          tape: Tape | None = None) -> Tensor:
    """Mean next-step cross-entropy of a padded ``batch`` of windows, as one op.

    Step k of window b reads the rows ``tables[i][batch.steps[i][b, k]]``,
    concatenated, through ``recurrent_states`` with ``cell``.  The states,
    aggregated as ``batch.recall @ H`` when the batch has a recall, and the
    window's row ``context[batch.context[b]]`` are scored by ``output_softmax``
    with ``head``.  The loss is the mean cross-entropy against
    ``batch.targets`` over the rows of ``batch.mask``, a prefix of each
    window, so padding reaches no valid row.  One tape node.

    Each ``window_runs`` run, taken as ``batch.take(run)``, runs its
    recurrence, head and, when a tape records, backpropagation through time
    at once, adding its gradients (at 1 / the batch's rows per row) into one
    buffer per parameter in run order; the node's backward adds the buffers,
    times the loss gradient, to the parameters' gradients.  One run is the
    whole batch's arithmetic; more sum it in another order.  The head scores
    a run in blocks of ``HEAD_CELLS // 2 // candidates`` rows, two at a time
    on the calling and the helper thread once there are more (``_in_pairs``),
    their parts added in block order, so results do not depend on scheduling.
    Memory, besides the batch and the buffers: ``HEAD_CELLS`` cells and one
    run's padded steps x (D + features).  Overflow shows only as a non-finite
    loss or gradient, which raises NumericsError, so numpy's warnings about
    it are silenced.
    """
    _check_ids(context, batch.context)
    params = list({id(t): t for t in [*tables, context, *cell, *head]}.values())
    record = tape is not None and any(t.requires_grad for t in params)
    grads = {id(t): np.zeros(t.shape) for t in params} if record else None
    lengths = batch.mask.sum(axis=1)
    n_rows = int(lengths.sum())
    total = 0.0
    for run in window_runs(lengths, head[0].shape[1]):
        total += _run_windows(batch.take(run), tables, context, cell, head, grads, 1.0 / n_rows)
    loss_value = total / n_rows
    if not math.isfinite(loss_value):
        raise NumericsError("non-finite value in recurrent_window_loss")
    out = _make_output(np.float64(loss_value), params)
    if record:

        @np.errstate(over="ignore", invalid="ignore")
        def backward():
            d_loss = float(out.grad)
            for t in params:
                if t.requires_grad:
                    t.grad += grads[id(t)] * d_loss

        tape.record(backward)
    return out


def _run_windows(batch: WindowBatch, tables, context, cell, head, grads, weight) -> float:
    """One run of ``recurrent_window_loss``: its rows' summed cross-entropy;
    their gradients, at ``weight`` per row, are added into ``grads`` (buffers
    by parameter id), if given.  Nothing it allocates outlives the call."""
    w_hidden, w_input, b_hidden = cell
    w_out, b_out = head
    mask = batch.mask
    y = batch.targets[mask]
    if y.size and (y.min() < 0 or y.max() >= w_out.shape[1]):
        raise ValueError(f"target index out of range for {w_out.shape[1]} classes")
    x, states = recurrent_states(list(zip(tables, batch.steps)), cell)
    agg = (states if batch.recall is None else batch.recall @ states)[mask]
    owners = np.repeat(batch.context, mask.sum(axis=1))    # each row's context id
    nll = np.empty(y.size)
    d_full = cells = None
    if grads is not None:
        # The features' gradient at each (window, step), zero at padded steps.
        d_full = np.zeros(mask.shape + (agg.shape[1] + context.shape[1],))
        cells = np.flatnonzero(mask)
        d_w_out, d_b_out = grads[id(w_out)].T, grads[id(b_out)].reshape(-1)
    step = max(1, HEAD_CELLS // 2 // w_out.shape[1])
    blocks = [slice(lo, min(lo + step, y.size)) for lo in range(0, y.size, step)]
    score = functools.partial(_score_head_block, agg=agg, context=(context, owners), head=head,
                              y=y, nll=nll, d_full=d_full, cells=cells, weight=weight)
    for part in _in_pairs(score, blocks, step * w_out.shape[1]):
        if grads is not None:
            d_w_out += part[0]
            d_b_out += part[1]
    if grads is None:
        return nll.sum()
    dim = states.shape[2]
    _scatter_rows(grads[id(context)], batch.context, d_full[:, :, dim:].sum(axis=1))
    d_states = d_full[:, :, :dim]
    if batch.recall is not None:
        d_states = batch.recall.transpose(0, 2, 1) @ d_states
    # Backpropagation through time; padded steps receive exact zeros.
    d_pre = np.empty_like(states)
    carry = np.zeros_like(states[:, 0])
    for k in reversed(range(states.shape[1])):
        h = states[:, k]
        d_pre[:, k] = (d_states[:, k] + carry) * (1.0 - h * h)
        carry = d_pre[:, k] @ w_hidden.values.T
    flat = d_pre.reshape(-1, dim)
    prev = np.concatenate([np.zeros_like(states[:, :1]), states[:, :-1]], axis=1)
    grads[id(w_hidden)] += prev.reshape(-1, dim).T @ flat
    grads[id(w_input)] += x.reshape(-1, x.shape[2]).T @ flat
    grads[id(b_hidden)] += _unbroadcast(flat, b_hidden.shape)
    d_x = d_pre[mask] @ w_input.values.T
    offset = 0
    for table, ids in zip(tables, batch.steps):
        width = table.shape[1]
        _scatter_rows(grads[id(table)], ids[mask], d_x[:, offset:offset + width])
        offset += width
    return nll.sum()


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
