"""Reverse-mode automatic differentiation on dense float64 arrays.

Small by design: the models trained here have ten-dimensional embeddings and
a vanilla recurrent cell, so every operation works on tiny 2-D arrays and
records a backward closure on an explicit tape.  Passing ``tape=None`` runs
an op forward-only, which is what prediction paths use.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import DataError


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


def softmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a plain array (prediction paths, no gradient)."""
    shifted = values - values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


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


def make_optimizer(kind: str, params: Iterable[Tensor], lr: float):
    if kind == "sgd":
        return Sgd(params, lr)
    if kind == "adam":
        return Adam(params, lr)
    raise ValueError(f"unknown optimizer {kind!r}")


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
