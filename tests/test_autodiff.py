"""Unit tests for the tape-based differentiation layer."""

import math
import os
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import autodiff as ad
from nextloc.data import DataError


def tracked(x):
    return ad.Tensor(np.array(x, dtype=np.float64), requires_grad=True)


def backprop(fn, *params):
    """Run fn once on a fresh tape and return the loss value."""
    for p in params:
        p.zero_grad()
    tape = ad.Tape()
    loss = fn(tape)
    tape.backward(loss)
    return float(loss.values)


class TestCoreOps:
    def test_tanh_at_zero(self):
        """tanh(0) = 0 with unit slope: gradients pass through unchanged."""
        x = tracked(np.zeros((1, 4)))
        assert np.all(ad.tanh(x).values == 0.0)

        backprop(lambda tape: ad.softmax_cross_entropy(ad.tanh(x, tape), [2], tape), x)
        through_tanh = x.grad.copy()
        backprop(lambda tape: ad.softmax_cross_entropy(x, [2], tape), x)
        np.testing.assert_allclose(through_tanh, x.grad, atol=1e-15)

    def test_matmul_identity_passthrough(self):
        a = tracked(np.arange(9.0).reshape(3, 3))
        eye = ad.Tensor(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, a).values, a.values)

        backprop(lambda tape: ad.reduce_sum(ad.matmul(eye, a, tape), tape), a)
        np.testing.assert_allclose(a.grad, np.ones((3, 3)))

    def test_cross_entropy_uniform_logits(self):
        """Equal logits over C classes cost exactly ln C."""
        logits = tracked(np.zeros((1, 10)))
        loss = ad.softmax_cross_entropy(logits, np.array([4]))
        assert float(loss.values) == pytest.approx(math.log(10), abs=1e-12)
        assert float(loss.values) == pytest.approx(2.302585, abs=1e-6)

    def test_add_broadcast_gradient(self):
        # A bias row broadcast over the batch must collect the column sums.
        rng = np.random.default_rng(0)
        x = tracked(rng.normal(size=(4, 3)))
        bias = tracked(rng.normal(size=(1, 3)))
        backprop(lambda tape: ad.softmax_cross_entropy(
            ad.add(x, bias, tape), [0, 1, 2, 0], tape), x, bias)
        np.testing.assert_allclose(bias.grad, x.grad.sum(axis=0, keepdims=True),
                                   atol=1e-15)

    def test_concat_splits_gradient(self):
        rng = np.random.default_rng(1)
        a = tracked(rng.normal(size=(2, 2)))
        b = tracked(rng.normal(size=(2, 3)))
        whole = tracked(np.concatenate([a.values, b.values], axis=1))

        backprop(lambda tape: ad.softmax_cross_entropy(
            ad.concat([a, b], axis=1, tape=tape), [0, 4], tape), a, b)
        backprop(lambda tape: ad.softmax_cross_entropy(whole, [0, 4], tape), whole)
        np.testing.assert_allclose(a.grad, whole.grad[:, :2], atol=1e-15)
        np.testing.assert_allclose(b.grad, whole.grad[:, 2:], atol=1e-15)

    def test_embedding_lookup_accumulates_duplicates(self):
        """Lookup equals a one-hot matmul, including repeated rows."""
        rng = np.random.default_rng(2)
        table = tracked(rng.normal(size=(5, 3)))
        idx = np.array([1, 1, 3])
        onehot = ad.Tensor(np.eye(5)[idx])

        looked = ad.embedding_lookup(table, idx)
        np.testing.assert_array_equal(looked.values, table.values[idx])

        backprop(lambda tape: ad.softmax_cross_entropy(
            ad.embedding_lookup(table, idx, tape), [0, 1, 2], tape), table)
        via_lookup = table.grad.copy()
        backprop(lambda tape: ad.softmax_cross_entropy(
            ad.matmul(onehot, table, tape), [0, 1, 2], tape), table)
        np.testing.assert_allclose(via_lookup, table.grad, atol=1e-15)
        assert np.all(table.grad[0] == 0.0)  # row 0 never looked up

    def test_scale(self):
        x = tracked([[3.0, 1.0]])
        y = ad.scale(x, 0.5)
        np.testing.assert_array_equal(y.values, [[1.5, 0.5]])

        backprop(lambda tape: ad.reduce_sum(ad.scale(x, 2.0, tape), tape), x)
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_non_finite_forward_rejected(self):
        big = tracked([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(ad.NumericsError):
            ad.add(big, big)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(tracked(np.ones((2, 3))), tracked(np.ones((2, 3))))

    def test_cross_entropy_target_out_of_range(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(tracked(np.zeros((1, 3))), [3])

    def test_backward_requires_scalar(self):
        x = tracked(np.ones((2, 2)))
        tape = ad.Tape()
        out = ad.scale(x, 1.0, tape)
        with pytest.raises(ValueError):
            tape.backward(out)


class TestGradientCheck:
    def test_quadratic(self):
        """f(x) = x^2 at x=3: analytic 6, central differences agree closely."""
        x = tracked([[3.0]])

        def fn(tape):
            return ad.reduce_sum(ad.matmul(x, x, tape), tape)

        err = ad.gradient_check(fn, [x])
        assert err < 1e-7
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_constant_function(self):
        x = tracked([[2.0]])
        c = ad.Tensor(np.array([[7.0]]))

        def fn(tape):
            # Depends on x only through a zero factor.
            return ad.reduce_sum(ad.add(ad.scale(x, 0.0, tape), c, tape), tape)

        assert ad.gradient_check(fn, [x]) == 0.0

    def test_backward_linearity(self):
        """Backward of a sum of losses equals the sum of separate backwards."""
        x = tracked([[1.5, -0.5, 0.25]])

        def term(tape, factor, target):
            return ad.softmax_cross_entropy(ad.scale(x, factor, tape), [target], tape)

        def run(pieces):
            def fn(tape):
                loss = None
                for factor, target in pieces:
                    t = term(tape, factor, target)
                    loss = t if loss is None else ad.add(loss, t, tape)
                return loss
            backprop(fn, x)
            return x.grad.copy()

        combined = run([(2.0, 0), (3.0, 2)])
        separate = run([(2.0, 0)]) + run([(3.0, 2)])
        np.testing.assert_allclose(combined, separate, atol=1e-12)


def traced_peak_of_window_loss(monkeypatch, budget):
    """Traced peak bytes of one ``recurrent_window_loss`` and its backward on
    64 windows of up to 5 steps over 2,000 candidates, and its row count."""
    rng = np.random.default_rng(0)
    n_windows, n_steps, dim, n_candidates = 64, 5, 4, 2000

    def param(*shape):
        return ad.Tensor(rng.normal(0.0, 0.1, shape), requires_grad=True)

    table, context = param(50, dim), param(50, dim)
    cell = (param(dim, dim), param(dim, dim), param(1, dim))
    head = (param(2 * dim, n_candidates), param(1, n_candidates))
    mask = np.arange(n_steps) < rng.integers(1, n_steps + 1, n_windows)[:, None]
    ids = rng.integers(0, 50, (n_windows, n_steps))
    targets = rng.integers(0, n_candidates, (n_windows, n_steps))
    batch = ad.WindowBatch((ids,), ids[:, 0], targets, mask, None)
    monkeypatch.setattr(ad, "HEAD_CELLS", budget)
    tracemalloc.start()
    try:
        tape = ad.Tape()
        loss = ad.recurrent_window_loss(batch, [table], context, cell, head, tape)
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, int(mask.sum())


def test_window_loss_head_memory_is_bounded_by_its_budget(monkeypatch):
    """The (candidates x rows) softmax exists at most two blocks of half the
    budget at a time; with a budget holding the whole batch, the peak shows
    that it is measured."""
    peak, rows = traced_peak_of_window_loss(monkeypatch, 1 << 14)
    whole_head = 2000 * rows * 8
    assert peak < whole_head / 3
    peak, _ = traced_peak_of_window_loss(monkeypatch, 2000 * rows)
    assert peak > whole_head


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_scores_head_blocks(monkeypatch):
    """A child forked after the helper thread started gets a helper of its
    own instead of waiting on the parent's, which does not exist there."""
    rng = np.random.default_rng(0)
    dim, n_candidates = 4, 50
    table, context = tracked(rng.normal(0, 0.1, (50, dim))), tracked(rng.normal(0, 0.1, (50, dim)))
    cell = tuple(tracked(rng.normal(0, 0.1, shape)) for shape in ((dim, dim), (dim, dim), (1, dim)))
    head = (tracked(rng.normal(0, 0.1, (2 * dim, n_candidates))),
            tracked(rng.normal(0, 0.1, (1, n_candidates))))
    ids = rng.integers(0, 50, (16, 5))
    targets = rng.integers(0, n_candidates, (16, 5))
    monkeypatch.setattr(ad, "HEAD_CELLS", 2 * n_candidates)     # blocks of one row

    batch = ad.WindowBatch((ids,), ids[:, 0], targets, np.ones((16, 5), dtype=bool), None)

    def loss():
        return float(ad.recurrent_window_loss(batch, [table], context, cell, head).values)

    want = loss()
    pid = os.fork()
    if pid == 0:    # the child: exit 0 only if it scores the same loss within 20 s
        try:
            signal.alarm(20)
            os._exit(0 if loss() == want else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


class TestOptimizers:
    def test_sgd_single_step(self):
        p = tracked([[1.0]])
        p.grad = np.array([[2.0]])
        ad.Sgd([p], lr=0.1).step()
        assert p.values[0, 0] == pytest.approx(0.8)

    def test_zero_gradient_leaves_params(self):
        p = tracked([[1.0]])
        before = p.values.copy()
        ad.Adam([p], lr=0.5).step()
        np.testing.assert_array_equal(p.values, before)

    def test_adam_first_step_magnitude(self):
        # After bias correction the first update is lr * g / (|g| + eps),
        # essentially lr in the direction of the gradient sign.
        p = tracked([[1.0]])
        p.grad = np.array([[0.3]])
        ad.Adam([p], lr=1e-3).step()
        assert p.values[0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-6)

    def test_step_zeroes_gradients(self):
        p = tracked([[1.0]])
        p.grad = np.array([[2.0]])
        opt = ad.Sgd([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.grad, np.zeros((1, 1)))

    def test_non_finite_gradient_rejected(self):
        p = tracked([[1.0]])
        p.grad = np.array([[np.nan]])
        with pytest.raises(ad.NumericsError):
            ad.Sgd([p], lr=0.1).step()

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            ad.make_optimizer("rmsprop", [], 0.1)


def test_checkpoint_round_trip(tmp_path):
    named = {
        "weights": tracked(np.random.default_rng(3).normal(size=(4, 7))),
        "bias": tracked(np.zeros((1, 7))),
        "rate": ad.Tensor(0.25),
    }
    path = tmp_path / "net.ckpt"
    ad.save_checkpoint(path, named)
    loaded = ad.load_checkpoint(path)
    assert set(loaded) == set(named)
    for name, tensor in named.items():
        np.testing.assert_array_equal(loaded[name], tensor.values)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "not_a_ckpt"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ValueError):
        ad.load_checkpoint(path)


@pytest.mark.parametrize("entry", [
    b"\n",
    b"w\xe9ights 2\n" + bytes(16),
    b"weights -2\n",
    b"weights two\n",
    b"weights 99999999999999\n",
    b"weights 2\n" + bytes(8),
    b"a\n" + bytes(8) + b"a\n" + bytes(8),
    b"w 0" + b" 1" * 70 + b"\n",
], ids=["empty_header", "non_ascii_name", "negative_dim", "non_integer_dim",
        "more_than_the_file_holds", "truncated_buffer", "repeated_name",
        "more_dims_than_numpy_allows"])
def test_checkpoint_malformed_entries_are_data_errors(tmp_path, entry):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(ad._CKPT_MAGIC + entry)
    with pytest.raises(DataError):
        ad.load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ckpt"


def _entries(parts):
    return b"".join(f"{name} {' '.join(map(str, dims))}\n".encode("utf-8") + payload
                    for name, dims, payload in parts)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=300),
    st.lists(st.tuples(st.text(max_size=6),
                       st.lists(st.integers(-2, 2**40) | st.integers(0, 3), max_size=3),
                       st.binary(max_size=48)), max_size=4).map(_entries),
))
def test_checkpoint_fuzz_loads_or_raises_data_error(fuzz_path, body):
    """Whatever follows the magic line either loads or raises DataError."""
    fuzz_path.write_bytes(ad._CKPT_MAGIC + body)
    try:
        loaded = ad.load_checkpoint(fuzz_path)
    except DataError:
        return
    assert all(a.dtype == np.float64 for a in loaded.values())


def test_checkpoint_name_with_spaces(tmp_path):
    with pytest.raises(ValueError):
        ad.save_checkpoint(tmp_path / "x.ckpt", {"bad name": tracked(1.0)})
