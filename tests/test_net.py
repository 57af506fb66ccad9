"""The trainer and loader both networks share (nextloc.net)."""

import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from nextloc import autodiff as ad
from nextloc.data import DataError
from nextloc.poi_net import PoiNet
from nextloc.user_net import UserNet

NETS = {
    "UserNet": lambda ds: UserNet(ds.n_users, ds.n_pois, dim=4, beta=1.0, seed=3),
    "PoiNet": lambda ds: PoiNet(ds.n_users, ds.n_pois, n_slots=ds.slots, dim=4,
                                slot_dim=2, seed=3),
}
# Record views of each net's training windows and context histories.
VIEWS = {"by_user": ("user_windows", "train"), "by_poi": ("poi_windows", "poi_train")}


def window_pool(ds, net):
    return getattr(ds, VIEWS[net.grouping][0])


def histories(ds, net):
    return getattr(ds, VIEWS[net.grouping][1])


def backward_by_length_groups(net, windows):
    """Every length group of the windows on its own tape, scaled by its share
    of the rows; the groups' gradients add up in the parameters.  Returns the
    summed loss."""
    total_rows = sum(len(w) - 1 for w in windows)
    loss = 0.0
    for length in sorted({len(w) for w in windows}):
        group = [w for w in windows if len(w) == length]
        tape = ad.Tape()
        part = ad.scale(net.window_loss(group, tape), (length - 1) * len(group) / total_rows, tape)
        tape.backward(part)
        loss += float(part.values)
    return loss


def hand_train(net, pool, epochs, seed, lr, batch_size):
    """Mini-batch training spelled out: each chunk's length groups are
    backpropagated apart before one optimizer step; the epoch loss is the mean
    of the chunk losses weighted by their rows."""
    opt = ad.make_optimizer("adam", net.parameters(), lr)
    rng = np.random.default_rng(seed)
    log = []
    for _ in range(epochs):
        order = rng.permutation(len(pool))
        loss_sum, rows_sum = 0.0, 0
        for start in range(0, len(pool), batch_size):
            chunk = [pool[i] for i in order[start:start + batch_size]]
            chunk_rows = sum(len(w) - 1 for w in chunk)
            chunk_loss = backward_by_length_groups(net, chunk)
            opt.step()
            loss_sum += chunk_loss * chunk_rows
            rows_sum += chunk_rows
        log.append(loss_sum / rows_sum)
    return log


@pytest.mark.parametrize("kind", sorted(NETS))
def test_mini_batch_train_matches_hand_loop(small_dataset, kind):
    trained, by_hand = NETS[kind](small_dataset), NETS[kind](small_dataset)
    pool = window_pool(small_dataset, trained)
    assert len({len(w) for w in pool}) > 1     # the row weighting is exercised
    log = trained.train(small_dataset, epochs=3, seed=5, lr=0.01, batch_size=7)
    hand_log = hand_train(by_hand, list(pool), epochs=3, seed=5, lr=0.01, batch_size=7)
    np.testing.assert_allclose(log, hand_log, rtol=0, atol=1e-12)
    for name, tensor in trained.named_parameters().items():
        np.testing.assert_allclose(tensor.values, by_hand.named_parameters()[name].values,
                                   rtol=0, atol=1e-12, err_msg=name)


def pool_batch(ds, net):
    return net.pack(ds.windows(net.grouping))


def runs(net, batch):
    """``batch`` as the runs of windows ``recurrent_window_loss`` takes one
    at a time."""
    return [batch.take(run) for run in ad.window_runs(batch.mask.sum(axis=1), net.w_out.shape[1])]


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_full_batch_chunks_take_the_one_chunk_step(small_dataset, kind, optimizer,
                                                   monkeypatch):
    """A full-batch epoch over several chunks, each backpropagated at its
    share of the rows, takes the step of one chunk holding the pool."""
    whole = NETS[kind](small_dataset)
    monkeypatch.setattr(ad, "HEAD_CELLS", 1 << 40)
    want_log = whole.train(small_dataset, epochs=3, lr=0.01, optimizer=optimizer)
    packed = pool_batch(small_dataset, whole)
    n_candidates = whole.w_out.shape[1]
    # One row (every window alone, each longer than the budget), then a
    # quarter of the pool's rows (runs of windows).
    for budget in (n_candidates, packed.rows // 4 * n_candidates):
        monkeypatch.setattr(ad, "HEAD_CELLS", budget)
        chunks = runs(whole, packed)
        sizes = [c.context.size for c in chunks]
        assert len(chunks) >= 3 and sum(sizes) == packed.context.size
        assert max(sizes) == 1 if budget == n_candidates else max(sizes) > 1
        assert all(c.rows <= budget // n_candidates or c.context.size == 1 for c in chunks)
        chunked = NETS[kind](small_dataset)
        log = chunked.train(small_dataset, epochs=3, lr=0.01, optimizer=optimizer)
        np.testing.assert_allclose(log, want_log, rtol=0, atol=1e-12)
        for name, tensor in chunked.named_parameters().items():
            np.testing.assert_allclose(tensor.values, whole.named_parameters()[name].values,
                                       rtol=0, atol=1e-12, err_msg=f"{name} at {budget}")


@pytest.mark.parametrize("kind", sorted(NETS))
def test_pool_within_one_chunk_is_one_tape_per_epoch(small_dataset, kind):
    trained, by_hand = NETS[kind](small_dataset), NETS[kind](small_dataset)
    packed = pool_batch(small_dataset, by_hand)
    assert len(runs(trained, packed)) == 1
    log = trained.train(small_dataset, epochs=3, lr=0.01)
    opt = ad.make_optimizer("adam", by_hand.parameters(), 0.01)
    hand_log = []
    for _ in range(3):
        tape = ad.Tape()
        loss = by_hand.window_loss(packed, tape)
        tape.backward(loss)
        opt.step()
        hand_log.append(float(loss.values) * packed.rows / packed.rows)   # the row-weighted mean
    assert log == hand_log
    for name, tensor in trained.named_parameters().items():
        assert np.array_equal(tensor.values, by_hand.named_parameters()[name].values), name


def training_peak(net, ds, batch_size=None):
    """Bytes traced at the peak of ``net``'s training, above what it holds
    once its pool is packed."""
    packed_at = []
    pack = net.pack

    def pack_then_reset(windows):
        batch = pack(windows)
        tracemalloc.reset_peak()
        packed_at.append(tracemalloc.get_traced_memory()[0])
        return batch

    net.pack = pack_then_reset
    tracemalloc.start()
    try:
        net.train(ds, epochs=2, batch_size=batch_size)
        return tracemalloc.get_traced_memory()[1] - packed_at[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mini_batch", [False, True])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_chunked_full_batch_training_holds_one_chunk_at_a_time(small_dataset, kind,
                                                              mini_batch, monkeypatch):
    """Chunks are run one after another and dropped: a pool cut into six or
    more chunks trains at under half the peak of one chunk holding it (about
    a fifth, measured).  A mini-batch holding the whole pool is cut the same
    way (under a half: both peaks also hold the batch's copy of the pool)."""
    net = NETS[kind](small_dataset)
    packed = pool_batch(small_dataset, net)
    batch_size = packed.context.size if mini_batch else None
    budget = packed.rows // 6 * net.w_out.shape[1]
    monkeypatch.setattr(ad, "HEAD_CELLS", budget)
    assert len(runs(net, packed)) >= 6
    NETS[kind](small_dataset).train(small_dataset, epochs=1)   # starts the head's helper
    chunked = training_peak(NETS[kind](small_dataset), small_dataset, batch_size)
    monkeypatch.setattr(ad, "HEAD_CELLS", 1 << 40)
    whole = training_peak(NETS[kind](small_dataset), small_dataset, batch_size)
    assert chunked < whole / 2


@pytest.mark.parametrize("kind", sorted(NETS))
def test_load_requires_exact_shapes(small_dataset, kind, tmp_path):
    """A (1, 1) bias would broadcast into (1, n); the loader refuses it."""
    path = tmp_path / "net.ckpt"
    NETS[kind](small_dataset).save(path)
    arrays = ad.load_checkpoint(path)
    arrays["b_out"] = arrays["b_out"][:, :1]
    ad.save_checkpoint(path, {name: ad.Tensor(a) for name, a in arrays.items()})
    with pytest.raises(DataError, match="b_out"):
        type(NETS[kind](small_dataset)).load(path)


def mixed_windows(pool, count=3):
    """Prefixes of one window, of lengths 3, 5, 7, ...: one chunk of mixed lengths."""
    longest = max(pool, key=len)
    return [longest[:3 + 2 * i] for i in range(count)]


@pytest.mark.parametrize("kind", sorted(NETS))
def test_gradient_check_on_mixed_length_windows(small_dataset, kind):
    net = NETS[kind](small_dataset)
    windows = mixed_windows(window_pool(small_dataset, net))
    # A step of 1e-4 keeps round-off in the differences of gradients near
    # 1e-5 below the bound; the truncation error it adds is about 1e-8.
    err = ad.gradient_check(lambda tape: net.window_loss(windows, tape), net.parameters(),
                            epsilon=1e-4)
    assert err < 1e-6


@pytest.mark.parametrize("kind", sorted(NETS))
def test_mixed_chunk_equals_row_weighted_length_groups(small_dataset, kind):
    net = NETS[kind](small_dataset)
    pool = window_pool(small_dataset, net)
    windows = mixed_windows(pool, count=4) + [pool[0], pool[-1]]
    tape = ad.Tape()
    loss = net.window_loss(windows, tape)
    assert len(tape) == 1
    tape.backward(loss)
    grads = {name: t.grad.copy() for name, t in net.named_parameters().items()}
    for t in net.parameters():
        t.zero_grad()
    assert abs(float(loss.values) - backward_by_length_groups(net, windows)) < 1e-12
    for name, t in net.named_parameters().items():
        np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", sorted(NETS))
def test_window_loss_is_cross_entropy_of_prediction_rows(small_dataset, kind):
    """Training scores a window as prediction scores its prefixes: the loss is
    the mean -log of score_rows_at_cuts' row at each step's target."""
    net = NETS[kind](small_dataset)
    pool = window_pool(small_dataset, net)
    for window in (max(pool, key=len), pool[-1]):    # the last of another context
        context = getattr(window[0], net.context_input[0])
        rows = net.score_rows_at_cuts(window, context, range(1, len(window)))
        targets = [getattr(e, net.target_field) for e in window[1:]]
        want = -np.mean(np.log(rows[np.arange(len(targets)), targets]))
        assert abs(float(net.window_loss([window]).values) - want) < 1e-12


@pytest.mark.parametrize("kind", sorted(NETS))
def test_ids_beyond_the_tables_are_rejected(small_dataset, kind):
    net = NETS[kind](small_dataset)
    window = window_pool(small_dataset, net)[0]
    for field in {net.context_input[0], net.target_field}:
        bad = [e._replace(**{field: 10_000}) for e in window]
        with pytest.raises(ValueError, match="out of range"):
            net.window_loss([bad])


@pytest.mark.parametrize("kind", sorted(NETS))
def test_context_id_outside_the_table_is_rejected(small_dataset, kind):
    net = NETS[kind](small_dataset)
    history = histories(small_dataset, net)
    for context in (-1, len(history)):
        with pytest.raises(ValueError, match="context"):
            net.score_rows_at_cuts(history[0], context, [len(history[0])])


def loss_and_grads(net, windows):
    """The loss of ``windows`` on a fresh tape, and every parameter's gradient."""
    for t in net.parameters():
        t.zero_grad()
    tape = ad.Tape()
    loss = net.window_loss(windows, tape)
    tape.backward(loss)
    return float(loss.values), {name: t.grad.copy() for name, t in net.named_parameters().items()}


def blocked_case(ds, kind):
    net = NETS[kind](ds)
    pool = window_pool(ds, net)
    return net, mixed_windows(pool, count=4) + [pool[0], pool[-1]]


@pytest.mark.parametrize("kind", sorted(NETS))
def test_head_blocks_agree_with_one_block(small_dataset, kind, monkeypatch):
    """Any row-block size of the output layer gives the loss and gradients of
    a budget that holds the whole batch, to round-off."""
    net, windows = blocked_case(small_dataset, kind)
    n_candidates = net.w_out.shape[1]
    monkeypatch.setattr(ad, "HEAD_CELLS", 1 << 40)
    want_loss, want = loss_and_grads(net, windows)
    for budget in (1, 7, n_candidates - 1, n_candidates, 3 * n_candidates + 1):
        monkeypatch.setattr(ad, "HEAD_CELLS", budget)
        loss, grads = loss_and_grads(net, windows)
        assert abs(loss - want_loss) < 1e-12, budget
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, want[name], rtol=0, atol=1e-12,
                                       err_msg=f"{name} at budget {budget}")


@pytest.mark.parametrize("kind", sorted(NETS))
def test_batch_within_the_default_budget_is_one_block(small_dataset, kind, monkeypatch):
    net, windows = blocked_case(small_dataset, kind)
    assert net.w_out.shape[1] * net.pack(windows).rows <= ad.HEAD_CELLS // 2
    loss, grads = loss_and_grads(net, windows)
    monkeypatch.setattr(ad, "HEAD_CELLS", 1 << 40)
    want_loss, want = loss_and_grads(net, windows)
    assert loss == want_loss
    for name, grad in grads.items():
        assert np.array_equal(grad, want[name]), name


class InlineExecutor:
    """Stands in for the head's helper thread: runs each block at once, on
    the calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("kind", sorted(NETS))
def test_head_blocks_do_not_depend_on_scheduling(small_dataset, kind, monkeypatch):
    """Blocks scored two at a time, on the calling thread and the helper,
    give the loss and gradients of the same blocks run one at a time on the
    calling thread, exactly, call after call."""
    net, windows = blocked_case(small_dataset, kind)
    rows = net.pack(windows).rows
    block_counts = [-(-rows // step) for step in (3, 6)]
    assert min(block_counts) > 4 and any(n % 2 for n in block_counts)   # a lone last block
    for step in (3, 6):
        monkeypatch.setattr(ad, "HEAD_CELLS", 2 * step * net.w_out.shape[1])
        runs = [loss_and_grads(net, windows) for _ in range(3)]
        with monkeypatch.context() as inline:
            inline.setattr(ad, "_helper", InlineExecutor())
            want_loss, want = loss_and_grads(net, windows)
        for loss, grads in runs:
            assert loss == want_loss, step
            for name, grad in grads.items():
                assert np.array_equal(grad, want[name]), f"{name} in blocks of {step} rows"


@pytest.mark.parametrize("kind", sorted(NETS))
def test_overflow_on_the_helper_thread_raises_without_warning(small_dataset, kind,
                                                             monkeypatch):
    """numpy's error state does not reach the helper thread, so its blocks
    silence overflow themselves; a RuntimeWarning would fail this test under
    the suite's warning filter."""
    net, windows = blocked_case(small_dataset, kind)
    monkeypatch.setattr(ad, "HEAD_CELLS", 2 * 3 * net.w_out.shape[1])
    for t in net.parameters():
        t.values[:] = 1e300
    for tape in (ad.Tape(), None):
        with pytest.raises(ad.NumericsError):
            net.window_loss(windows, tape)


def test_head_uses_at_most_one_helper_thread(small_dataset, monkeypatch):
    """Training whose batches fit one block starts no thread; many
    multi-block batches share one helper thread."""
    monkeypatch.setattr(ad, "_helper", None)
    before = threading.active_count()
    try:
        for make in NETS.values():
            make(small_dataset).train(small_dataset, epochs=2)
        assert ad._helper is None and threading.active_count() == before
        for kind in sorted(NETS):
            net, windows = blocked_case(small_dataset, kind)
            monkeypatch.setattr(ad, "HEAD_CELLS", 2 * net.w_out.shape[1])    # blocks of 1 row
            for _ in range(5):
                loss_and_grads(net, windows)
                assert threading.active_count() <= before + 1
        assert ad._helper is not None
    finally:
        if ad._helper is not None:
            ad._helper.shutdown(wait=True)


@pytest.mark.parametrize("kind", sorted(NETS))
def test_gradient_check_across_head_blocks(small_dataset, kind, monkeypatch):
    net = NETS[kind](small_dataset)
    windows = mixed_windows(window_pool(small_dataset, net))
    monkeypatch.setattr(ad, "HEAD_CELLS", 5 * net.w_out.shape[1])    # blocks of 5 rows
    assert net.pack(windows).rows > 2 * 5
    err = ad.gradient_check(lambda tape: net.window_loss(windows, tape), net.parameters(),
                            epsilon=1e-4)
    assert err < 1e-6


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("kind", sorted(NETS))
def test_loss_without_a_tape_forms_no_gradient(small_dataset, kind, budget, monkeypatch):
    net, windows = blocked_case(small_dataset, kind)
    if budget is not None:
        monkeypatch.setattr(ad, "HEAD_CELLS", budget)
    want_loss, _ = loss_and_grads(net, windows)
    for t in net.parameters():
        t.zero_grad()
    assert float(net.window_loss(windows, None).values) == want_loss
    for name, t in net.named_parameters().items():
        assert not t.grad.any(), name
