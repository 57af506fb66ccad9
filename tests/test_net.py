"""The trainer and loader both networks share (nextloc.net)."""

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
    pool = getattr(small_dataset, trained.window_pool)
    assert len({len(w) for w in pool}) > 1     # the row weighting is exercised
    log = trained.train(small_dataset, epochs=3, seed=5, lr=0.01, batch_size=7)
    hand_log = hand_train(by_hand, list(pool), epochs=3, seed=5, lr=0.01, batch_size=7)
    np.testing.assert_allclose(log, hand_log, rtol=0, atol=1e-12)
    for name, tensor in trained.named_parameters().items():
        np.testing.assert_allclose(tensor.values, by_hand.named_parameters()[name].values,
                                   rtol=0, atol=1e-12, err_msg=name)


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
    windows = mixed_windows(getattr(small_dataset, net.window_pool))
    # A step of 1e-4 keeps round-off in the differences of gradients near
    # 1e-5 below the bound; the truncation error it adds is about 1e-8.
    err = ad.gradient_check(lambda tape: net.window_loss(windows, tape), net.parameters(),
                            epsilon=1e-4)
    assert err < 1e-6


@pytest.mark.parametrize("kind", sorted(NETS))
def test_mixed_chunk_equals_row_weighted_length_groups(small_dataset, kind):
    net = NETS[kind](small_dataset)
    pool = getattr(small_dataset, net.window_pool)
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
    pool = getattr(small_dataset, net.window_pool)
    for window in (max(pool, key=len), pool[-1]):    # the last of another context
        context = getattr(window[0], net.context_input[0])
        rows = net.score_rows_at_cuts(window, context, range(1, len(window)))
        targets = [getattr(e, net.target_field) for e in window[1:]]
        want = -np.mean(np.log(rows[np.arange(len(targets)), targets]))
        assert abs(float(net.window_loss([window]).values) - want) < 1e-12


@pytest.mark.parametrize("kind", sorted(NETS))
def test_ids_beyond_the_tables_are_rejected(small_dataset, kind):
    net = NETS[kind](small_dataset)
    window = getattr(small_dataset, net.window_pool)[0]
    for field in {net.context_input[0], net.target_field}:
        bad = [e._replace(**{field: 10_000}) for e in window]
        with pytest.raises(ValueError, match="out of range"):
            net.window_loss([bad])
