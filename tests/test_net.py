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


def hand_train(net, pool, epochs, seed, lr, batch_size):
    """Mini-batch training spelled out: every length group of a chunk gets its
    own tape, scaled by its share of the chunk's rows, and the groups'
    gradients add up before one optimizer step; the epoch loss is the mean of
    the chunk losses weighted by their rows."""
    opt = ad.make_optimizer("adam", net.parameters(), lr)
    rng = np.random.default_rng(seed)
    log = []
    for _ in range(epochs):
        order = rng.permutation(len(pool))
        loss_sum, rows_sum = 0.0, 0
        for start in range(0, len(pool), batch_size):
            chunk = [pool[i] for i in order[start:start + batch_size]]
            chunk_rows = sum(len(w) - 1 for w in chunk)
            chunk_loss = 0.0
            for length in sorted({len(w) for w in chunk}):
                group = [w for w in chunk if len(w) == length]
                tape = ad.Tape()
                loss = ad.scale(net.window_loss(group, tape),
                                (length - 1) * len(group) / chunk_rows, tape)
                tape.backward(loss)
                chunk_loss += float(loss.values)
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
