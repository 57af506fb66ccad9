"""Next-place network: decay recall, forward properties, training, persistence."""

import math

import numpy as np
import pytest

from nextloc import autodiff as ad
from nextloc.data import SECONDS_PER_DAY, CheckIn, build_dataset
from nextloc.user_net import CUT_BLOCK, UserNet, decay_weight, haversine_km


def cycle_records(n_pois=3, n_events=40, user=0, start=1_000_000):
    return [CheckIn(user, start + k * 3600, 0.0, 0.0, k % n_pois)
            for k in range(n_events)]


def make_dataset(records, window=20):
    return build_dataset(records, split_ratio=0.8, window=window)


class TestDecayWeight:
    def test_peak_at_origin(self):
        assert decay_weight(0.0, 0.0) == 1.0

    def test_half_day_antiphase(self):
        assert abs(decay_weight(0.5, 0.0)) < 1e-12

    def test_one_day_back(self):
        assert decay_weight(1.0, 0.0, alpha=0.1) == pytest.approx(math.exp(-0.1))

    def test_bounded(self):
        rng = np.random.default_rng(0)
        w = decay_weight(rng.uniform(0, 30, 1000), rng.uniform(0, 500, 1000))
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_whole_days_are_local_peaks(self):
        # At fixed distance, integer day offsets dominate their neighborhood.
        for d in (1.0, 2.0, 3.0):
            at_peak = decay_weight(d, 0.0)
            assert at_peak > decay_weight(d - 0.2, 0.0)
            assert at_peak > decay_weight(d + 0.2, 0.0)

    def test_distance_decay(self):
        assert decay_weight(0.0, 1.0, beta=2.0) == pytest.approx(math.exp(-2.0))


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km((40.0, -75.0), (40.0, -75.0)) == 0.0

    def test_half_circumference(self):
        assert haversine_km((0.0, 0.0), (0.0, 180.0)) == pytest.approx(20015.09, abs=0.01)

    def test_one_degree_at_equator(self):
        assert haversine_km((0.0, 0.0), (0.0, 1.0)) == pytest.approx(111.195, abs=0.001)

    def test_symmetry(self):
        a, b = (40.7, -74.0), (34.05, -118.24)
        assert haversine_km(a, b) == haversine_km(b, a)


class TestRecallAggregation:
    def net(self):
        return UserNet(n_users=2, n_pois=4, dim=3, seed=1)

    def test_single_step_recall_is_identity(self):
        m = self.net()._recall_matrix(np.array([[5.0]]), np.array([[40.0]]),
                                      np.array([[-75.0]]))
        assert m.shape == (1, 1, 1)
        assert m[0, 0, 0] == 1.0

    def test_equal_steps_average(self):
        """Two co-located, same-time steps weigh in equally."""
        ts = np.array([[5.0, 5.0]])
        lat = np.array([[40.0, 40.0]])
        lon = np.array([[-75.0, -75.0]])
        m = self.net()._recall_matrix(ts, lat, lon)
        np.testing.assert_allclose(m[0, 1], [0.5, 0.5])

    def test_rows_are_convex_weights(self):
        rng = np.random.default_rng(2)
        ts = np.sort(rng.uniform(0, 10, (1, 6)), axis=1)
        lat = 40.0 + rng.uniform(-0.1, 0.1, (1, 6))
        lon = -75.0 + rng.uniform(-0.1, 0.1, (1, 6))
        m = self.net()._recall_matrix(ts, lat, lon)[0]
        assert np.all(m >= 0.0)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.allclose(m, np.tril(m))  # nothing from the future

    def test_huge_distance_decay_leaves_current_step(self):
        """beta -> inf: all past weight vanishes, the current step keeps 1."""
        net = UserNet(n_users=1, n_pois=4, dim=3, beta=1e6, seed=0)
        ts = np.array([[0.0, 1.0, 2.0]])
        lat = np.array([[40.0, 41.0, 42.0]])   # ~111 km apart
        lon = np.array([[-75.0, -75.0, -75.0]])
        m = net._recall_matrix(ts, lat, lon)[0]
        np.testing.assert_allclose(m[2], [0.0, 0.0, 1.0], atol=1e-12)


class TestForward:
    def test_scores_are_distributions(self):
        ds = make_dataset(cycle_records() + cycle_records(user=1, start=2_000_000))
        net = UserNet(ds.n_users, ds.n_pois, dim=4, seed=0)
        s_u = net.predict_score_matrix(ds)
        assert s_u.shape == (2, 3)
        np.testing.assert_allclose(s_u.sum(axis=1), np.ones(2), atol=1e-9)

    def test_no_history_is_uniform(self):
        net = UserNet(n_users=1, n_pois=5, dim=3, seed=0)
        row = net.score_rows_at_cuts([], 0, [0])[0]
        np.testing.assert_allclose(row, np.full(5, 0.2))

    def test_window_too_short(self):
        net = UserNet(n_users=1, n_pois=3, dim=3, seed=0)
        with pytest.raises(ValueError):
            net.forward_window(cycle_records(n_events=1))

    def test_poi_relabeling_permutes_columns(self):
        """Permuting place labels (embeddings and output columns along) permutes
        score columns identically."""
        events = cycle_records(n_pois=4, n_events=12)
        net = UserNet(n_users=1, n_pois=4, dim=3, seed=3)
        perm = np.array([2, 0, 3, 1])   # new label of each old place

        permuted = UserNet(n_users=1, n_pois=4, dim=3, seed=3)
        permuted.poi_embeddings.values[perm] = net.poi_embeddings.values
        permuted.w_out.values[:, perm] = net.w_out.values
        permuted.b_out.values[0, perm] = net.b_out.values[0]

        renamed = [e._replace(poi=int(perm[e.poi])) for e in events]
        base = net.score_rows_at_cuts(events, 0, [4, 9])
        moved = permuted.score_rows_at_cuts(renamed, 0, [4, 9])
        np.testing.assert_allclose(moved[:, perm], base, atol=1e-12)


def per_cut_rows(net, events, user, cuts):
    """One cut at a time: reweight the prefix's states from its last event."""
    states = net._hidden_states(events)
    rows = []
    for cut in cuts:
        if cut == 0:
            rows.append(np.full(net.n_pois, 1.0 / net.n_pois))
            continue
        last = events[cut - 1]
        w = np.array([decay_weight((last.t - e.t) / SECONDS_PER_DAY,
                                   haversine_km((last.lat, last.lon), (e.lat, e.lon)),
                                   net.alpha, net.beta) for e in events[:cut]])
        agg = (w / w.sum()) @ states[:cut]
        logits = np.concatenate([agg, net.user_embeddings.values[user]]) @ net.w_out.values
        rows.append(ad.softmax_rows((logits + net.b_out.values[0])[None, :])[0])
    return np.array(rows)


class TestCutRows:
    @pytest.fixture(scope="class")
    def wandering(self):
        """A history longer than one block of cuts, at uneven times and places."""
        rng = np.random.default_rng(5)
        n = CUT_BLOCK + 70
        times = 1_000_000 + np.cumsum(rng.integers(600, 3 * 86_400, n))
        return [CheckIn(1, int(t), float(rng.uniform(40, 41)), float(rng.uniform(-75, -74)),
                        int(rng.integers(0, 6))) for t in times]

    @pytest.fixture(scope="class")
    def net(self):
        return UserNet(n_users=2, n_pois=6, dim=5, beta=1.0, seed=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_cut_loop_for_shuffled_and_repeated_cuts(self, net, wandering, seed):
        rng = np.random.default_rng(seed)
        cuts = rng.integers(0, len(wandering) + 1, size=2 * CUT_BLOCK + 11)
        cuts[:3] = [0, len(wandering), 1]
        np.testing.assert_allclose(net.score_rows_at_cuts(wandering, 1, cuts),
                                   per_cut_rows(net, wandering, 1, cuts), rtol=0, atol=1e-12)

    def test_order_of_cuts_only_permutes_rows(self, net, wandering):
        cuts = np.arange(len(wandering) + 1)
        perm = np.random.default_rng(9).permutation(cuts.size)
        np.testing.assert_allclose(net.score_rows_at_cuts(wandering, 1, cuts[perm]),
                                   net.score_rows_at_cuts(wandering, 1, cuts)[perm],
                                   rtol=0, atol=1e-12)

    def test_cut_zero_is_uniform_and_no_cuts_is_empty(self, net, wandering):
        np.testing.assert_array_equal(net.score_rows_at_cuts(wandering, 1, [0, 0]),
                                      np.full((2, 6), 1.0 / 6))
        assert net.score_rows_at_cuts(wandering, 1, []).shape == (0, 6)

    @pytest.mark.parametrize("cut", [-1, CUT_BLOCK + 71])
    def test_cut_outside_history_rejected(self, net, wandering, cut):
        with pytest.raises(ValueError, match="cuts"):
            net.score_rows_at_cuts(wandering, 1, [3, cut])


class TestTraining:
    def test_loss_drops_on_structured_data(self):
        ds = make_dataset(cycle_records(n_events=50))
        net = UserNet(ds.n_users, ds.n_pois, dim=6, seed=0)
        log = net.train(ds, epochs=40, seed=0, lr=0.05)
        assert log[-1] < log[0]

    def test_same_seed_same_log(self):
        ds = make_dataset(cycle_records(n_events=30))
        logs = []
        for _ in range(2):
            net = UserNet(ds.n_users, ds.n_pois, dim=4, seed=7)
            logs.append(net.train(ds, epochs=5, seed=7, lr=0.01))
        assert logs[0] == logs[1]

    def test_zero_epochs_changes_nothing(self):
        ds = make_dataset(cycle_records(n_events=30))
        net = UserNet(ds.n_users, ds.n_pois, dim=4, seed=0)
        before = [p.values.copy() for p in net.parameters()]
        assert net.train(ds, epochs=0) == []
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p.values, b)

    def test_batched_and_seeded_shuffling(self):
        ds = make_dataset(cycle_records(n_events=50), window=6)
        net = UserNet(ds.n_users, ds.n_pois, dim=4, seed=1)
        log = net.train(ds, epochs=3, seed=1, lr=0.01, batch_size=2)
        assert len(log) == 3 and all(np.isfinite(v) for v in log)


def test_save_load_round_trip(tmp_path):
    net = UserNet(n_users=3, n_pois=5, dim=4, alpha=0.2, beta=3.0, seed=9)
    path = tmp_path / "user.ckpt"
    net.save(path)
    loaded = UserNet.load(path)
    assert loaded.alpha == 0.2 and loaded.beta == 3.0
    for name, tensor in net.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].values,
                                       tensor.values)
    # The restored model scores identically.
    events = cycle_records(n_pois=5, n_events=8)
    np.testing.assert_array_equal(net.score_rows_at_cuts(events, 1, [8]),
                                  loaded.score_rows_at_cuts(events, 1, [8]))


def test_load_rejects_foreign_checkpoint(tmp_path):
    from nextloc.poi_net import PoiNet
    path = tmp_path / "poi.ckpt"
    PoiNet(n_users=2, n_pois=2, dim=3, slot_dim=2).save(path)
    with pytest.raises(ValueError, match="not a next-place"):
        UserNet.load(path)
