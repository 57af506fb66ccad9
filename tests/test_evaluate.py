"""Fusion, ranking, metric, and report tests."""

import json
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from nextloc import association
from nextloc.data import CheckIn, DataError, build_dataset
from nextloc.evaluate import (WIRING, EvalReport, FusionStrategy, TrainSettings,
                              _UserSideRows, acc_at_k, case_report,
                              evaluate_with_nets, fuse, mrr, motivation_stats,
                              rank_of_truth, rank_top_k, run_battery,
                              single_report)
from nextloc.poi_net import PoiNet
from nextloc.user_net import UserNet


@pytest.fixture(scope="module")
def nets(small_dataset):
    """Untrained but fully functional networks — forward passes are all the
    wiring tests need."""
    user_net = UserNet(small_dataset.n_users, small_dataset.n_pois, dim=4,
                       beta=1.0, seed=3)
    poi_net = PoiNet(small_dataset.n_users, small_dataset.n_pois,
                     n_slots=small_dataset.slots, dim=4, slot_dim=2, seed=4)
    return user_net, poi_net


class TestFusionStrategy:
    def test_parse_plain_kind(self):
        assert FusionStrategy.parse("maxpool") == FusionStrategy("maxpool")

    def test_parse_weighted(self):
        st = FusionStrategy.parse("weighted_add:0.7,0.3")
        assert (st.kind, st.w_user, st.w_poi) == ("weighted_add", 0.7, 0.3)
        assert FusionStrategy.parse(st.label()) == st

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fusion kind"):
            FusionStrategy("geomean")

    @pytest.mark.parametrize("w_user,w_poi", [(0.7, 0.7), (-0.2, 1.2), (1.0, 0.1)])
    def test_bad_weights_rejected(self, w_user, w_poi):
        with pytest.raises(ValueError, match="weights"):
            FusionStrategy("weighted_add", w_user, w_poi)


class TestFuse:
    S_U = np.array([[0.2, 0.5]])          # one user, two places
    S_L = np.array([[0.3], [0.1]])        # two places, one user

    def test_maxpool_cell_by_cell(self):
        np.testing.assert_array_equal(fuse(self.S_U, self.S_L), [[0.3, 0.5]])

    def test_weighted_add(self):
        st = FusionStrategy("weighted_add", 0.4, 0.6)
        np.testing.assert_allclose(fuse(self.S_U, self.S_L, st), [[0.26, 0.26]])

    def test_multiply_minpool_sum(self):
        np.testing.assert_allclose(
            fuse(self.S_U, self.S_L, FusionStrategy("multiply")), [[0.06, 0.05]])
        np.testing.assert_array_equal(
            fuse(self.S_U, self.S_L, FusionStrategy("minpool")), [[0.2, 0.1]])
        np.testing.assert_allclose(
            fuse(self.S_U, self.S_L, FusionStrategy("sum")), [[0.5, 0.6]])

    def test_silent_place_side_leaves_maxpool_unchanged(self):
        zeros = np.zeros((2, 1))
        np.testing.assert_array_equal(fuse(self.S_U, zeros), self.S_U)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            fuse(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(3))
    def test_pooling_dominance(self, seed):
        """maxpool bounds every convex combination from above, minpool from
        below, for any pair of score matrices."""
        rng = np.random.default_rng(seed)
        s_u, s_l = rng.random((4, 6)), rng.random((6, 4))
        top = fuse(s_u, s_l)
        bottom = fuse(s_u, s_l, FusionStrategy("minpool"))
        mixed = fuse(s_u, s_l, FusionStrategy("weighted_add", 0.3, 0.7))
        assert (top >= s_u).all() and (top >= s_l.T).all()
        assert (bottom <= s_u).all() and (bottom <= s_l.T).all()
        assert (bottom <= mixed + 1e-15).all() and (mixed <= top + 1e-15).all()


class TestRanking:
    def test_top_k_descending_with_stable_ties(self):
        scores = np.array([0.1, 0.9, 0.4, 0.9])
        np.testing.assert_array_equal(rank_top_k(scores, 3), [1, 3, 2])
        np.testing.assert_array_equal(rank_top_k(scores, 1), [1])

    @pytest.mark.parametrize("k", [0, -2, 5])
    def test_top_k_bounds(self, k):
        with pytest.raises(ValueError):
            rank_top_k(np.array([0.1, 0.2, 0.3, 0.4]), k)

    def test_order_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        np.testing.assert_array_equal(rank_top_k(scores, 30),
                                      rank_top_k(np.exp(scores), 30))

    def test_rank_of_truth_tie_rule(self):
        scores = np.array([0.5, 0.8, 0.5, 0.2])
        assert rank_of_truth(scores, 1) == 1
        assert rank_of_truth(scores, 0) == 2   # beaten only by 0.8
        assert rank_of_truth(scores, 2) == 3   # the tie at index 0 sorts first
        assert rank_of_truth(scores, 3) == 4

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_of_truth_agrees_with_full_sort(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 5, size=12) / 4.0   # plenty of ties
        order = list(rank_top_k(scores, 12))
        for truth in range(12):
            assert rank_of_truth(scores, truth) == order.index(truth) + 1


class TestMetrics:
    def test_reciprocal_rank_mean(self):
        lists = [[7, 3, 2, 5], [1, 2, 3, 4]]
        assert mrr(lists, [7, 4]) == 0.625

    def test_acc_counts_hits_in_prefix(self):
        lists = [[0, 1, 2], [2, 1, 0], [1, 0, 2]]
        truths = [0, 0, 0]
        assert acc_at_k(lists, truths, 1) == pytest.approx(1 / 3)
        assert acc_at_k(lists, truths, 2) == pytest.approx(2 / 3)
        assert acc_at_k(lists, truths, 3) == 1.0

    def test_acc_monotone_in_k(self):
        rng = np.random.default_rng(1)
        lists = [rng.permutation(10) for _ in range(40)]
        truths = [int(rng.integers(10)) for _ in range(40)]
        values = [acc_at_k(lists, truths, k) for k in range(1, 11)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_error_paths(self):
        with pytest.raises(ValueError, match="length"):
            acc_at_k([[0]], [0, 1], 1)
        with pytest.raises(ValueError, match="empty"):
            mrr([], [])
        with pytest.raises(ValueError, match="missing"):
            mrr([[0, 1]], [5])


class TestEvaluateWiring:
    def test_unknown_variant_rejected(self, small_dataset, nets):
        with pytest.raises(ValueError, match="variant"):
            evaluate_with_nets(small_dataset, *nets, variant="oracle")

    def test_oversized_k_rejected(self, small_dataset, nets):
        with pytest.raises(ValueError, match="top-k"):
            evaluate_with_nets(small_dataset, *nets, ks=(1, 999))

    def test_user_side_required(self, small_dataset, nets):
        with pytest.raises(ValueError, match="user-side"):
            evaluate_with_nets(small_dataset, None, nets[1], variant="full")

    @pytest.mark.parametrize("mode_kw", [{"s_u_mode": "frozen"},
                                         {"s_l_mode": "live"}])
    def test_unknown_row_modes_rejected(self, small_dataset, nets, mode_kw):
        with pytest.raises(ValueError, match="mode"):
            evaluate_with_nets(small_dataset, *nets, **mode_kw)

    def test_result_shape(self, small_dataset, nets):
        out = evaluate_with_nets(small_dataset, *nets, variant="user_net_only")
        assert set(out) >= {"variant", "fusion", "n", "acc", "mrr",
                            "unseen", "per_user"}
        assert out["n"] == sum(len(evs) for evs in small_dataset.test)
        assert out["n"] == sum(v["n"] for v in out["per_user"].values())
        assert 0.0 < out["mrr"] <= 1.0
        assert set(out["acc"]) == {1, 5, 10}

    def test_next_visitor_task_ranks_users(self, small_dataset, nets):
        out = evaluate_with_nets(small_dataset, None, nets[1],
                                 variant="poi_net_only", ks=(1, 5))
        assert out["n"] == sum(len(evs) for evs in small_dataset.poi_test)
        assert set(out["acc"]) == {1, 5}

    def test_static_full_wiring_matches_hand_loop(self, small_dataset, nets):
        """Offline-mode oracle: rebuild the whole pipeline out of the public
        matrix pieces and require the identical MRR."""
        user_net, poi_net = nets
        ds = small_dataset
        corr_u = association.user_similarity(ds)
        corr_l = association.poi_similarity(ds)
        s_u = user_net.predict_score_matrix(ds, at="train_end")
        s_l = poi_net.predict_score_matrix(ds)
        fused = fuse(association.adjust_user_scores(corr_u, s_u),
                     association.adjust_poi_scores(corr_l, s_l))
        ranks = [rank_of_truth(fused[u], e.poi)
                 for u in range(ds.n_users) for e in ds.test[u]]
        expected = float(np.mean(1.0 / np.asarray(ranks)))

        out = evaluate_with_nets(ds, user_net, poi_net, variant="full",
                                 corr_u=corr_u, corr_l=corr_l, s_l=s_l,
                                 s_u_mode="static", s_l_mode="static")
        assert out["mrr"] == expected

    def test_identity_wiring_collapses_to_single_net(self, small_dataset, nets):
        """Identity similarity plus a silent place side must reproduce the
        lone user network's ranking behaviour."""
        user_net, poi_net = nets
        ds = small_dataset
        eye_u = np.eye(ds.n_users)
        eye_l = np.eye(ds.n_pois)
        alone = evaluate_with_nets(ds, user_net, poi_net, variant="user_net_only",
                                   s_u_mode="static")
        wired = evaluate_with_nets(ds, user_net, poi_net, variant="full",
                                   corr_u=eye_u, corr_l=eye_l,
                                   s_l=np.zeros((ds.n_pois, ds.n_users)),
                                   s_u_mode="static", s_l_mode="static")
        assert wired["mrr"] == pytest.approx(alone["mrr"], abs=1e-12)
        for k in (1, 5, 10):
            assert wired["acc"][k] == pytest.approx(alone["acc"][k], abs=1e-12)


USER_SIDE_VARIANTS = [v for v, w in WIRING.items() if w.user_net]


@pytest.fixture(scope="module")
def shared_times():
    """Four users; users 0 and 1 check in at exactly the same moments, so a
    cross-user row must leave out the other's simultaneous event."""
    rng = np.random.default_rng(11)
    records = []
    for u in range(4):
        for k in range(20):
            t = 1_000_000 + k * 7_200 + (0 if u < 2 else 1_800 * u)
            records.append(CheckIn(u, t, 40.0 + 0.01 * u, -75.0,
                                   int(rng.integers(0, 6))))
    ds = build_dataset(records, split_ratio=0.6, window=5)
    return (ds, UserNet(ds.n_users, ds.n_pois, dim=4, beta=1.0, seed=3),
            PoiNet(ds.n_users, ds.n_pois, n_slots=ds.slots, dim=4, slot_dim=2, seed=4))


def brute_force_ranks(ds, user_net, s_l, corr_u, corr_l, variant, mode):
    """Per-instance ranks from a users-by-places matrix rebuilt for every
    instance: every user's row after their events strictly before it."""
    events = [ds.train[v] + ds.test[v] for v in range(ds.n_users)]
    times = [[e.t for e in evs] for evs in events]
    cut_rows = [user_net.score_rows_at_cuts(evs, v, range(len(evs) + 1))
                for v, evs in enumerate(events)]
    train_len = [len(t) for t in ds.train]
    static = np.stack([cut_rows[v][train_len[v]] for v in range(ds.n_users)])
    static_adj = association.adjust_user_scores(corr_u, static)
    s_l_adj = association.adjust_poi_scores(corr_l, s_l)
    ranks = []
    for u in range(ds.n_users):
        for k, event in enumerate(ds.test[u]):
            if mode == "static":
                own, mixed = static[u], static_adj[u]
            else:
                own = cut_rows[u][train_len[u] + k]
                matrix = np.stack([cut_rows[v][bisect_left(times[v], event.t)]
                                   for v in range(ds.n_users)])
                mixed = corr_u[u] @ matrix
                mixed = mixed / mixed.sum() if mixed.sum() > 0 else mixed
            row = {
                "full": lambda: np.maximum(mixed, s_l_adj[:, u]),
                "no_cross_poi": lambda: np.maximum(mixed, s_l[:, u]),
                "no_cross_user": lambda: np.maximum(own, s_l_adj[:, u]),
                "no_user_prediction": lambda: mixed,
                "user_net_only": lambda: own,
            }[variant]()
            ranks.append(rank_of_truth(row, event.poi))
    return ranks


class TestTimeOrderedPass:
    @pytest.fixture(scope="class", params=["small", "shared_times"])
    def case(self, request, small_dataset, nets, shared_times):
        ds, user_net, poi_net = ((small_dataset, *nets) if request.param == "small"
                                 else shared_times)
        return (ds, user_net, poi_net, association.user_similarity(ds),
                association.poi_similarity(ds), poi_net.predict_score_matrix(ds))

    @pytest.mark.parametrize("mode", ["stepwise", "static"])
    @pytest.mark.parametrize("variant", USER_SIDE_VARIANTS)
    def test_ranks_match_brute_force(self, case, variant, mode):
        ds, user_net, poi_net, corr_u, corr_l, s_l = case
        out = evaluate_with_nets(ds, user_net, poi_net, variant, ks=(1, 5), corr_u=corr_u,
                                 corr_l=corr_l, s_l=s_l, s_u_mode=mode)
        assert out["ranks"] == brute_force_ranks(ds, user_net, s_l, corr_u, corr_l,
                                                 variant, mode)

    def test_cross_user_rows_see_only_strictly_earlier_events(self, shared_times):
        ds, user_net, _ = shared_times
        corr_u = association.user_similarity(ds)
        events = [ds.train[v] + ds.test[v] for v in range(ds.n_users)]
        times = [[e.t for e in evs] for evs in events]
        cut_rows = [user_net.score_rows_at_cuts(evs, v, range(len(evs) + 1))
                    for v, evs in enumerate(events)]
        rows = _UserSideRows(ds, user_net, corr_u, "stepwise")
        differs_from_inclusive = False
        for i, _, adjusted in rows.walk():
            u, _, event = rows.instances[i]
            for visible in (bisect_left, bisect_right):
                matrix = np.stack([cut_rows[v][visible(times[v], event.t)]
                                   for v in range(ds.n_users)])
                want = corr_u[u] @ matrix
                want = want / want.sum()
                if visible is bisect_left:
                    np.testing.assert_allclose(adjusted, want, rtol=0, atol=1e-12)
                else:
                    differs_from_inclusive |= not np.allclose(adjusted, want, rtol=0, atol=1e-9)
        assert differs_from_inclusive

    def test_static_mode_scores_one_cut_per_user(self, small_dataset, nets, monkeypatch):
        user_net, poi_net = nets
        scored = []
        original = user_net.score_rows_at_cuts

        def counting(events, user, cuts):
            rows = original(events, user, cuts)
            scored.append(len(rows))
            return rows

        monkeypatch.setattr(user_net, "score_rows_at_cuts", counting)
        evaluate_with_nets(small_dataset, user_net, poi_net, "full", s_u_mode="static")
        assert sum(scored) == small_dataset.n_users

    def test_network_for_another_dataset_rejected(self, small_dataset, shared_times):
        _, user_net, poi_net = shared_times
        with pytest.raises(DataError, match="users"):
            evaluate_with_nets(small_dataset, user_net, poi_net, "full")

    def test_place_side_required(self, small_dataset, nets):
        with pytest.raises(ValueError, match="place-side"):
            evaluate_with_nets(small_dataset, nets[0], None, variant="no_cross_user")


class TestReports:
    def test_single_report_round_trips_through_json(self, small_dataset, nets):
        result = evaluate_with_nets(small_dataset, *nets, variant="user_net_only")
        report = single_report("user_net_only", FusionStrategy(), (1, 5, 10), result)
        payload = json.loads(report.to_json())
        assert payload["variant"] == "user_net_only"
        assert payload["mrr"] == pytest.approx(result["mrr"])
        assert payload["n_instances"] == result["n"]
        assert payload["acc"]["1"] == result["acc"][1]

    def test_text_table_layout(self, small_dataset, nets):
        result = evaluate_with_nets(small_dataset, *nets, variant="user_net_only")
        report = single_report("user_net_only", FusionStrategy(), (1, 5, 10), result)
        table = report.text_table()
        assert "Acc@1" in table and "MRR" in table
        assert f"{report.mrr:.4f}" in table
        if report.unseen_n:
            assert "unseen-target" in table

    def test_battery_is_seed_deterministic(self, small_dataset):
        settings = TrainSettings(dim=4, slot_dim=2, epochs=2, lr=0.01, beta=1.0)
        outputs = []
        for _ in range(2):
            reports = run_battery(small_dataset, variants=("full", "user_net_only"),
                                  seeds=(7,), settings=settings,
                                  s_u_mode="static", s_l_mode="static")
            outputs.append({v: r.to_json() for v, r in reports.items()})
        assert outputs[0] == outputs[1]

    def test_aggregate_means_per_seed_metrics(self):
        def fake_run(seed, mrr_value):
            return {"seed": seed, "n": 4, "mrr": mrr_value,
                    "acc": {1: mrr_value, 5: 1.0},
                    "unseen": {"acc": {1: None, 5: None}, "mrr": None, "n": 0},
                    "per_user": {0: {"n": 4, "mrr": mrr_value}}}
        from nextloc.evaluate import _aggregate
        report = _aggregate("full", FusionStrategy(), (1, 5), [0, 1],
                            [fake_run(0, 0.5), fake_run(1, 0.7)])
        assert report.mrr == pytest.approx(0.6)
        assert report.acc[1] == pytest.approx(0.6)
        assert report.n_instances == 8
        assert report.unseen_mrr is None
        assert report.per_user[0]["n"] == 8


class TestMotivationStats:
    def test_visit_counts_thresholds(self, small_dataset):
        header, rows = motivation_stats(small_dataset, "visit_counts")
        assert header == ("poi", "threshold", "n_users")
        by_poi = {}
        for poi, threshold, n in rows:
            by_poi.setdefault(poi, []).append((threshold, n))
        for entries in by_poi.values():
            counts = [n for _, n in sorted(entries)]
            assert counts == sorted(counts, reverse=True)  # higher bar, fewer users

    def test_temporal_density_sums_to_one(self, small_dataset):
        _, rows = motivation_stats(small_dataset, "temporal_density")
        totals = {}
        for poi, _, _, density in rows:
            totals[poi] = totals.get(poi, 0.0) + density
        for total in totals.values():
            assert total == pytest.approx(1.0)

    def test_similarity_pairs_match_matrices(self, small_dataset):
        _, rows = motivation_stats(small_dataset, "user_sim_vs_common")
        corr = association.user_similarity(small_dataset)
        sets = small_dataset.train_poi_sets()
        assert len(rows) == small_dataset.n_users * (small_dataset.n_users - 1)
        for m, n, sim, common in rows[:20]:
            assert sim == corr[m, n]
            assert common == len(sets[m] & sets[n])

    def test_poi_pairs_enumerated_once(self, small_dataset):
        _, rows = motivation_stats(small_dataset, "poi_sim_vs_common")
        n = small_dataset.n_pois
        assert len(rows) == n * (n - 1) // 2
        assert all(m < p for m, p, _, _ in rows)

    def test_unknown_statistic_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="statistic"):
            motivation_stats(small_dataset, "degree_distribution")


def test_case_report_structure(small_dataset, nets):
    report = case_report(small_dataset, *nets, user=0, poi=1, k=3)
    assert report["user"] == small_dataset.user_raw[0]
    assert report["poi"] == small_dataset.poi_raw[1]
    assert len(report["top_pois_for_user"]) == 3
    assert len(report["top_users_for_poi"]) == 3
    scores = [e["score"] for e in report["top_pois_for_user"]]
    assert scores == sorted(scores, reverse=True)
    assert report["most_similar_user"]["user"] != small_dataset.user_raw[0]
