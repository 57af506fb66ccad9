"""Fusion, ranking, metric, and report tests."""

import dataclasses
import json
import tracemalloc
from bisect import bisect_left, bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import association, evaluate
from nextloc import autodiff as ad
from nextloc.data import CheckIn, DataError, SyntheticSpec, build_dataset, generate_synthetic
from nextloc.evaluate import (FUSION_KINDS, VARIANTS, WIRING, EvalReport, FusionStrategy,
                              TrainSettings, _aggregate, _package, _ranks_by_owner,
                              _UserSideRows, acc_at_k, case_report,
                              evaluate_variants, evaluate_with_nets, fuse, mrr,
                              motivation_stats,
                              rank_of_truth, rank_top_k, ranks_of_truths, run_battery,
                              single_report)
from nextloc.net import WindowNet
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

    @pytest.mark.parametrize("kind", ["geomean", "sum"])
    def test_unknown_kind_rejected(self, kind):
        """``sum`` ranked exactly as equal-weight weighted_add and is not a kind."""
        with pytest.raises(ValueError, match="fusion kind") as refused:
            FusionStrategy.parse(kind)
        assert str(FUSION_KINDS) in str(refused.value)

    @pytest.mark.parametrize("w_user,w_poi", [(0.7, 0.7), (-0.2, 1.2), (1.0, 0.1),
                                              (np.nan, np.nan), (np.inf, -np.inf)])
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

    def test_multiply_minpool(self):
        np.testing.assert_allclose(
            fuse(self.S_U, self.S_L, FusionStrategy("multiply")), [[0.06, 0.05]])
        np.testing.assert_array_equal(
            fuse(self.S_U, self.S_L, FusionStrategy("minpool")), [[0.2, 0.1]])

    @pytest.mark.parametrize("seed", range(3))
    def test_equal_weighted_add_ranks_as_the_plain_sum(self, seed):
        """Equal-weight weighted_add ranks every candidate as plain a + b
        does, ties included, so no separate sum kind is needed.  Scores on
        a grid of 0.1 force ties."""
        rng = np.random.default_rng(seed)
        s_u, s_l = np.round(rng.random((6, 8)), 1), np.round(rng.random((8, 6)), 1)
        fused = fuse(s_u, s_l, FusionStrategy.parse("weighted_add:0.5,0.5"))
        plain = s_u + s_l.T
        assert any(np.unique(row).size < row.size for row in plain)
        for got, want in zip(fused, plain):
            np.testing.assert_array_equal(rank_top_k(got, got.size), rank_top_k(want, want.size))
        truths = rng.integers(0, 8, size=6)
        np.testing.assert_array_equal(ranks_of_truths(fused, truths),
                                      ranks_of_truths(plain, truths))

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


#: ``evaluate.SORT_COST`` values that make ``_ranks_by_owner`` sort every
#: block, and count every block.
SORT_COSTS = (0.0, 1e9)

#: Scores that tie in many ways: equal values, +0.0 against -0.0, infinities.
TIED_SCORES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 1e-300, np.inf, -np.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_one_tie_rule(data):
    """A truth's position in rank_top_k's full ranking of its row, the
    gather-and-count ranks_of_truths and the sort-once-per-owner
    _ranks_by_owner agree, for owner rows with forced ties, any number of
    instances per owner in any order, and a single candidate."""
    c = data.draw(st.integers(1, 6), label="candidates")
    rows = np.array(data.draw(st.lists(st.lists(TIED_SCORES, min_size=c, max_size=c),
                                       min_size=1, max_size=5), label="rows"))
    owners = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                         max_size=12), label="owners"))
    truths = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=owners.size,
                                         max_size=owners.size), label="truths"))
    positions = [list(rank_top_k(rows[o], c)).index(t) + 1 for o, t in zip(owners, truths)]
    assert ranks_of_truths(rows[owners], truths).tolist() == positions
    for sort_cost in SORT_COSTS:        # every block sorted, then every block counted
        with mock.patch.object(evaluate, "SORT_COST", sort_cost):
            assert _ranks_by_owner(lambda block: rows[block], owners, truths).tolist() \
                == positions


def test_ranks_by_owner_sorts_only_dense_blocks():
    """A block is sorted once per owner row when its owners average at least
    ``SORT_COST * log2(C)`` instances, and counted one gathered row per
    instance otherwise; the ranks are the same."""
    rng = np.random.default_rng(5)
    for per_owner, c, sorted_ in ((40, 8, True), (6, 8, True), (5, 8, False), (1, 1000, False)):
        rows = rng.standard_normal((10, c))
        owners = rng.permutation(np.repeat(np.arange(10), per_owner))
        truths = rng.integers(0, c, owners.size)
        with mock.patch.object(evaluate, "_positions", wraps=evaluate._positions) as spy:
            ranks = _ranks_by_owner(lambda block: rows[block], owners, truths)
        assert spy.called == sorted_
        assert ranks.tolist() == ranks_of_truths(rows[owners], truths).tolist()


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

    @pytest.mark.parametrize("mode_kw", [{"s_u_mode": "frozen"}])
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
        s_u = user_net.predict_score_matrix(ds)
        s_l = poi_net.predict_score_matrix(ds)
        fused = fuse(association.adjust_user_scores(corr_u, s_u),
                     association.adjust_poi_scores(corr_l, s_l))
        ranks = [rank_of_truth(fused[u], e.poi)
                 for u in range(ds.n_users) for e in ds.test[u]]
        expected = float(np.mean(1.0 / np.asarray(ranks)))

        out = evaluate_with_nets(ds, user_net, poi_net, variant="full",
                                 corr_u=corr_u, corr_l=corr_l, s_l=s_l,
                                 s_u_mode="static")
        assert out["mrr"] == expected

    @pytest.mark.parametrize("fusion", [FusionStrategy(k) for k in FUSION_KINDS
                                        if k != "weighted_add"]
                             + [FusionStrategy("weighted_add", 0.7, 0.3)],
                             ids=lambda f: f.label())
    @pytest.mark.parametrize("sort_cost", SORT_COSTS, ids=("sorted", "counted"))
    def test_static_ranks_equal_gather_and_count(self, small_dataset, nets, monkeypatch,
                                                 fusion, sort_cost):
        """Static ranks, taken by owner in blocks of 3 owners (each block
        sorted once, or counted per instance), are the ranks of each
        instance's own gathered row counted by ranks_of_truths, for every
        variant.  Scores rounded to two places force ties."""
        user_net, poi_net = nets
        ds = small_dataset
        s_u = np.round(user_net.predict_score_matrix(ds), 2)
        s_l = np.round(poi_net.predict_score_matrix(ds), 2)
        monkeypatch.setattr(user_net, "predict_score_matrix", lambda dataset: s_u)
        monkeypatch.setattr(evaluate, "RANK_BLOCK", 3)
        monkeypatch.setattr(evaluate, "SORT_COST", sort_cost)
        corr_u, corr_l = association.user_similarity(ds), association.poi_similarity(ds)
        results = evaluate_variants(ds, user_net, poi_net, VARIANTS, fusion, ks=(1,),
                                    corr_u=corr_u, corr_l=corr_l, s_l=s_l, s_u_mode="static")
        s_u_adj = association.adjust_user_scores(corr_u, s_u)
        s_l_adj = association.adjust_poi_scores(corr_l, s_l)
        owner, _, in_train = ds.by_user.positions()
        users, places = owner[~in_train], ds.events.poi[ds.by_user.order[~in_train]]
        owner, _, in_train = ds.by_poi.positions()
        visited, visitors = owner[~in_train], ds.events.user[ds.by_poi.order[~in_train]]
        ties = 0
        for variant in VARIANTS:
            w = WIRING[variant]
            if variant == "poi_net_only":
                rows, truths = s_l_adj[visited], visitors
            else:
                user_side = s_u_adj if w.user_adj else s_u
                place_side = s_l_adj if w.poi_adj else s_l if w.poi_net else None
                rows = (user_side if place_side is None
                        else fuse(user_side, place_side, fusion))[users]
                truths = places
            assert results[variant]["ranks"] == ranks_of_truths(rows, truths).tolist(), variant
            ties += np.count_nonzero(rows == rows[np.arange(truths.size), truths][:, None])
        assert ties > len(VARIANTS) * truths.size      # some truth ties another candidate

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
                                   s_u_mode="static")
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
        rows = _UserSideRows(ds, user_net, corr_u)
        differs_from_inclusive = False
        walked = []
        for idx, _, block in rows.walk():
            walked += idx.tolist()
            for i, adjusted in zip(idx.tolist(), block):
                u, t = rows.users[i], rows.times[i]
                for visible in (bisect_left, bisect_right):
                    matrix = np.stack([cut_rows[v][visible(times[v], t)]
                                       for v in range(ds.n_users)])
                    want = corr_u[u] @ matrix
                    want = want / want.sum()
                    if visible is bisect_left:
                        np.testing.assert_allclose(adjusted, want, rtol=0, atol=1e-12)
                    else:
                        differs_from_inclusive |= not np.allclose(adjusted, want, rtol=0,
                                                                  atol=1e-9)
        assert sorted(walked) == list(range(rows.users.size))
        assert differs_from_inclusive

    def test_static_mode_scores_one_cut_per_user(self, small_dataset, nets, monkeypatch):
        user_net, poi_net = nets
        scored = []
        original = user_net.score_cuts

        def counting(*args, **kwargs):
            rows = original(*args, **kwargs)
            scored.append(len(rows))
            return rows

        monkeypatch.setattr(user_net, "score_cuts", counting)
        evaluate_with_nets(small_dataset, user_net, poi_net, "full", s_u_mode="static")
        assert sum(scored) == small_dataset.n_users

    def test_network_for_another_dataset_rejected(self, small_dataset, shared_times):
        _, user_net, poi_net = shared_times
        with pytest.raises(DataError, match="users"):
            evaluate_with_nets(small_dataset, user_net, poi_net, "full")

    def test_place_side_required(self, small_dataset, nets):
        with pytest.raises(ValueError, match="place-side"):
            evaluate_with_nets(small_dataset, nets[0], None, variant="no_cross_user")


def cuts_read(ds):
    """The (user, cut) pairs a stepwise pass with cross-user rows reads: each
    test event's own cut, and for every test event and every user, the cut
    holding that user's events strictly before it."""
    times = [[e.t for e in ds.train[v] + ds.test[v]] for v in range(ds.n_users)]
    own = {(u, len(ds.train[u]) + k) for u in range(ds.n_users) for k in range(len(ds.test[u]))}
    return own | {(v, bisect_left(times[v], e.t)) for evs in ds.test for e in evs
                  for v in range(ds.n_users)}


class TestOnePass:
    """evaluate_variants checks every wiring first, builds each shared part
    once, and ranks every variant as one-variant calls would."""

    @pytest.fixture
    def counts(self, nets, monkeypatch):
        """Rows each network scores and calls of each adjustment."""
        tally = {"user_rows": 0, "poi_rows": 0,
                 "adjust_user_scores": 0, "adjust_poi_scores": 0}

        def counting(key, fn, size=lambda result: 1):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                tally[key] += size(result)
                return result
            return wrapper

        for key, net in zip(("user_rows", "poi_rows"), nets):
            for scorer in ("score_cuts", "score_states"):     # static and stepwise rows
                monkeypatch.setattr(net, scorer, counting(key, getattr(net, scorer), len))
        for key in ("adjust_user_scores", "adjust_poi_scores"):
            monkeypatch.setattr(association, key, counting(key, getattr(association, key)))
        return tally

    @pytest.mark.parametrize("mode", ["stepwise", "static"])
    def test_matches_one_variant_calls(self, small_dataset, nets, mode):
        ds = small_dataset
        shared = dict(ks=(1, 5), corr_u=association.user_similarity(ds),
                      corr_l=association.poi_similarity(ds), s_u_mode=mode)
        together = evaluate_variants(ds, *nets, VARIANTS, **shared)
        assert list(together) == list(VARIANTS)
        for variant in VARIANTS:
            assert together[variant] == evaluate_with_nets(ds, *nets, variant, **shared)

    @pytest.mark.parametrize("mode, user_rows", [
        ("static", lambda ds: ds.n_users),
        ("stepwise", lambda ds: len(cuts_read(ds)))], ids=["static", "stepwise"])
    def test_each_part_is_built_once(self, small_dataset, nets, counts, mode, user_rows):
        evaluate_variants(small_dataset, *nets, VARIANTS, s_u_mode=mode)
        assert counts == {"user_rows": user_rows(small_dataset),
                          "poi_rows": small_dataset.n_pois,
                          "adjust_user_scores": int(mode == "static"),
                          "adjust_poi_scores": 1}

    def test_unread_parts_are_not_built(self, small_dataset, nets, counts):
        evaluate_variants(small_dataset, *nets, ("user_net_only",), s_u_mode="stepwise")
        assert counts == {"user_rows": sum(len(evs) for evs in small_dataset.test),
                          "poi_rows": 0, "adjust_user_scores": 0, "adjust_poi_scores": 0}

    @pytest.mark.parametrize("variants, nets_given, ks, match", [
        (("full", "oracle"), (True, True), (1, 5), "unknown variant"),
        (("poi_net_only", "full"), (False, True), (1, 5), "user-side"),
        (("user_net_only", "no_cross_user"), (True, False), (1, 5), "place-side"),
        (("full", "poi_net_only"), (True, True), (1, 11), "top-k"),   # 10 users, 20 places
        (("full",), (True, True), (), "top-k"),
        (("full",), (True, True), (0,), "top-k"),
    ])
    def test_every_wiring_is_checked_before_scoring(self, small_dataset, nets, counts,
                                                     variants, nets_given, ks, match):
        given = [net if ok else None for net, ok in zip(nets, nets_given)]
        with pytest.raises(ValueError, match=match):
            evaluate_variants(small_dataset, *given, variants, ks=ks)
        assert not any(counts.values())


class TestStreamedWalk:
    """The stepwise walk scores the cuts it reads in chunks as it reaches
    them, from states the cell computed once per history."""

    @pytest.mark.parametrize("cross_user", [False, True])
    def test_cell_runs_once_per_history_group(self, small_dataset, nets, monkeypatch,
                                               cross_user):
        user_net = nets[0]
        corr_u = association.user_similarity(small_dataset) if cross_user else None
        calls = {"recurrent_states": 0, "score_states": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ad, "HEAD_CELLS", 6 * small_dataset.n_pois)     # chunks of 3 rows
        monkeypatch.setattr(ad, "recurrent_states", counting("recurrent_states",
                                                             ad.recurrent_states))
        monkeypatch.setattr(user_net, "score_states", counting("score_states",
                                                               user_net.score_states))
        rows = _UserSideRows(small_dataset, user_net, corr_u)
        for _ in rows.walk():
            pass
        groups = np.unique(rows.run.group[rows.run.group >= 0]).size
        assert calls["recurrent_states"] == groups == len(rows.run.runs)
        assert calls["score_states"] > 10 * groups

    def test_memory_does_not_grow_with_the_cuts_read(self, monkeypatch):
        """With small chunks the peak traced allocation of a build and walk
        stays well under the rows of every cut read; a chunk holding them all
        shows that the peak is measured."""
        ds = generate_synthetic(SyntheticSpec(n_users=160, n_pois=300, n_zones=30), 0)
        user_net = UserNet(ds.n_users, ds.n_pois, dim=10, beta=1.0, seed=0)
        corr_u = association.user_similarity(ds)
        all_rows = len(cuts_read(ds)) * ds.n_pois * 8

        def traced_peak(cells):
            monkeypatch.setattr(ad, "HEAD_CELLS", cells)
            tracemalloc.start()
            try:
                for _ in _UserSideRows(ds, user_net, corr_u).walk():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(64 * ds.n_pois) < all_rows / 2 < all_rows < traced_peak(1 << 40)


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
                                  s_u_mode="static")
            outputs.append({v: r.to_json() for v, r in reports.items()})
        assert outputs[0] == outputs[1]

    def test_json_is_the_dataclass_image(self, small_dataset):
        """``to_json`` reads the fields as they are: the same text as
        dumping ``dataclasses.asdict``'s deep copy, string keys at the top."""
        settings = TrainSettings(dim=4, slot_dim=2, epochs=1, lr=0.01, beta=1.0)
        report = run_battery(small_dataset, variants=("full",), seeds=(7, 8), settings=settings,
                             s_u_mode="static")["full"]
        image = dataclasses.asdict(report)
        image.update(ks=list(report.ks), acc={str(k): v for k, v in report.acc.items()},
                     per_user={str(u): v for u, v in report.per_user.items()})
        assert len(report.per_seed) == 2 and len(report.per_user) == small_dataset.n_users
        assert report.to_json() == json.dumps(image, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("request_kw, message", [
        (dict(variants=("poi_net_only",)), "top-k 10 exceeds the 3 candidates"),
        (dict(variants=("full", "fused")), "unknown variant"),
        (dict(variants=("full",), s_u_mode="hourly"), "unknown user-side mode"),
    ])
    def test_refused_battery_trains_nothing(self, request_kw, message, monkeypatch):
        """A request the dataset cannot serve is refused before any network
        is trained, not after the first seed's training."""
        calls = []
        train = WindowNet.train
        monkeypatch.setattr(WindowNet, "train",
                            lambda net, *a, **kw: calls.append(net) or train(net, *a, **kw))
        three_users = generate_synthetic(SyntheticSpec(n_users=3), seed=0)
        settings = TrainSettings(dim=4, slot_dim=2, epochs=1)
        with pytest.raises(ValueError, match=message):
            run_battery(three_users, seeds=(0,), settings=settings, **request_kw)
        assert calls == []
        run_battery(three_users, variants=("full",), seeds=(0,), settings=settings)
        assert len(calls) == 2

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


#: Owner sizes at the edges of numpy's summation blocks (unrolled by 8).
OWNER_COUNTS = (1, 7, 8, 9, 129)


def test_package_per_user_is_the_per_slice_mean():
    """``per_user`` holds each owner's count and ``np.mean`` of its
    reciprocal ranks, bit for bit, owners ascending, whatever the order of
    the instances."""
    rng = np.random.default_rng(3)
    counts = dict(zip((4, 0, 11, 2, 7), OWNER_COUNTS))
    counts.update({u: int(rng.integers(1, 40)) for u in (1, 3, 5, 20)})
    owners = rng.permutation(np.repeat(list(counts), list(counts.values())))
    ranks = rng.integers(1, 60, owners.size)
    out = _package("full", FusionStrategy(), (1,), ranks, np.zeros(owners.size, bool), owners)
    reciprocal = 1.0 / ranks
    want = {u: {"n": counts[u], "mrr": float(np.mean(reciprocal[owners == u]))}
            for u in sorted(counts)}
    assert out["per_user"] == want and list(out["per_user"]) == list(want)


def test_aggregate_per_user_is_the_per_slice_mean():
    """Over 129 runs, each owner's ``per_user`` entry is the sum of its
    counts and ``np.mean`` of its per-run MRRs in run order, bit for bit,
    for owners in 1, 7, 8, 9 and 129 runs and owners missing from random
    runs; owners keep the order in which they first appear."""
    rng = np.random.default_rng(4)
    n_runs = max(OWNER_COUNTS)
    runs_of = {u: set(rng.choice(n_runs, size=k, replace=False).tolist())
               for u, k in zip((9, 3, 0, 6, 1), OWNER_COUNTS)}
    runs_of.update({u: set(np.flatnonzero(rng.random(n_runs) < 0.3).tolist()) | {u}
                    for u in (2, 4, 5, 8)})
    runs = [{"seed": r, "n": 1, "mrr": 0.5, "acc": {1: 0.5},
             "unseen": {"acc": {1: None}, "mrr": None, "n": 0},
             "per_user": {u: {"n": int(rng.integers(1, 9)), "mrr": float(rng.random())}
                          for u in sorted(runs_of) if r in runs_of[u]}}
            for r in range(n_runs)]
    report = _aggregate("full", FusionStrategy(), (1,), list(range(n_runs)), runs)
    first_seen = list(dict.fromkeys(u for run in runs for u in run["per_user"]))
    want = {u: {"n": sum(run["per_user"][u]["n"] for run in runs if u in run["per_user"]),
                "mrr": float(np.mean([run["per_user"][u]["mrr"]
                                      for run in runs if u in run["per_user"]]))}
            for u in first_seen}
    assert report.per_user == want and list(report.per_user) == first_seen
    assert sorted(first_seen) != first_seen       # the order is not simply ascending


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
        sets = [{e.poi for e in evs} for evs in small_dataset.train]
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


@pytest.mark.parametrize("n_users, n_pois", [(1, 3), (3, 1)], ids=["one_user", "one_place"])
def test_case_report_names_no_entity_its_own_neighbour(n_users, n_pois):
    """Without another user (or place), the most similar one is None, not
    the entity itself at similarity 1."""
    ds = build_dataset([CheckIn(k % n_users, 1_000_000 + k * 3600, 0.0, 0.0, k % n_pois)
                        for k in range(20)])
    user_net = UserNet(ds.n_users, ds.n_pois, dim=4, beta=1.0, seed=0)
    poi_net = PoiNet(ds.n_users, ds.n_pois, n_slots=ds.slots, dim=4, slot_dim=2, seed=0)
    report = case_report(ds, user_net, poi_net, user=0, poi=0, k=1)
    assert (report["most_similar_user"] is None) == (n_users == 1)
    assert (report["most_similar_poi"] is None) == (n_pois == 1)
