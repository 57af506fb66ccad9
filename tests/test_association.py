"""Similarity-matrix construction and score-adjustment tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.association import (adjust_poi_scores, adjust_user_scores,
                                 load_similarity, poi_similarity,
                                 save_similarity, truncate_top_k,
                                 user_similarity)
from nextloc.data import CheckIn, DataError, SECONDS_PER_DAY, build_dataset, day_index


def visits(user, plan):
    """Records for one user; plan is a chronological list of (day, poi)."""
    return [CheckIn(user, day * SECONDS_PER_DAY + k * 3600, 10.0, 20.0, poi)
            for k, (day, poi) in enumerate(plan)]


def random_dataset(seed, n_users=4, n_pois=8, n_events=12, n_days=30):
    rng = np.random.default_rng(seed)
    records = []
    for u in range(n_users):
        times = np.sort(rng.choice(n_days * SECONDS_PER_DAY, size=n_events,
                                   replace=False))
        for t, p in zip(times, rng.integers(0, n_pois, size=n_events)):
            records.append(CheckIn(u, int(t), 0.0, 0.0, int(p)))
    return build_dataset(records)


class TestUserSimilarity:
    def test_overlap_ratio_by_hand(self):
        """Place sets {1,2,3,4} vs {2,3}: the overlap is half of the first
        user's repertoire but all of the second's."""
        records = (visits(0, [(d, [1, 2, 3, 4][d % 4]) for d in range(10)]) +
                   visits(1, [(d, [2, 3][d % 2]) for d in range(10)]))
        ds = build_dataset(records)
        assert set(e.poi for e in ds.train[0]) == {1, 2, 3, 4}
        assert set(e.poi for e in ds.train[1]) == {2, 3}
        np.testing.assert_array_equal(user_similarity(ds),
                                      [[1.0, 0.5], [1.0, 1.0]])

    def test_disjoint_users_score_zero(self):
        records = (visits(0, [(d, d % 2) for d in range(10)]) +
                   visits(1, [(d, 2 + d % 2) for d in range(10)]))
        corr = user_similarity(build_dataset(records))
        np.testing.assert_array_equal(corr, np.eye(2))

    def test_identical_repertoires_score_one(self):
        plan = [(d, d % 3) for d in range(9)] + [(9, 0)]
        corr = user_similarity(build_dataset(visits(0, plan) + visits(1, plan)))
        np.testing.assert_array_equal(corr, np.ones((2, 2)))

    def test_same_day_variant_is_stricter(self):
        """Same place, but one user only covers half the other's active days."""
        records = (visits(0, [(d, 1) for d in range(10)]) +
                   visits(1, [(k // 2, 1) for k in range(10)]))
        ds = build_dataset(records)
        loose = user_similarity(ds)
        strict = user_similarity(ds, same_day=True)
        np.testing.assert_array_equal(loose, np.ones((2, 2)))
        np.testing.assert_array_equal(strict, [[1.0, 0.5], [1.0, 1.0]])

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_nested_loop_oracle(self, trial):
        ds = random_dataset(trial)
        sets = [set(e.poi for e in evs) for evs in ds.train]
        expected = np.zeros((ds.n_users, ds.n_users))
        for m in range(ds.n_users):
            for n in range(ds.n_users):
                if sets[m]:
                    expected[m, n] = len(sets[m] & sets[n]) / len(sets[m])
            expected[m, m] = 1.0
        np.testing.assert_array_equal(user_similarity(ds), expected)


class TestPoiSimilarity:
    @pytest.fixture()
    def pair_dataset(self):
        # Places 0 and 1 share two calendar days; 2 and 3 share five.
        # Place 4 only ever shows up after the split (stays cold).
        plan_a = [(0, 0), (0, 1), (1, 0), (1, 1)] + [(2 + d, 0) for d in range(8)]
        plan_b = [(2 + k // 2, [2, 3][k % 2]) for k in range(10)] + [(8, 4), (9, 4)]
        return build_dataset(visits(0, plan_a) + visits(1, plan_b))

    def test_day_counts_scaled_by_global_max(self, pair_dataset):
        corr = poi_similarity(pair_dataset)
        assert corr[0, 1] == 0.4           # 2 shared days out of a max of 5
        assert corr[2, 3] == 1.0
        assert corr[0, 2] == 0.0
        np.testing.assert_array_equal(corr, corr.T)
        np.testing.assert_array_equal(np.diag(corr), np.ones(5))

    def test_row_normalization(self, pair_dataset):
        corr = poi_similarity(pair_dataset, normalize="row")
        assert corr[0, 1] == 1.0           # each row scaled by its own max
        assert corr[2, 3] == 1.0

    def test_cold_place_keeps_zero_row(self, pair_dataset):
        assert 4 in pair_dataset.cold_pois
        corr = poi_similarity(pair_dataset)
        np.testing.assert_array_equal(corr[4], np.eye(5)[4])

    def test_unknown_normalization_rejected(self, pair_dataset):
        with pytest.raises(ValueError, match="normalization"):
            poi_similarity(pair_dataset, normalize="max")

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_pairwise_oracle(self, trial):
        """Independent construction: intersect per-place (user, day) visit sets
        instead of enumerating per-day baskets."""
        ds = random_dataset(trial + 100)
        visited = {}
        for evs in ds.train:
            for e in evs:
                visited.setdefault(e.poi, set()).add((e.user, day_index(e.t)))
        raw = np.zeros((ds.n_pois, ds.n_pois))
        for m in range(ds.n_pois):
            for n in range(m + 1, ds.n_pois):
                both = visited.get(m, set()) & visited.get(n, set())
                raw[m, n] = raw[n, m] = len({d for _, d in both})
        top = raw.max()
        expected = raw / top if top > 0 else raw
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_array_equal(poi_similarity(ds), expected)


class TestTruncation:
    def test_keeps_k_largest_per_row(self):
        corr = np.array([[1.0, 0.2, 0.8, 0.5],
                         [0.1, 1.0, 0.3, 0.9],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.6, 0.6, 0.6, 1.0]])
        out = truncate_top_k(corr, 2)
        np.testing.assert_array_equal(out[0], [1.0, 0.0, 0.8, 0.5])
        np.testing.assert_array_equal(out[1], [0.0, 1.0, 0.3, 0.9])
        np.testing.assert_array_equal(out[2], [0.0, 0.0, 1.0, 0.0])

    def test_ties_go_to_lower_index(self):
        corr = np.array([[1.0, 0.6, 0.6, 0.6]] + [[0.0, 1.0, 0.0, 0.0]] * 3)
        out = truncate_top_k(corr, 2)
        np.testing.assert_array_equal(out[0], [1.0, 0.6, 0.6, 0.0])

    def test_zero_keeps_only_diagonal(self):
        corr = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
        np.testing.assert_array_equal(truncate_top_k(corr, 0), np.eye(3))

    def test_large_k_is_identity_operation(self):
        rng = np.random.default_rng(3)
        corr = rng.random((4, 4))
        np.testing.assert_array_equal(truncate_top_k(corr, 10), corr)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            truncate_top_k(np.eye(2), -1)


class TestAdjustment:
    def test_identity_similarity_changes_nothing(self):
        s_u = np.array([[0.25, 0.25, 0.5], [0.125, 0.75, 0.125]])
        np.testing.assert_array_equal(adjust_user_scores(np.eye(2), s_u), s_u)

    def test_rows_renormalized_to_one(self):
        rng = np.random.default_rng(7)
        corr = rng.random((5, 5))
        s_u = rng.random((5, 9))
        out = adjust_user_scores(corr, s_u)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_row_survives(self):
        corr = np.zeros((3, 3))
        corr[1:, 1:] = np.eye(2)
        out = adjust_user_scores(corr, np.full((3, 4), 0.25))
        np.testing.assert_array_equal(out[0], np.zeros(4))
        np.testing.assert_array_equal(out[1:], np.full((2, 4), 0.25))

    def test_borrows_from_similar_rows(self):
        """A user who has never scored some place inherits interest in it
        from a look-alike."""
        s_u = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = adjust_user_scores(np.array([[1.0, 0.5], [0.0, 1.0]]), s_u)
        assert out[0, 1] > 0.0
        np.testing.assert_allclose(out[0], [2 / 3, 1 / 3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            adjust_user_scores(np.eye(3), np.zeros((4, 5)))
        with pytest.raises(ValueError, match="shape"):
            adjust_poi_scores(np.eye(4), np.zeros((3, 5)))


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        mat = rng.random((6, 6)) * (rng.random((6, 6)) < 0.4)
        path = tmp_path / "corr.txt"
        save_similarity(path, mat)
        np.testing.assert_array_equal(load_similarity(path), mat)

    def test_rectangular_shapes_preserved(self, tmp_path):
        mat = np.zeros((2, 5))
        mat[1, 3] = 0.123456789012345
        path = tmp_path / "rect.txt"
        save_similarity(path, mat)
        loaded = load_similarity(path)
        assert loaded.shape == (2, 5)
        np.testing.assert_array_equal(loaded, mat)


    @pytest.mark.parametrize("text, complaint", [
        ("", "header"),
        ("2\n", "header"),
        ("2 2 2\n", "header"),
        ("-1 2\n", "header"),
        ("2 x\n", "header"),
        ("2 2\n0 1\n", "row col value"),
        ("2 2\n0 1 0.5 7\n", "row col value"),
        ("2 2\n0 1 high\n", "row col value"),
        ("2 2\n0.5 1 0.5\n", "row col value"),
        ("2 2\n0 0 0.5\n\n1 1 0.5\n", "row col value"),
        ("2 2\n-1 0 0.5\n", "outside the shape"),
        ("2 2\n0 -1 0.5\n", "outside the shape"),
        ("2 2\n2 0 0.5\n", "outside the shape"),
        ("2 3\n0 3 0.5\n", "outside the shape"),
        ("2 2\n0 0 nan\n", "non-finite"),
        ("2 2\n0 0 inf\n", "non-finite"),
        ("2 2\n0 0 1e999\n", "non-finite"),
    ])
    def test_malformed_file_is_data_error(self, tmp_path, text, complaint):
        path = tmp_path / "corr.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=complaint):
            load_similarity(path)

    def test_bytes_that_are_not_utf8_are_data_error(self, tmp_path):
        path = tmp_path / "corr.txt"
        path.write_bytes(b"2 2\n0 0 \xff\n")
        with pytest.raises(DataError, match="UTF-8"):
            load_similarity(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corr.txt"


SMALL = st.integers(-3, 6)
LINE = st.one_of(
    st.text(max_size=20),
    st.tuples(SMALL, SMALL, st.floats(allow_nan=True, allow_infinity=True))
    .map(lambda t: f"{t[0]} {t[1]} {t[2]!r}"),
    st.lists(st.one_of(SMALL.map(str), st.text(max_size=4)), max_size=4).map(" ".join))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(SMALL, SMALL).map(lambda t: f"{t[0]} {t[1]}"),
                 st.text(max_size=12).filter(lambda h: len(h.splitlines()) <= 1)),
       st.lists(LINE, max_size=6))
def test_load_fuzz_loads_finite_or_raises_data_error(fuzz_path, header, lines):
    """Arbitrary text either loads as a finite array of the declared shape or
    raises DataError."""
    fuzz_path.write_text("\n".join([header, *lines]), encoding="utf-8")
    try:
        loaded = load_similarity(fuzz_path)
    except DataError:
        return
    assert loaded.shape == tuple(int(n) for n in header.split())
    assert np.all(np.isfinite(loaded))


def test_planted_clones_look_most_alike(small_dataset):
    """Users planted with a shared place pool should beat the background
    similarity level by a clear margin."""
    corr = user_similarity(small_dataset)
    pairs = [tuple(p) for p in small_dataset.meta["clone_pairs"]]
    assert pairs
    members = {u for pair in pairs for u in pair}
    clone_scores = [corr[a, b] for a, b in pairs] + [corr[b, a] for a, b in pairs]
    other_scores = [corr[m, n]
                    for m in range(small_dataset.n_users)
                    for n in range(small_dataset.n_users)
                    if m != n and not ({m, n} <= members
                                       and ((m, n) in pairs or (n, m) in pairs))]
    assert np.mean(clone_scores) > np.mean(other_scores)
