"""Parsing, splitting, and the planted-structure generator."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import association, cli, data
from nextloc import dataset as dataset_module
from nextloc.data import (CheckIn, DataError, SyntheticSpec, build_dataset,
                          day_index, discretize_time, filter_inactive_users,
                          filter_rare_pois, generate_synthetic, load_dataset,
                          parse_checkin_file, parse_timestamp,
                          save_dataset, split_point, write_checkin_file)
from nextloc.poi_net import PoiNet
from nextloc.user_net import UserNet


# -- timestamps ---------------------------------------------------------------

def test_parse_timestamp_against_calendar():
    # Independently verified: 2010-10-19T23:55:27Z is 1287532527 epoch seconds.
    assert parse_timestamp("2010-10-19T23:55:27Z") == 1287532527


def test_timestamp_round_trip():
    for t in (1, 86399, 1287532527, 2_000_000_000):
        assert parse_timestamp(data.format_timestamp(t)) == t


@pytest.mark.parametrize("t, expected", [
    (0, (0, 3)),          # epoch starts on a Thursday
    (86399, (23, 3)),     # last second of the day stays in slot 23
    (345600, (0, 0)),     # 1970-01-05, the first Monday
])
def test_discretize_time(t, expected):
    assert discretize_time(t) == expected


def test_discretize_custom_slot_count():
    assert discretize_time(86399, slots=4) == (3, 3)
    assert discretize_time(6 * 3600, slots=4) == (1, 3)


def test_day_index_buckets_by_utc_date():
    assert day_index(0) == day_index(86399)
    assert day_index(86400) == day_index(0) + 1


# -- raw file parsing ---------------------------------------------------------

def line(user, time, lat, lon, poi):
    return f"{user}\t{time}\t{lat}\t{lon}\t{poi}\n"


def test_parse_single_line(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(line("u42", "2010-10-19T23:55:27Z", "30.26", "-97.74", "p7"))
    result = parse_checkin_file(path)
    assert result.records == [CheckIn(0, 1287532527, 30.26, -97.74, 0)]
    assert result.user_ids == {"u42": 0}
    assert result.poi_ids == {"p7": 0}


def test_parse_reuses_dense_ids(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(
        line("a", "2010-01-01T08:00:00Z", "1.0", "1.0", "x")
        + line("b", "2010-01-01T09:00:00Z", "1.0", "1.0", "y")
        + line("a", "2010-01-02T08:00:00Z", "1.0", "1.0", "y"))
    result = parse_checkin_file(path)
    assert [r.user for r in result.records] == [0, 1, 0]
    assert [r.poi for r in result.records] == [0, 1, 1]


def test_parse_foursquare_column_order(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("a\tp1\t10.0\t20.0\t2010-01-01T08:00:00Z\n")
    result = parse_checkin_file(path, fmt="foursquare")
    rec = result.records[0]
    assert (rec.lat, rec.lon) == (10.0, 20.0)
    assert rec.t == parse_timestamp("2010-01-01T08:00:00Z")


def test_parse_counts_malformed_below_threshold(tmp_path):
    path = tmp_path / "raw.tsv"
    good = [line(f"u{i}", "2010-01-01T08:00:00Z", "1.0", "1.0", "p") for i in range(200)]
    path.write_text("".join(good) + "not\ttab\tseparated\n")
    result = parse_checkin_file(path)
    assert result.malformed == 1
    assert len(result.records) == 200


def test_parse_rejects_mostly_malformed(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("garbage line\n" + line("a", "2010-01-01T08:00:00Z", "1", "1", "p"))
    with pytest.raises(DataError, match="malformed"):
        parse_checkin_file(path)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("")
    with pytest.raises(DataError, match="no usable"):
        parse_checkin_file(path)


def test_parse_rejects_out_of_range_coordinates(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text(line("a", "2010-01-01T08:00:00Z", "91.0", "0.0", "p"))
    with pytest.raises(DataError):
        parse_checkin_file(path)


def test_parse_unknown_format(tmp_path):
    with pytest.raises(DataError, match="unknown format"):
        parse_checkin_file(tmp_path / "whatever", fmt="brightkite")


def test_parse_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        parse_checkin_file(tmp_path / "absent.tsv")


def test_parse_undecodable_bytes_is_data_error(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_bytes(line("a", "2010-01-01T08:00:00Z", "1", "1", "p").encode() + b"\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        parse_checkin_file(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "raw.tsv"


FIELD = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["2010-01-01T08:00:00Z", "1969-12-31T23:59:59Z", "9999-12-31T23:59:59+01:00",
                     "2010-02-30T00:00:00Z", "0", "-0.0", "90", "180", "-180", "1e999",
                     "nan", "inf", "u1", "p1", ""]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=40),
                          st.lists(FIELD, min_size=4, max_size=6).map("\t".join),
                          st.tuples(FIELD, st.just("2010-01-01T08:00:00Z"),
                                    st.floats(-90, 90).map(repr), st.floats(-179, 180).map(repr),
                                    FIELD).map("\t".join)),
                max_size=8))
def test_parse_fuzz_parses_or_raises_data_error(fuzz_path, lines):
    """Arbitrary text lines either parse into valid records or raise DataError."""
    fuzz_path.write_text("\n".join(lines), encoding="utf-8")
    try:
        result = parse_checkin_file(fuzz_path)
    except DataError:
        return
    assert result.records and result.malformed * 100 <= result.total_lines
    for r in result.records:
        assert r.t > 0 and -90.0 <= r.lat <= 90.0 and -180.0 < r.lon <= 180.0


# -- filtering ----------------------------------------------------------------

def checkins(counts: dict[int, int]) -> list[CheckIn]:
    out = []
    t = 1_000_000
    for user, n in counts.items():
        for k in range(n):
            out.append(CheckIn(user, t, 0.0, 0.0, user * 100 + (k % 3)))
            t += 3600
    return out


def test_filter_threshold_boundary():
    records = checkins({0: 150, 1: 99})
    result = filter_inactive_users(records, min_count=100)
    assert {r.user for r in result.records} == {0}
    assert len(result.records) == 150


def test_filter_keeps_exact_count():
    """A user with exactly min_count records stays (>= threshold, not >)."""
    result = filter_inactive_users(checkins({0: 100}), min_count=100)
    assert len(result.records) == 100


def test_filter_min_one_keeps_everything():
    records = checkins({3: 5, 9: 2})
    result = filter_inactive_users(records, min_count=1)
    assert len(result.records) == 7
    # Ids are recompacted densely in first-seen order.
    assert result.user_map == {3: 0, 9: 1}


def test_filter_everything_gone():
    with pytest.raises(DataError):
        filter_inactive_users(checkins({0: 3}), min_count=10)


def test_filter_rare_pois():
    records = [CheckIn(0, 1000 + i, 0.0, 0.0, 0) for i in range(5)]
    records += [CheckIn(0, 2000, 0.0, 0.0, 1)]
    result = filter_rare_pois(records, min_count=2)
    assert {r.poi for r in result.records} == {0}


# -- split and windows ---------------------------------------------------------

def test_split_point_ceils():
    assert split_point(10, 0.8) == 8
    assert split_point(10, 0.75) == 8  # ceil(7.5)
    assert split_point(5, 0.8) == 4


def make_windows(events: list, window: int) -> list[list]:
    """Cut a sequence into non-overlapping chunks of the window length; a
    shorter tail is kept when it still has an input step and a target.  The
    record-list reference for ``Dataset.user_windows`` and ``poi_windows``."""
    return [events[s:s + window] for s in range(0, len(events), window)
            if len(events) - s >= 2]


def test_make_windows_tail_rule():
    events = list(range(7))
    assert make_windows(events, 3) == [[0, 1, 2], [3, 4, 5]]  # lone tail dropped
    assert make_windows(list(range(8)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]


def random_records(rng):
    """A few users' check-ins at random times (ties included) and places."""
    records = []
    for user in range(int(rng.integers(2, 6))):
        n = int(rng.integers(3, 16))
        times = rng.integers(0, 40, n) * 3600
        lat, lon = rng.uniform(-1, 1, 2)
        records += [CheckIn(user, int(t), float(lat), float(lon), int(p))
                    for t, p in zip(times, rng.integers(0, 7, n))]
    return records


def same_batch(a, b):
    pairs = [*zip(a.steps, b.steps), (a.context, b.context), (a.targets, b.targets),
             (a.mask, b.mask)]
    return (len(a.steps) == len(b.steps) and all(np.array_equal(x, y) for x, y in pairs)
            and (a.recall is None) == (b.recall is None)
            and (a.recall is None or np.array_equal(a.recall, b.recall)))


@pytest.mark.parametrize("seed", range(8))
def test_window_views_equal_the_record_windows(seed):
    """Each training window is an Events view that reads like the record list
    ``make_windows`` cuts from the owner's training records, and packs alike."""
    rng = np.random.default_rng(seed)
    ds = build_dataset(random_records(rng), split_ratio=float(rng.uniform(0.5, 1.0)),
                       window=int(rng.integers(2, 7)))
    nets = (UserNet(ds.n_users, ds.n_pois, dim=3, beta=1.0, seed=seed),
            PoiNet(ds.n_users, ds.n_pois, n_slots=ds.slots, dim=3, slot_dim=2, seed=seed))
    for views, parts, net in ((ds.user_windows, ds.train, nets[0]),
                              (ds.poi_windows, ds.poi_train, nets[1])):
        lists = [w for records in parts for w in make_windows(records, ds.window)]
        assert len(views) == len(lists) and views == lists
        for view, records in zip(views, lists):
            assert len(view) == len(records) and list(view) == records
            assert [view[i] for i in range(len(view))] == records
            assert view[-1] == records[-1] and type(view[0]) is type(records[0])
            for k in range(len(records) + 2):
                assert len(view[:k]) == len(records[:k]) and view[:k] == records[:k]
            assert view[1:-1] == records[1:-1]
        if lists:
            assert same_batch(net.pack(views), net.pack(lists))
            assert same_batch(net.pack(views), net.pack(ds.windows(net.grouping)))


def trajectory(user, pois, start=1_000_000, step=3600, lat=0.0, lon=0.0):
    return [CheckIn(user, start + k * step, lat, lon, p) for k, p in enumerate(pois)]


def test_build_dataset_split_sizes():
    records = trajectory(0, [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]) + \
        trajectory(1, [1, 2, 0, 1, 2, 0, 1, 2, 0, 1], start=2_000_000)
    ds = build_dataset(records, split_ratio=0.8)
    assert [len(t) for t in ds.train] == [8, 8]
    assert [len(t) for t in ds.test] == [2, 2]


def test_build_dataset_no_split_leakage(small_dataset):
    for u in range(small_dataset.n_users):
        if small_dataset.test[u]:
            assert small_dataset.train[u][-1].t <= small_dataset.test[u][0].t


def test_build_dataset_event_conservation(small_dataset):
    ds = small_dataset
    per_user = sum(len(t) for t in ds.train) + sum(len(t) for t in ds.test)
    per_poi = sum(len(h) for h in ds.poi_train) + sum(len(h) for h in ds.poi_test)
    assert per_user == per_poi == len(ds.records)


def test_build_dataset_poi_split_matches_user_split(small_dataset):
    """A POI's train history holds exactly the events from user train portions."""
    ds = small_dataset
    train_keys = {(r.user, r.t, r.poi) for evs in ds.train for r in evs}
    for p, history in enumerate(ds.poi_train):
        for e in history:
            assert (e.user, e.t, p) in train_keys


def test_visit_events_carry_slot_and_weekday(small_dataset):
    for history in small_dataset.poi_train:
        for e in history:
            assert (e.slot, e.weekday) == discretize_time(e.t, small_dataset.slots)


def test_cold_poi_flagged():
    # POI 3 appears only in user 0's test portion (the final 2 of 10 events).
    records = trajectory(0, [0, 1, 2, 0, 1, 2, 0, 1, 3, 3])
    records += trajectory(1, [1, 0, 2, 1, 0, 2, 1, 0, 2, 1], start=2_000_000)
    ds = build_dataset(records)
    assert 3 in ds.cold_pois
    assert ds.poi_train[3] == []
    assert len(ds.poi_test[3]) == 2


def test_build_dataset_needs_two_train_events():
    with pytest.raises(DataError, match="train events"):
        build_dataset(trajectory(0, [0]) + trajectory(1, [1, 0, 1, 0], start=2_000_000))


def _keys(rows):
    return tuple(np.array(column, dtype=np.int64) for column in zip(*rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
                min_size=1, max_size=30)
       .flatmap(lambda rows: st.sampled_from([rows, sorted(rows)])))
def test_order_check_is_exactly_an_identity_sort(rows):
    """build_dataset skips the sort exactly when the stable (t, user, poi)
    sort would leave the rows where they are, ties and duplicates included."""
    t, user, poi = _keys(rows)
    identity = np.array_equal(np.lexsort((poi, user, t)), np.arange(t.size))
    assert dataset_module._in_order(t, user, poi) == identity


def test_ordered_events_are_not_sorted_again(small_dataset, monkeypatch):
    """Events already in (t, user, poi) order build the columns and groupings
    the sorting path builds, into a new Events: the caller's Events keeps
    its columns and their values."""
    given = dataset_module.Events(CheckIn, **{f: small_dataset.events.columns[f].copy()
                                              for f in CheckIn._fields})
    before = {f: column.copy() for f, column in given.columns.items()}
    kept = build_dataset(given, window=5)
    monkeypatch.setattr(dataset_module, "_in_order", lambda *keys: False)
    resorted = build_dataset(given, window=5)
    assert list(given.columns) == list(CheckIn._fields)
    for name, column in before.items():
        assert np.array_equal(_bits(given.columns[name]), _bits(column)), name
    assert kept.events is not given and set(kept.events.columns) == set(resorted.events.columns)
    for name, column in resorted.events.columns.items():
        got = kept.events.columns[name]
        assert got.dtype == column.dtype and np.array_equal(_bits(got), _bits(column)), name
    for grouping in ("by_user", "by_poi"):
        for field in dataclasses.fields(dataset_module.Grouping):
            assert np.array_equal(getattr(getattr(kept, grouping), field.name),
                                  getattr(getattr(resorted, grouping), field.name))


def test_build_dataset_empty():
    with pytest.raises(DataError):
        build_dataset([])


# -- synthetic generator -------------------------------------------------------

def test_same_seed_same_dataset(small_spec):
    a = generate_synthetic(small_spec, seed=5)
    b = generate_synthetic(small_spec, seed=5)
    assert a.records == b.records
    assert a.meta == b.meta


def test_different_seeds_differ(small_spec):
    a = generate_synthetic(small_spec, seed=0)
    b = generate_synthetic(small_spec, seed=1)
    assert a.records != b.records


def test_event_count_arithmetic():
    spec = SyntheticSpec()
    ds = generate_synthetic(spec, seed=0)
    assert len(ds.records) == spec.n_users * spec.events_per_user == 4800


def test_clone_pool_share_floor():
    """Every clone-pair member draws at least pool_overlap of visits from the pool."""
    spec = SyntheticSpec()
    ds = generate_synthetic(spec, seed=3)
    pools = ds.meta["pools"]
    by_user = [[] for _ in range(ds.n_users)]
    for r in ds.records:
        by_user[r.user].append(r.poi)
    for a, b in ds.meta["clone_pairs"]:
        for u in (a, b):
            pool = set(pools[u])
            share = sum(1 for p in by_user[u] if p in pool) / len(by_user[u])
            assert share >= spec.pool_overlap


def test_clone_pair_count():
    spec = SyntheticSpec()  # 40 users, 30% in clone pairs -> 6 pairs
    ds = generate_synthetic(spec, seed=0)
    assert len(ds.meta["clone_pairs"]) == 6
    members = [u for pair in ds.meta["clone_pairs"] for u in pair]
    assert len(set(members)) == 12


def test_clone_fraction_zero():
    ds = generate_synthetic(SyntheticSpec(clone_fraction=0.0), seed=0)
    assert ds.meta["clone_pairs"] == []


def test_planted_positions_disjoint(small_spec):
    """Noise never overwrites an adoption, discovery, or exploration visit."""
    ds = generate_synthetic(small_spec, seed=2)
    meta = ds.meta
    by_user = [[] for _ in range(ds.n_users)]
    for r in ds.records:
        by_user[r.user].append(r)
    for u in range(ds.n_users):
        planted = (meta["adoption_positions"][u] + meta["discovery_positions"][u]
                   + meta["exploration_positions"][u])
        assert len(planted) == len(set(planted))
        for pos in meta["exploration_positions"][u]:
            assert by_user[u][pos].poi == meta["exploration_poi"][u]


def test_exploration_is_new_ground(small_spec):
    """Exploration targets a place absent from the user's own repertoire/palette."""
    ds = generate_synthetic(small_spec, seed=4)
    meta = ds.meta
    for u, goal in enumerate(meta["exploration_poi"]):
        if goal is None:
            continue
        assert goal not in meta["repertoires"][u]
        assert goal not in meta["palettes"][u]


# The order of the generator's draws is part of its format: a spec and seed
# always give the same bytes.  A change that reorders or regroups draws must
# leave these digests of every events column and of the meta as they are.
PINNED_SPECS = {
    "default": {},
    "scale-10x": {"n_users": 400, "n_pois": 300, "n_zones": 30},
    "pipeline-cli": {"n_users": 160, "n_pois": 120, "n_zones": 12},
    "split_plans=False": {"split_plans": False},
    "slot_jitter=0": {"slot_jitter": 0},
    "noise_rate=0": {"noise_rate": 0.0},
    "clone_fraction=0": {"clone_fraction": 0.0},
    "clone_fraction=1": {"clone_fraction": 1.0},
    "n_users=41": {"n_users": 41},
}
PINNED_DIGESTS = {
    ("default", 0): ("5be82a5a1aa9772dafc6555c8c7ec530f5ed44f651973138a47d6f1b681a98a8",
                    "0018bcd1d867a1723f1e31699dbc72f7609c32ad6784d83f9f852f4dbf3e9f0c"),
    ("default", 1): ("516bb2f37aba063eae61bc4914e40b4377ead04e0a0f623a07edb059489dd1c4",
                    "a67038cef328918352c5b8ce161c7d6c31648d4412d1b62ad1347cd72fd57b43"),
    ("default", 2): ("8254878b0d44f8a81a6aa75c3b08d3c396ef88ab2cd6de4ce3f04d365427cfcd",
                    "26566308703e355dc9c1059ff23d344deca5b9f3b0d1a515b6149c6bb758ec78"),
    ("scale-10x", 0): ("ca65948afc0181edfad4965f8483fae43578635882956ff74f350b0b04fa0b4b",
                      "d27a2d87cf576fd5e9dfb7ff0d23a636f3d2f4776043588f90b0087683eba32f"),
    ("scale-10x", 1): ("4f7be8924bdff31c0304102268152ea604b94d0ee20bc8711de5a341c0c606bc",
                      "7613754b3ff422b5bf5dbc742c20c2ce3dfddef1b55c4e1345a71ac3d146ff39"),
    ("scale-10x", 2): ("93b1627bd8c95bf4d2383456bbf71c9933507aef709662282ab952f3e5412d08",
                      "e71ab06546acca469d2cc9bac88513469ceed633935aad6641b183002751c03a"),
    ("pipeline-cli", 0): ("dab360590cde2ea984a34bd1f8eb28136d4fa52db986278fe52e281e604bf1e8",
                         "b2b52771189ec89fb1308fcdc222fc04604f363df4c9f598a4ae88eabea30473"),
    ("pipeline-cli", 1): ("bd0fa236b4205a3d4af43609f9d724d53f516c8e3ca7677cc2e33f70cf574e29",
                         "ab6ac1e490864791a1345ebe4631e51d1142986341684206b23aa80414287ef3"),
    ("pipeline-cli", 2): ("2a40915624f68910a314fb8c7e05e032e373c69a2d88456faaff4b548c0a62d7",
                         "4a2feb3c3cd5614d5172567b7eec7959437be1ad9f7c44ccbba185f5b8cb2c7f"),
    ("split_plans=False", 0): ("c1ae11204b396de704a221b726297d6ee49d71bc9d93bdabc61a9dc7feb246d7",
                              "830cb0b4e22c84c7d709a755745fa92fe22a778754046d986af9aaf7b30cf66b"),
    ("split_plans=False", 1): ("2074269e8066cc1a2e1d8d74d87b18729cc763d709c46197acbe9bf2006cccfa",
                              "5c5bea8676e229e07cc3bf9360aaebd3dfb2daf5df1b2015ac87eac45a0a2eb1"),
    ("split_plans=False", 2): ("94ed46f41176f0b3eaa8d9c8c38e78401a815571559cd5bd00093400797bca95",
                              "ad57afd7391d5ccbff8a5f9986a131ea26e62ffb515d31e4f065ccacf7502886"),
    ("slot_jitter=0", 0): ("4a5162d044c0f0a379421cc2dc4f96579a81451bb6db4c596a9913277938739f",
                          "afb67e19a236b73d4eca13a817b5bffe082f77ab4cb2f087b16345240f71cdbc"),
    ("slot_jitter=0", 1): ("be43a2da63f7253c02eb7dfdaaf4f695e72b556667fd653c878a634950bfe575",
                          "59180fe2eb47cbbfc5f37ccda1b23cd319ae3832df17d5d749f5cad6069ccc96"),
    ("slot_jitter=0", 2): ("6bbedf6d41d6181036d48853b65f8530f066baf9b40c04d6f7ef0eb657be36de",
                          "5a231636eab6fc47d1ad9e80f4f1754f0a1c9dd038542238299a7a1e771f9aa3"),
    ("noise_rate=0", 0): ("938b71941e17d3002986034dc42c20b80c2a868185a7cb7d4bf1999ed1db6a4b",
                         "e896ce0c59541f7991f57d49dce9f557358e141127f4c0e6b2c83df2f5eb0928"),
    ("noise_rate=0", 1): ("96cc9f1074b173ee69ae84e07edeadb130e8cf53d594105bb895209521c833f2",
                         "2f94cadeea5064338bfc605f5010b02ac8f503533112fb13fdc57d53ef11d631"),
    ("noise_rate=0", 2): ("a0bbaad8612d94f44f87171f0f6c2462fe7bfbdd935fb4f9b4cf9f85a6b350ab",
                         "0aaf6d1f198a74b4a23da18b543101f6ca805be933f9d46a65e974a81b3dd175"),
    ("clone_fraction=0", 0): ("b26dbdccb1bda054a7a882392af990625879dc4c97d873ed6ada573726d2ef79",
                             "32af553a3ae01548c338d24b315fb7cd5abce7c3623ef7f1bfaf1533b0b1bdb3"),
    ("clone_fraction=0", 1): ("28545ed23c6a5095eb688f05dde02c12c2b224f3b6190b7fdb2e056b08aec110",
                             "825f5f911a60595a890a4b9ced9ee068fde41e617537e601233d3efca6bf1941"),
    ("clone_fraction=0", 2): ("95d0968711b20e3ce2455e5d03a4ec36a5c7c8319370804a78cfc922fb231e4e",
                             "c41ef3124332f9192b7fd2a41b1da8b8704c1cba413c8d13df53411075a6680a"),
    ("clone_fraction=1", 0): ("d411fcf95ba0c80778cce1155ed8eef3bdaeae05e467d9f454ff5b548ca8e529",
                             "d36b52ce6508d6402796115d6fbc08860b25fe0a2ab9bf785b4df2f63df5a6f0"),
    ("clone_fraction=1", 1): ("e325a061198b8d783a1795af4eeef2b0be850b0492ba3c7c17e3b7b4e19c5f4e",
                             "5933fcae9600cf37e977fe41c96cd4156ee6c58cba94b1c8be182dff72eebd08"),
    ("clone_fraction=1", 2): ("ec50cf631d77a8834b39e0628ff07902cb29f461e9ee23c05bca073c7d1fa781",
                             "b9ce341b9140db81717ac277752466993c68771a22dc115d9ee6954881bbbbbc"),
    ("n_users=41", 0): ("71ae55a3311d666a3ba604f60064aaaf8e4f9505a4a5758a8382390d37c5edda",
                       "f120f9b8a9cf2d0fecb80df59b12c965b4371c178dc2ef4c201caeaa941a426a"),
    ("n_users=41", 1): ("6ffc3c8552c1166cc6889f3bbafb8f433d783d043f3dd35403aed2b82ef5c1db",
                       "5d0b51b602985f300c802f4292928874b17f54f14bf54a62dbdb7f9d953127f4"),
    ("n_users=41", 2): ("111dcfbb392255690a2d870cf92000c296d63e642384c05ab3701794ae3ef773",
                       "f463e0de97140e9939a0c07541a65fe30a36345edc1f555370ab1ed1462903e2"),
}


def synthetic_digests(dataset) -> tuple[str, str]:
    """sha256 of the events columns (name, dtype and length of each, then its
    bytes) and of the meta as sorted JSON."""
    events = hashlib.sha256()
    for name, column in dataset.events.columns.items():
        events.update(f"{name} {column.dtype.str} {column.size}\n".encode())
        events.update(column.tobytes())
    meta = hashlib.sha256(json.dumps(dataset.meta, sort_keys=True).encode())
    return events.hexdigest(), meta.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(PINNED_DIGESTS))
def test_generator_output_is_pinned(name, seed):
    dataset = generate_synthetic(SyntheticSpec(**PINNED_SPECS[name]), seed)
    assert synthetic_digests(dataset) == PINNED_DIGESTS[name, seed]


@pytest.mark.parametrize("overrides", [
    {"n_pois": 5, "n_zones": 1},               # clone pool does not fit
    {"noise_rate": 0.3, "pool_overlap": 0.9},   # floor arithmetic impossible
    {"events_per_user": 8},
    {"clone_fraction": 1.5},
    {"adopt_count": 40},                        # cannot fit in the test segment
    {"slot_jitter": 13},
    {"go_prob": 0.0},
    {"noise_palette": -1},                      # counts must be at least 0
    {"exclusive_per_user": -1},
    {"adopt_count": -1},
    {"drift_count": -3},
    {"noise_rate": -0.5},                       # rates must lie in [0, 1]
    {"pool_overlap": -1.0},
    {"off_prob": float("nan")},
    {"n_zones": 100},                           # 30 POIs leave zones empty
    {"n_pois": 10, "n_zones": 6},               # zones of 2, the last one empty
    {"events_per_user": 100_000},               # beyond 10001 days of 6 places
    {"pool_overlap": 0.0, "noise_rate": 1.0},   # more noise than unplanted slots
    {"pool_overlap": 0.0, "noise_rate": 0.97},
])
def test_infeasible_specs_rejected(overrides):
    with pytest.raises(DataError, match="infeasible"):
        generate_synthetic(SyntheticSpec(**overrides), seed=0)


def test_generator_builds_no_checkin(monkeypatch, small_spec):
    """The generator hands build_dataset columns, not one record per event."""
    built = []

    class Counted(CheckIn):
        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(data, "CheckIn", Counted)
    dataset = generate_synthetic(small_spec, seed=0)
    assert len(dataset.events) == small_spec.n_users * small_spec.events_per_user
    assert built == []


# -- persistence ---------------------------------------------------------------

def _bits(column: np.ndarray) -> np.ndarray:
    """A column with floats as their bit patterns, so -0.0 and NaN compare exactly."""
    return column.view(np.int64) if column.dtype.kind == "f" else column


def test_dataset_directory_round_trip(tmp_path, small_dataset):
    out = tmp_path / "ds"
    save_dataset(small_dataset, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "events.npy", "manifest.json", "meta.json", "pois.tsv", "users.tsv"]
    loaded = load_dataset(out)
    assert set(loaded.events.columns) == set(small_dataset.events.columns)
    for name, column in small_dataset.events.columns.items():
        got = loaded.events.columns[name]
        assert got.dtype == column.dtype and np.array_equal(_bits(got), _bits(column)), name
    assert loaded.n_users == small_dataset.n_users
    assert loaded.n_pois == small_dataset.n_pois
    assert loaded.user_raw == small_dataset.user_raw
    assert loaded.poi_raw == small_dataset.poi_raw
    # meta passes through JSON, so compare against its JSON image
    assert loaded.meta == json.loads(json.dumps(small_dataset.meta))


def test_load_dataset_parses_no_text(tmp_path, small_dataset, monkeypatch):
    """The events table is read as columns: the check-in parser serves ingest only."""
    save_dataset(small_dataset, tmp_path / "ds")

    def refuse(*args, **kwargs):
        raise AssertionError("load_dataset parsed text")
    monkeypatch.setattr(data, "parse_checkin_file", refuse)
    assert load_dataset(tmp_path / "ds").records == small_dataset.records


def test_load_dataset_sorts_nothing(tmp_path, small_dataset, monkeypatch):
    """A saved table is in (t, user, poi) order, so loading it calls
    ``np.lexsort`` not once; the same events reversed are sorted once."""
    save_dataset(small_dataset, tmp_path / "ds")
    calls = []
    lexsort = np.lexsort

    def counting(keys, *args, **kwargs):
        calls.append(len(keys))
        return lexsort(keys, *args, **kwargs)
    monkeypatch.setattr(np, "lexsort", counting)
    assert load_dataset(tmp_path / "ds").records == small_dataset.records
    assert calls == []
    build_dataset(small_dataset.events.take(slice(None, None, -1)))
    assert calls == [3]


def test_save_dataset_removes_stale_meta(tmp_path, small_dataset):
    """A dataset without meta saved where one with meta was leaves no
    ``meta.json`` behind, so the old planted labels are not read with it."""
    out = tmp_path / "ds"
    save_dataset(small_dataset, out)
    assert (out / "meta.json").exists()
    save_dataset(dataclasses.replace(small_dataset, meta={}), out)
    assert not (out / "meta.json").exists()
    assert load_dataset(out).meta == {}


def test_ingest_over_synth_keeps_no_synthetic_meta(tmp_path, small_dataset):
    """``synth --out D`` then ``ingest --out D``: D loads without the
    synthetic meta (clone pairs, adoption positions)."""
    out, raw = tmp_path / "ds", tmp_path / "raw.txt"
    write_checkin_file(raw, small_dataset.events, small_dataset.user_raw, small_dataset.poi_raw)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--out", str(out), "--seed", "1"]) == 0
        assert "clone_pairs" in load_dataset(out).meta
        assert cli.main(["ingest", "--input", str(raw), "--out", str(out),
                         "--min-records", "1"]) == 0
    assert not (out / "meta.json").exists()
    assert load_dataset(out).meta == {}


def test_save_dataset_removes_a_version_1_events_file(tmp_path, small_dataset):
    """Saving over a version-1 directory leaves no ``events.tsv`` beside the
    new events table."""
    out = tmp_path / "ds"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"version": 1, "format": "gowalla"}))
    write_checkin_file(out / "events.tsv", small_dataset.events, small_dataset.user_raw,
                       small_dataset.poi_raw)
    save_dataset(small_dataset, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "events.npy", "manifest.json", "meta.json", "pois.tsv", "users.tsv"]


@pytest.mark.parametrize("manifest", [None, {"version": 2}, "not json"],
                         ids=["none", "version-2", "unreadable"])
def test_save_dataset_keeps_files_of_no_version_1_dataset(tmp_path, small_dataset, manifest):
    """An ``events.tsv`` (and a ``meta.json``) in a directory whose manifest is
    missing or unreadable is no dataset's part and stays; so does an
    ``events.tsv`` beside a version-2 manifest."""
    out = tmp_path / "ds"
    out.mkdir()
    if manifest is not None:
        (out / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
    (out / "events.tsv").write_text("u1\t2010-01-01T00:00:00Z\t1.0\t2.0\tp1\n")
    (out / "meta.json").write_text("{}")
    save_dataset(dataclasses.replace(small_dataset, meta={}), out)
    assert (out / "events.tsv").read_text().startswith("u1\t")
    assert (out / "meta.json").exists() == (manifest is None or manifest == "not json")
    assert load_dataset(out).records == small_dataset.records


@pytest.mark.parametrize("name", ["events.tsv", "users.tsv"])
def test_ingest_refuses_to_replace_its_input(tmp_path, small_dataset, name):
    """``ingest --input D/events.tsv --out D`` over a version-1 directory
    (whose ``events.tsv`` saving would remove), or with an input the save
    would write over, exits with a data error and leaves D as it was."""
    out = tmp_path / "ds"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"version": 1, "format": "gowalla"}))
    write_checkin_file(out / name, small_dataset.events, small_dataset.user_raw,
                       small_dataset.poi_raw)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["ingest", "--input", str(out / name), "--out", str(out),
                         "--min-records", "1"])
    assert code == cli.EXIT_DATA and "another directory" in err.getvalue()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_raw_file_round_trip(tmp_path, small_dataset):
    """Write to the external format, parse back: the same check-ins under
    the same raw ids."""
    path = tmp_path / "events.tsv"
    write_checkin_file(path, small_dataset.records, small_dataset.user_raw,
                       small_dataset.poi_raw)
    reparsed = parse_checkin_file(path)
    # The parser numbers raw ids in first-seen order; map them back by name.
    user = np.array([small_dataset.user_raw.index(raw) for raw in reparsed.user_ids])
    poi = np.array([small_dataset.poi_raw.index(raw) for raw in reparsed.poi_ids])
    assert [CheckIn(int(user[r.user]), r.t, r.lat, r.lon, int(poi[r.poi]))
            for r in reparsed.records] == small_dataset.records


def test_load_dataset_rejects_random_directory(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_dataset(tmp_path)


# -- the events table, corrupted --------------------------------------------------

def _npy(array, claim: int | None = None) -> bytes:
    """``array`` in the .npy format; ``claim`` replaces the row count its header states."""
    buf = io.BytesIO()
    if claim is None:
        np.save(buf, array, allow_pickle=True)
    else:
        np.lib.format.write_array_header_1_0(buf, {
            "descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": False,
            "shape": (claim,)})
        buf.write(array.tobytes())
    return buf.getvalue()


def _other_tables(table):
    """The table with the wrong dtype or number of dimensions."""
    names = table.dtype.names
    return [table.astype([(f, "<i8") for f in names]),
            table.astype([(f, "<f4" if f in ("lat", "lon") else "<i8") for f in names]),
            table.astype([(f, ">f8" if f in ("lat", "lon") else ">i8") for f in names]),
            table.astype([("uid" if f == "user" else f, table.dtype[f]) for f in names]),
            table[["user", "t", "lat", "lon"]],
            np.column_stack([table[f].astype(float) for f in names]),
            table.reshape(-1, 2), table[None],
            np.array([dict(user=0)] * len(table), dtype=object)]


#: Ways to corrupt a saved events table: (kind, row or byte, detail).
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncated"), st.integers(0, 1 << 20), st.none()),
    st.tuples(st.just("header byte"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("body bits"), st.integers(0, 1 << 20),
              st.sampled_from(["user", "t", "lat", "lon", "poi"])),
    st.tuples(st.just("other table"), st.integers(0, 8), st.none()),
    st.tuples(st.just("rows"), st.none(), st.sampled_from([-1, 1])),
    st.tuples(st.just("user"), st.integers(0, 1 << 20), st.sampled_from([10, 11, -1, 2**62])),
    st.tuples(st.just("poi"), st.integers(0, 1 << 20), st.sampled_from([20, 21, -1, -2**63])),
    st.tuples(st.just("lat"), st.integers(0, 1 << 20),
              st.sampled_from([np.nan, np.inf, -np.inf, 90.5, -90.0000001, 1e300])),
    st.tuples(st.just("lon"), st.integers(0, 1 << 20),
              st.sampled_from([np.nan, -np.nan, np.inf, -180.0, 180.00001, -1e300])),
    st.tuples(st.just("t"), st.integers(0, 1 << 20), st.sampled_from([0, -1, -2**40])),
    st.tuples(st.just("claims 10^12 rows"), st.none(), st.none()))


def _corrupt(original: bytes, table, kind, at, detail) -> bytes:
    offset = len(original) - table.nbytes
    if kind == "truncated":
        return original[:at % len(original)]
    if kind == "header byte":
        at %= offset
        return original[:at] + bytes([original[at] ^ detail]) + original[at + 1:]
    if kind == "body bits":
        # Bits that break a check: the sign bit of an id or a time, and every
        # exponent bit of a coordinate (inf or NaN).
        at = offset + (at % len(table)) * table.itemsize + table.dtype.fields[detail][1]
        value = bytearray(original[at:at + 8])
        if detail in ("lat", "lon"):
            value[6] |= 0xF0
            value[7] |= 0x7F
        else:
            value[7] ^= 0x80
        return original[:at] + bytes(value) + original[at + 8:]
    if kind == "other table":
        return _npy(_other_tables(table)[at])
    if kind == "rows":
        return _npy(table[:-1] if detail < 0 else np.concatenate([table, table[-1:]]))
    if kind == "claims 10^12 rows":
        return _npy(table, claim=10**12)
    changed = table.copy()
    changed[kind][at % len(table)] = detail
    return _npy(changed)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory, small_dataset):
    """A saved small dataset, and its events table as bytes and as an array."""
    out = tmp_path_factory.mktemp("table") / "ds"
    save_dataset(small_dataset, out)
    return out, (out / "events.npy").read_bytes(), np.load(out / "events.npy")


@settings(max_examples=250, deadline=None, derandomize=True)
@given(CORRUPTIONS)
def test_corrupt_events_table_is_a_data_error(table_dir, small_dataset, case):
    """Every corruption is refused with DataError, and ``stats`` exits 3.
    A header byte may also change nothing the reader sees (padding spaces,
    the trailing comma); then the very same columns load."""
    directory, original, table = table_dir
    (directory / "events.npy").write_bytes(_corrupt(original, table, *case))
    try:
        loaded = load_dataset(directory)
    except DataError:
        refused = True
    else:
        refused = False
        assert case[0] == "header byte", case
        for name, column in small_dataset.events.columns.items():
            assert np.array_equal(_bits(loaded.events.columns[name]), _bits(column)), case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["stats", "--data", str(directory), "--out",
                         str(directory.parent / "stats")])
    assert code == (cli.EXIT_DATA if refused else 0), case


def test_dataset_immutable_under_reader(small_dataset):
    # Reading helpers must not mutate shared state.
    before = copy.deepcopy(small_dataset.train)
    _ = [{e.poi for e in evs} for evs in small_dataset.train]
    _ = association.shared_places(small_dataset)
    _ = small_dataset.cold_pois
    assert small_dataset.train == before
