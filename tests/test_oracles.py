"""Array code against the per-item code it replaced, kept here as oracles:
the check-in parser and writer, ``association.truncate_top_k``, the
set-based similarity builds, the record-view motivation statistics,
prediction one context at a time, the stepwise rows at every cut and
ranking one row at a time."""

import os
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc import association, evaluate, net
from nextloc import autodiff as ad
from nextloc.association import truncate_top_k
from nextloc.data import (FORMATS, CheckIn, DataError, build_dataset, day_index,
                          format_timestamp, load_dataset, parse_checkin_file,
                          parse_timestamp, save_dataset, write_checkin_file)
from nextloc.dataset import Events
from nextloc.evaluate import (STAT_KINDS, VARIANTS, WIRING, FusionStrategy, _combine,
                              _UserSideRows, evaluate_variants, motivation_stats,
                              rank_of_truth, ranks_of_truths)
from nextloc.poi_net import PoiNet
from nextloc.user_net import UserNet


# -- the per-line parser and the per-record writer ---------------------------------

def line_parser(path, fmt="gowalla"):
    """``parse_checkin_file`` one line at a time: (records, user ids, place
    ids, malformed, total lines)."""
    columns = FORMATS[fmt]
    users, pois = {}, {}
    records, malformed, total = [], 0, 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                total += 1
                fields = line.split("\t")
                if len(fields) != 5:
                    malformed += 1
                    continue
                row = dict(zip(columns, fields))
                try:
                    t = parse_timestamp(row["time"])
                    lat = float(row["lat"])
                    lon = float(row["lon"])
                except ValueError:
                    malformed += 1
                    continue
                if not (t > 0 and -90.0 <= lat <= 90.0 and -180.0 < lon <= 180.0):
                    malformed += 1
                    continue
                records.append(CheckIn(users.setdefault(row["user"], len(users)), t, lat, lon,
                                       pois.setdefault(row["poi"], len(pois))))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if total and malformed * 100 > total:
        raise DataError(f"{path}: {malformed}/{total} malformed lines (>1%); wrong --format?")
    if not records:
        raise DataError(f"{path}: no usable check-in records")
    return records, list(users.items()), list(pois.items()), malformed, total


def record_writer(path, records, user_raw, poi_raw, fmt="gowalla"):
    """``write_checkin_file`` one record at a time."""
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            row = {"user": user_raw[r.user], "poi": poi_raw[r.poi],
                   "time": format_timestamp(r.t), "lat": repr(r.lat), "lon": repr(r.lon)}
            f.write("\t".join(row[c] for c in FORMATS[fmt]) + "\n")


# -- parser --------------------------------------------------------------------------

TIME_SAMPLES = [
        "2010-01-01T08:00:00+02:00", "2010-01-01T08:00:00-11:30", "2010-01-01T08:00:00",
        "2010-01-01T08:00:00.5Z", "2010-01-01T08:00:00.999999Z", "2010-01-01",
        "2010-02-30T00:00:00Z", "2011-02-29T12:00:00Z", "2012-02-29T23:59:59Z",
        "2000-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "1970-01-01T00:00:00Z",
        "1970-01-01T00:00:01Z", "9999-12-31T23:59:59Z", "9999-12-31T23:59:59-01:00",
        "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "2010-01-01T24:00:00Z",
        "2010-13-01T00:00:00Z", "2010-00-10T00:00:00Z", "2010-01-00T00:00:00Z",
        "2010-01-01T08:60:00Z", "2010-01-01T08:00:60Z", "2010-01-01 08:00:00Z",
        "2010-01-01T08:00Z", "20100101T080000Z", "2010-01-01T08:00:00z",
        "2010-01-01T08:00:00ZZ", "2010-01-01T08:00:00Z\x00", "201O-01-01T08:00:00Z",
    "２010-01-01T08:00:00Z", " 2010-01-01T08:00:00Z", "not-a-time", ""]
FLOAT_SAMPLES = ["40.0", " 40.0", "40.0 ", "1_0", "nan", "inf", "-inf", "1e1", "+5", "-0.0",
                 "90", "90.0000001", "-90", "-180", "180", "180.0", "1e999", "٣", "0x10",
                 "4 0", "", "east"]
TIMES = st.one_of(st.integers(-10**10, 253402300799).map(format_timestamp),
                  st.sampled_from(TIME_SAMPLES), st.text(max_size=22))
FLOATS = st.one_of(st.floats(-200, 200).map(repr), st.sampled_from(FLOAT_SAMPLES),
                   st.text(max_size=8))
IDS = st.one_of(st.sampled_from(["u1", "u2", "p1", "p2", " u1", "ü", "a b", ""]),
                st.text(max_size=4))
FIELDS = {"user": IDS, "poi": IDS, "time": TIMES, "lat": FLOATS, "lon": FLOATS}


def valid_lines(columns, n=150):
    good = [dict(user=f"u{i % 7}", poi=f"p{i % 5}", lat=repr(40.0 + i / 1000), lon="-75.0",
                 time=format_timestamp(1_262_304_000 + 3600 * i)) for i in range(n)]
    return ["\t".join(g[c] for c in columns) for g in good]


@st.composite
def checkin_files(draw):
    """(bytes of a check-in file, its format): a mix of valid and broken lines,
    with or without a block of valid lines that keeps a few broken ones under
    the 1% threshold, and now and then bytes that are not UTF-8."""
    fmt = draw(st.sampled_from(sorted(FORMATS)))
    columns = FORMATS[fmt]
    line = st.one_of(
        st.tuples(*(FIELDS[c] for c in columns)).map("\t".join),
        st.lists(st.one_of(IDS, TIMES, FLOATS), max_size=7).map("\t".join),
        st.just(""))
    lines = draw(st.lists(line, max_size=6))
    if draw(st.booleans()):
        base = valid_lines(columns)
        at = draw(st.integers(0, len(base)))
        lines = base[:at] + lines + base[at:]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join(lines).encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        data += newline.encode()
    if draw(st.integers(0, 9)) == 5:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data, fmt


def outcome(parse, path, fmt):
    try:
        result = parse(path, fmt)
    except DataError as exc:
        message = str(exc)
        # The decoder's byte offset depends on how much text it was given.
        return "error", message.split(": not UTF-8")[0] if "not UTF-8" in message else message
    if isinstance(result, tuple):
        return result
    return (list(result.records), list(result.user_ids.items()),
            list(result.poi_ids.items()), result.malformed, result.total_lines)


@pytest.fixture(scope="module")
def raw_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "raw.tsv"


@settings(max_examples=300, deadline=None)
@given(checkin_files())
def test_parser_matches_the_line_parser(raw_path, file):
    data, fmt = file
    raw_path.write_bytes(data)
    assert outcome(parse_checkin_file, raw_path, fmt) == outcome(line_parser, raw_path, fmt)


@pytest.mark.parametrize("field, text", [("time", t) for t in TIME_SAMPLES]
                         + [(f, x) for f in ("lat", "lon") for x in FLOAT_SAMPLES])
@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_parser_matches_the_line_parser_on_each_sample(tmp_path, fmt, field, text):
    """One unusual field among valid lines, so that its verdict decides the count."""
    row = dict(user="u1", poi="p1", lat="40.0", lon="-75.0", time="2010-01-01T08:00:00Z")
    row[field] = text
    path = tmp_path / "raw.tsv"
    lines = valid_lines(FORMATS[fmt])
    path.write_text("\n".join(lines[:70] + ["\t".join(row[c] for c in FORMATS[fmt])]
                              + lines[70:]), encoding="utf-8")
    assert outcome(parse_checkin_file, path, fmt) == outcome(line_parser, path, fmt)


def test_parser_reads_files_larger_than_one_block(tmp_path):
    """Ids stay first-seen across the reader's blocks of lines."""
    path = tmp_path / "raw.tsv"
    lines = [f"u{i % 13}\t{format_timestamp(1_262_304_000 + 60 * i)}\t{40 + i / 1e5!r}"
             f"\t-75.0\tp{(7 * i) % 31}" for i in range(20_000)]
    path.write_text("\n".join(lines[:9_000] + ["broken"] + lines[9_000:]) + "\n")
    assert outcome(parse_checkin_file, path, "gowalla") == outcome(line_parser, path, "gowalla")


# -- writer --------------------------------------------------------------------------

RAW_IDS = ["u 1", "café", "北京", "p#2", "x"]
WRITER_TIMES = st.one_of(
    st.integers(-30610224000, 253402300799),
    st.sampled_from([0, 86400 * 10957,                      # midnights: 1970, 2000-01-01
                     951782400, 1330473599, 1330516800,     # 2000-02-29, around 2012-02-29
                     2**31 - 1, 2**31, 2**32 + 17,          # around and after 2038
                     253402300799]))
COORDINATES = st.one_of(st.floats(-180, 180),
                        st.sampled_from([0.1 + 0.2, -0.0, 5e-324, -89.99999999999999,
                                         1 / 3, -179.12345678901234, 1e-05, 1e16]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(RAW_IDS) - 1), WRITER_TIMES, COORDINATES,
                          COORDINATES, st.integers(0, len(RAW_IDS) - 1)), max_size=30),
       st.sampled_from(sorted(FORMATS)))
def test_writer_matches_the_record_writer(raw_path, rows, fmt):
    records = [CheckIn(*row) for row in rows]
    record_writer(raw_path, records, RAW_IDS, RAW_IDS[::-1], fmt)
    want = raw_path.read_bytes()
    write_checkin_file(raw_path, records, RAW_IDS, RAW_IDS[::-1], fmt)
    assert raw_path.read_bytes() == want


def test_writer_refuses_years_it_cannot_spell(tmp_path):
    for t in (-30610224001, 253402300800):
        with pytest.raises(DataError, match="years 1000 to 9999"):
            write_checkin_file(tmp_path / "x.tsv", [CheckIn(0, t, 0.0, 0.0, 0)], ["u"], ["p"])


def test_save_load_save_is_byte_identical(tmp_path, small_dataset):
    save_dataset(small_dataset, tmp_path / "a")
    save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- truncate_top_k ------------------------------------------------------------------

def truncate_by_rows(corr, k):
    """``truncate_top_k`` one row at a time."""
    out = np.zeros_like(corr)
    for i in range(corr.shape[0]):
        row = corr[i].copy()
        row[i] = -np.inf
        keep = np.argsort(-row, kind="stable")[:k]
        out[i, keep] = corr[i, keep]
        out[i, i] = corr[i, i]
    return out


@pytest.mark.parametrize("seed", range(5))
def test_truncate_top_k_matches_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    corr = rng.integers(0, 3, (15, 15)) / 2.0      # values 0, 0.5 and 1: ties everywhere
    corr[rng.random(corr.shape) < 0.1] = -0.0
    corr[3] = 0.5
    corr[:, 7] = 1.0
    for k in range(17):
        assert truncate_top_k(corr, k).tobytes() == truncate_by_rows(corr, k).tobytes()


# -- similarity and statistics from per-entity sets --------------------------------

def set_user_similarity(ds, same_day=False, top_k=None):
    """``association.user_similarity`` by intersecting per-user sets."""
    if same_day:
        sets = [{(e.poi, day_index(e.t)) for e in evs} for evs in ds.train]
    else:
        sets = [{e.poi for e in evs} for evs in ds.train]
    corr = np.zeros((ds.n_users, ds.n_users))
    for m in range(ds.n_users):
        if sets[m]:
            for n in range(ds.n_users):
                corr[m, n] = len(sets[m] & sets[n]) / len(sets[m])
        corr[m, m] = 1.0
    return truncate_by_rows(corr, top_k) if top_k is not None else corr


def set_poi_similarity(ds, normalize="global", top_k=None):
    """``association.poi_similarity`` from per-(user, day) place sets and
    per-pair day sets."""
    visits_by_user_day = {}
    for evs in ds.train:
        for e in evs:
            visits_by_user_day.setdefault((e.user, day_index(e.t)), set()).add(e.poi)
    pair_days = {}
    for (_, day), pois in visits_by_user_day.items():
        members = sorted(pois)
        for i, m in enumerate(members):
            for n in members[i + 1:]:
                pair_days.setdefault((m, n), set()).add(day)
    raw = np.zeros((ds.n_pois, ds.n_pois))
    for (m, n), days in pair_days.items():
        raw[m, n] = raw[n, m] = len(days)
    if normalize == "global":
        top = raw.max()
        corr = raw / top if top > 0 else raw
    else:
        row_top = raw.max(axis=1, keepdims=True)
        corr = np.divide(raw, row_top, out=np.zeros_like(raw), where=row_top > 0)
    np.fill_diagonal(corr, 1.0)
    return truncate_by_rows(corr, top_k) if top_k is not None else corr


def record_stats(ds, which):
    """``evaluate.motivation_stats`` by looping over the record views."""
    if which == "visit_counts":
        rows = []
        for p in range(ds.n_pois):
            counts = {}
            for evs in (ds.poi_train[p], ds.poi_test[p]):
                for e in evs:
                    counts[e.user] = counts.get(e.user, 0) + 1
            top = max(counts.values(), default=0)
            for threshold in range(1, top + 1):
                rows.append((p, threshold, sum(1 for c in counts.values() if c >= threshold)))
        return rows
    if which == "temporal_density":
        rows = []
        for p in range(ds.n_pois):
            grid, total = {}, 0
            for evs in (ds.poi_train[p], ds.poi_test[p]):
                for e in evs:
                    grid[(e.slot, e.weekday)] = grid.get((e.slot, e.weekday), 0) + 1
                    total += 1
            for (slot, weekday), count in sorted(grid.items()):
                rows.append((p, slot, weekday, count / total))
        return rows
    if which == "user_sim_vs_common":
        corr = set_user_similarity(ds)
        sets = [{e.poi for e in evs} for evs in ds.train]
        return [(m, n, float(corr[m, n]), len(sets[m] & sets[n]))
                for m in range(ds.n_users) for n in range(ds.n_users) if m != n]
    corr = set_poi_similarity(ds)
    visitors = [{e.user for e in evs} for evs in ds.poi_train]
    return [(m, n, float(corr[m, n]), len(visitors[m] & visitors[n]))
            for m in range(ds.n_pois) for n in range(m + 1, ds.n_pois)]


@st.composite
def tiny_datasets(draw):
    """A few users over a few days, each drawing visits from a palette of one
    to three places: repeat visits on one day, single-place users, places
    that only the test split or nobody visits, and users who share another
    user's outings (the same places on the same days)."""
    n_users = draw(st.integers(1, 5))
    n_pois = draw(st.integers(1, 6))
    records, outings = [], []
    for u in range(n_users):
        palette = draw(st.lists(st.integers(0, n_pois - 1), min_size=1, max_size=3))
        visits = draw(st.lists(st.tuples(st.sampled_from(palette), st.integers(0, 3)),
                               min_size=3, max_size=10))
        if outings and draw(st.booleans()):
            visits += draw(st.sampled_from(outings))
        outings.append(visits)
        records += [CheckIn(u, (14_610 + day) * 86400 + draw(st.integers(0, 86399)), 0.0, 0.0, p)
                    for p, day in visits]
    cold = draw(st.integers(0, 2))
    return build_dataset(records, draw(st.sampled_from([0.6, 0.8, 1.0])),
                         slots=draw(st.sampled_from([1, 4, 24])),
                         user_raw=[f"u{u}" for u in range(n_users)],
                         poi_raw=[f"p{p}" for p in range(n_pois + cold)])


def same_bytes(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(tiny_datasets())
def test_co_visit_counts_match_the_set_oracles(ds):
    for top_k in (None, 0, 1, 3):
        for same_day in (False, True):
            assert same_bytes(association.user_similarity(ds, same_day, top_k),
                              set_user_similarity(ds, same_day, top_k))
        for normalize in ("global", "row"):
            assert same_bytes(association.poi_similarity(ds, normalize, top_k),
                              set_poi_similarity(ds, normalize, top_k))
    for which in STAT_KINDS:
        _, rows = motivation_stats(ds, which)
        # repr tells a numpy scalar from a Python one, as the CSV writer would.
        assert [tuple(map(repr, r)) for r in rows] == \
            [tuple(map(repr, r)) for r in record_stats(ds, which)]
    users, places = np.divmod(np.arange(ds.n_users * ds.n_pois), ds.n_pois)
    pairs = {(e.user, e.poi) for evs in ds.train for e in evs}
    assert association.seen_in_training(ds, users, places).tolist() == \
        [(u, p) in pairs for u, p in zip(users.tolist(), places.tolist())]


# -- prediction one context at a time, and the stepwise rows at every cut -----------

def context_rows(model, events, context, cuts):
    """Rows of one context's history at ``cuts``, as ``score_rows_at_cuts``
    computed them before ``score_cuts``: the cell run over this history
    alone, then every cut's recall and head at once."""
    cuts = np.asarray(cuts, dtype=np.int64)
    params = model.named_parameters()
    n_candidates = model.w_out.shape[1]
    rows = np.full((cuts.size, n_candidates), 1.0 / n_candidates)
    live = np.flatnonzero(cuts > 0)
    if live.size == 0:
        return rows
    events = Events.of(events)
    inputs = [(params[name], getattr(events, field).astype(np.intp)[None])
              for field, name in model.step_inputs]
    states = ad.recurrent_states(inputs, model._cell())[1][0]
    last = cuts[live] - 1
    if model.recall_fields:
        width = int(last.max()) + 1
        columns = [getattr(events, f).astype(np.float64)[None, :width]
                   for f in model.recall_fields]
        agg = model._recall(last, *columns) @ states[:width]
    else:
        agg = states[last]
    ctx = params[model.context_input[1]].values[context]
    _, probs, _ = ad.output_softmax(agg, np.broadcast_to(ctx, (live.size, ctx.size)),
                                    (model.w_out, model.b_out))
    rows[live] = probs.T
    return rows


def per_context_score_matrix(model, ds):
    """``predict_score_matrix`` one context at a time."""
    g = getattr(ds, model.grouping)
    return np.stack([context_rows(model, ds.events.take(g.history(c)), c,
                                  [g.train_counts[c]])[0]
                     for c in range(g.train_counts.size)])


def all_cuts_walk(ds, user_net, corr_u, read=None):
    """The stepwise user-side rows computed at every cut of every user and
    walked one instance at a time: yields (instance, own row, adjusted row
    or None), the instances numbered as ``_UserSideRows`` numbers them.
    Adds each (user, cut) it reads to the set ``read``, if given."""
    read = set() if read is None else read
    g, events = ds.by_user, ds.events
    owner, rank, in_train = g.positions()
    users, times = owner[~in_train], events.t[g.order[~in_train]]
    cut_rows = [context_rows(user_net, events.take(g.history(u, train_only=False)), u,
                             range(g.offsets[u + 1] - g.offsets[u] + 1))
                for u in range(ds.n_users)]
    own = rank[~in_train]
    read.update(zip(users.tolist(), own.tolist()))
    if corr_u is None:
        for i, (u, cut) in enumerate(zip(users.tolist(), own.tolist())):
            yield i, cut_rows[u][cut], None
        return
    history_times = [events.t[g.history(u, train_only=False)].tolist()
                     for u in range(ds.n_users)]
    for i in np.argsort(times, kind="stable").tolist():
        u, t = users[i], times[i]
        cuts = [bisect_left(history_times[v], t) for v in range(ds.n_users)]
        read.update(enumerate(cuts))
        current = np.stack([cut_rows[v][cut] for v, cut in enumerate(cuts)])
        vec = corr_u[u] @ current
        total = vec.sum()
        yield i, cut_rows[u][own[i]], (vec / total if total > 0 else vec)


def oracle_ranks(ds, user_net, poi_net, corr_u, corr_l, mode):
    """Each user-side variant's ranks, one instance and one row at a time."""
    s_l = per_context_score_matrix(poi_net, ds)
    s_l_adj = association.adjust_poi_scores(corr_l, s_l)
    owner, _, in_train = ds.by_user.positions()
    users = owner[~in_train]
    places = ds.events.poi[ds.by_user.order[~in_train]]
    if mode == "static":
        static = per_context_score_matrix(user_net, ds)
        static_adj = association.adjust_user_scores(corr_u, static)
        walk = ((i, static[u], static_adj[u]) for i, u in enumerate(users.tolist()))
    else:
        walk = all_cuts_walk(ds, user_net, corr_u)
    ranks = {v: [0] * users.size for v in VARIANTS if WIRING[v].user_net}
    for i, own, adjusted in walk:
        u = users[i]
        for variant in ranks:
            wiring = WIRING[variant]
            row = adjusted if wiring.user_adj else own
            if wiring.poi_net:
                row = _combine(row, (s_l_adj if wiring.poi_adj else s_l)[:, u],
                               FusionStrategy())
            ranks[variant][i] = rank_by_counting(row, int(places[i]))
    return ranks


def rank_by_counting(scores, truth):
    """``rank_of_truth`` as it was before block ranking."""
    s = scores[truth]
    better = int(np.count_nonzero(scores > s))
    tied_before = int(np.count_nonzero((scores == s) & (np.arange(len(scores)) < truth)))
    return better + tied_before + 1


def same_rows(got, want):
    """Rows within 1e-12 of each other that rank the candidates alike."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(np.argsort(-got, axis=-1, kind="stable"),
                          np.argsort(-want, axis=-1, kind="stable"))


@st.composite
def prediction_cases(draw):
    """A tiny dataset, untrained networks for it, the prediction block and
    cell budget to score it with, and the stepwise walk's chunk budget (in
    rows) and sub-block bounds (None: the defaults).

    Times come from a few hours of a few days, so equal timestamps are
    common, within one user and across users; one place is visited only by
    user 0's first event (a one-event history) and one by nobody (a cold
    place).  Now and then user 0 gets a history longer than ``CUT_BLOCK``.
    Small blocks and budgets split the histories into several groups and
    each group's pairs into several blocks; small chunks and sub-blocks put
    the walk's reads across many chunks and its updates across many
    sub-blocks."""
    n_users = draw(st.integers(1, 4))
    n_pois = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    records = []
    for u in range(n_users):
        n = (net.CUT_BLOCK + draw(st.integers(1, 20)) if u == 0 and draw(st.booleans())
             else draw(st.integers(4, 12)))
        t = 1_262_304_000 + 86400 * rng.integers(0, 4, n) + 3600 * rng.integers(8, 11, n)
        records += [CheckIn(u, int(t[k]), float(40 + rng.uniform(0, 0.05)),
                            float(-75 + rng.uniform(0, 0.05)), int(rng.integers(0, n_pois)))
                    for k in range(n)]
    first = min(r.t for r in records if r.user == 0)
    records.append(CheckIn(0, first - 3600, 40.0, -75.0, n_pois))
    ds = build_dataset(records, draw(st.sampled_from([0.5, 0.6, 0.8])), window=5,
                       slots=draw(st.sampled_from([1, 4, 24])),
                       user_raw=[f"u{u}" for u in range(n_users)],
                       poi_raw=[f"p{p}" for p in range(n_pois + 2)])
    user_net = UserNet(ds.n_users, ds.n_pois, dim=3, beta=1.0, seed=seed)
    poi_net = PoiNet(ds.n_users, ds.n_pois, n_slots=ds.slots, dim=3, slot_dim=2, seed=seed)
    cut_block = draw(st.sampled_from([1, 2, 5, net.CUT_BLOCK]))
    budget = draw(st.sampled_from([1, 7, 40, net.CELL_BUDGET]))
    chunk = draw(st.sampled_from([1, 7, None]))
    sub_block = draw(st.sampled_from([1, 2, None]))
    return ds, user_net, poi_net, cut_block, budget, chunk, sub_block


@settings(max_examples=60, deadline=None)
@given(prediction_cases())
def test_grouped_prediction_matches_the_per_context_oracles(case):
    ds, user_net, poi_net, cut_block, budget, chunk, sub_block = case
    assert ds.by_poi.train_counts[-1] == 0 and ds.by_poi.train_counts[-2] == 1
    corr_u, corr_l = association.user_similarity(ds), association.poi_similarity(ds)
    scored = Counter()
    score_states = user_net.score_states

    def counting(run, owners, cuts):
        scored.update(zip(np.asarray(owners).tolist(), np.asarray(cuts).tolist()))
        return score_states(run, owners, cuts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net, "CUT_BLOCK", cut_block)
        mp.setattr(net, "CELL_BUDGET", budget)
        if chunk is not None:
            mp.setattr(ad, "HEAD_CELLS", 2 * chunk * ds.n_pois)
        if sub_block is not None:
            mp.setattr(evaluate, "RANK_BLOCK", sub_block)
            mp.setattr(evaluate, "SUB_UPDATES", sub_block)
        for model in (user_net, poi_net):
            same_rows(model.predict_score_matrix(ds), per_context_score_matrix(model, ds))
        mp.setattr(user_net, "score_states", counting)
        for corr in (None, corr_u):
            read = set()
            want = {i: (own, adjusted)
                    for i, own, adjusted in all_cuts_walk(ds, user_net, corr, read)}
            scored.clear()
            rows = _UserSideRows(ds, user_net, corr)
            walked = []
            for idx, own, adjusted in rows.walk():
                walked += idx.tolist()
                same_rows(own, np.stack([want[i][0] for i in idx.tolist()]))
                if corr is not None:
                    same_rows(adjusted, np.stack([want[i][1] for i in idx.tolist()]))
            assert sorted(walked) == list(range(len(want)))
            # Every (user, cut) the walk reads is scored exactly once, and no other.
            assert scored == Counter(dict.fromkeys(read, 1))
        for mode in ("stepwise", "static"):
            got = evaluate_variants(ds, user_net, poi_net, ks=(1,), corr_u=corr_u,
                                    corr_l=corr_l, s_u_mode=mode)
            for variant, ranks in oracle_ranks(ds, user_net, poi_net, corr_u, corr_l,
                                               mode).items():
                assert got[variant]["ranks"] == ranks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 9), st.integers(0, 2**16))
def test_block_ranks_match_one_row_ranking_on_ties(n_rows, n_candidates, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 3, (n_rows, n_candidates)) / 2.0
    rows[rng.random(rows.shape) < 0.1] = -0.0
    rows[rng.random(rows.shape) < 0.1] = np.inf
    truths = rng.integers(0, n_candidates, n_rows)
    got = ranks_of_truths(rows, truths)
    for row, truth, rank in zip(rows, truths.tolist(), got.tolist()):
        assert rank == rank_by_counting(row, truth) == rank_of_truth(row, truth)
        assert rank == np.argsort(-row, kind="stable").tolist().index(truth) + 1
