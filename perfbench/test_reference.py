"""The benchmark's references agree with the program on small hand-built
inputs, and every check rejects a deliberately perturbed output.

    python3 -m pytest -q perfbench/test_reference.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import nextloc  # noqa: E402
import workloads  # noqa: E402
from nextloc import association, cli, data, evaluate  # noqa: E402
from nextloc.data import SECONDS_PER_DAY, CheckIn, build_dataset  # noqa: E402
from nextloc.poi_net import PoiNet  # noqa: E402
from nextloc.user_net import UserNet  # noqa: E402


def visits(user, plan):
    """Records for one user; plan is a chronological list of (day, hour, poi)."""
    return [CheckIn(user, day * SECONDS_PER_DAY + hour * 3600, 40.0 + 0.01 * poi, -75.0, poi)
            for day, hour, poi in plan]


def random_dataset(seed, n_users=5, n_pois=7, n_events=15, n_days=12):
    rng = np.random.default_rng(seed)
    records = []
    for u in range(n_users):
        times = np.sort(rng.choice(n_days * 24, size=n_events, replace=False)) * 3600
        for t, p in zip(times, rng.integers(0, n_pois, size=n_events)):
            records.append(CheckIn(u, int(t), 40.0 + 0.01 * int(p), -75.0, int(p)))
    return build_dataset(records, window=5)


def arrays(ds):
    return reference.train_arrays(ds.train)


def perturbed(matrix):
    out = matrix.copy()
    i, j = np.argwhere(out > 0)[-1]
    out[i, j] = np.nextafter(out[i, j], 2.0)
    return out


# -- similarity -----------------------------------------------------------------

def test_user_similarity_by_hand():
    """User 0 visits {0,1,2,3}, user 1 {1,2}, user 2 {1} on another day only."""
    ds = build_dataset(visits(0, [(d, 9, d % 4) for d in range(10)])
                       + visits(1, [(d, 10, 1 + d % 2) for d in range(10)])
                       + visits(2, [(20 + d, 9, 1) for d in range(10)]))
    loose = reference.user_similarity(*arrays(ds), ds.n_users)
    np.testing.assert_array_equal(loose, [[1.0, 0.5, 0.25], [1.0, 1.0, 0.5], [1.0, 1.0, 1.0]])
    strict = reference.user_similarity(*arrays(ds), ds.n_users, same_day=True)
    assert strict[2, 0] == 0.0 and strict[2, 1] == 0.0
    top1 = reference.user_similarity(*arrays(ds), ds.n_users, k=1)
    np.testing.assert_array_equal(top1, [[1.0, 0.5, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def test_poi_similarity_by_hand():
    """Places 0 and 1 share two days through one user; 2 and 3 one day
    through different users, which does not count."""
    ds = build_dataset(visits(0, [(d, h, p) for d in (0, 1) for h, p in ((8, 0), (9, 1))]
                              + [(d, 8, 4) for d in range(2, 10)])
                       + visits(1, [(3, 8, 2)] + [(d, 9, 4) for d in range(4, 12)])
                       + visits(2, [(3, 9, 3)] + [(d, 8, 4) for d in range(4, 12)]))
    corr = reference.poi_similarity(*arrays(ds), ds.n_pois)
    assert corr[0, 1] == corr[1, 0] == 1.0
    assert corr[2, 3] == 0.0
    assert corr[0, 4] == 0.0 and corr[0, 2] == 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("same_day", (False, True))
@pytest.mark.parametrize("top_k", (None, 0, 1, 3))
def test_user_similarity_matches_program(seed, same_day, top_k):
    ds = random_dataset(seed)
    want = reference.user_similarity(*arrays(ds), ds.n_users, same_day, top_k)
    got = association.user_similarity(ds, same_day=same_day, top_k=top_k)
    checks.same_matrix("user similarity", got, want)
    with pytest.raises(checks.CheckFailed):
        checks.same_matrix("user similarity", perturbed(got), want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("normalize", ("global", "row"))
@pytest.mark.parametrize("top_k", (None, 1, 3))
def test_poi_similarity_matches_program(seed, normalize, top_k):
    ds = random_dataset(seed, n_users=6, n_events=20, n_days=6)
    want = reference.poi_similarity(*arrays(ds), ds.n_pois, normalize, top_k)
    got = association.poi_similarity(ds, normalize=normalize, top_k=top_k)
    assert np.count_nonzero(want - np.diag(np.diag(want))) > 0
    checks.same_matrix("place similarity", got, want)
    with pytest.raises(checks.CheckFailed):
        checks.same_matrix("place similarity", perturbed(got), want)


def test_top_k_ties_go_to_lower_index():
    corr = np.array([[1.0, 0.5, 0.5, 0.5], [0.2, 1.0, 0.2, 0.9],
                     [0.0, 0.0, 1.0, 0.0], [0.3, 0.3, 0.3, 1.0]])
    want = reference.top_k(corr, 2)
    np.testing.assert_array_equal(want, [[1.0, 0.5, 0.5, 0.0], [0.2, 1.0, 0.0, 0.9],
                                         [0.0, 0.0, 1.0, 0.0], [0.3, 0.3, 0.0, 1.0]])
    np.testing.assert_array_equal(association.truncate_top_k(corr, 2), want)


# -- ranking and evaluation -------------------------------------------------------

def test_rank_ties_go_to_lower_index():
    row = np.array([0.2, 0.5, 0.5, 0.1, 0.5])
    assert [reference.rank(row, t) for t in range(5)] == [4, 1, 2, 5, 3]
    rng = np.random.default_rng(0)
    for _ in range(50):
        row = rng.integers(0, 4, size=9) / 4.0
        for t in range(9):
            assert reference.rank(row, t) == evaluate.rank_of_truth(row, t)


def test_random_ranking_mrr():
    assert reference.random_ranking_mrr(1) == 1.0
    assert reference.random_ranking_mrr(4) == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)


@pytest.fixture(scope="module")
def trained():
    ds = random_dataset(7, n_users=6, n_pois=8, n_events=25, n_days=10)
    user_net = UserNet(ds.n_users, ds.n_pois, dim=4, beta=1.0, seed=1)
    user_net.train(ds, 5, lr=0.05)
    poi_net = PoiNet(ds.n_users, ds.n_pois, dim=4, slot_dim=2, seed=2)
    poi_net.train(ds, 5, lr=0.05)
    return ds, user_net, poi_net


def program_report(ds, user_net, poi_net, variant, mode, corr_u, corr_l):
    result = evaluate.evaluate_with_nets(ds, user_net, poi_net, variant, ks=(1, 3, 5),
                                         corr_u=corr_u, corr_l=corr_l, s_u_mode=mode)
    return {"mrr": result["mrr"], "acc": result["acc"], "n": result["n"],
            "per_user": {u: v["mrr"] for u, v in result["per_user"].items()}}


@pytest.mark.parametrize("same_day,top_k", ((False, None), (True, 2)))
def test_static_reference_matches_program(trained, same_day, top_k):
    ds, user_net, poi_net = trained
    corr_u = reference.user_similarity(*arrays(ds), ds.n_users, same_day, top_k)
    corr_l = reference.poi_similarity(*arrays(ds), ds.n_pois)
    reports = {v: program_report(ds, user_net, poi_net, v, "static", corr_u, corr_l)
               for v in evaluate.VARIANTS}
    s_u = user_net.predict_score_matrix(ds)
    s_l = poi_net.predict_score_matrix(ds)
    checks.static_mrr(reports, s_u, s_l, corr_u, corr_l, ds.test, ds.poi_test)
    n_test = sum(len(t) for t in ds.test)
    for variant, report in reports.items():
        checks.report_properties(variant, report, n_test)
        bad = dict(report, mrr=report["mrr"] + 1e-9)
        with pytest.raises(checks.CheckFailed):
            checks.static_mrr({variant: bad}, s_u, s_l, corr_u, corr_l, ds.test, ds.poi_test)


@pytest.mark.parametrize("variant", [v for v in evaluate.VARIANTS if v != "poi_net_only"])
def test_stepwise_reference_matches_program(trained, variant):
    ds, user_net, poi_net = trained
    corr_u = reference.user_similarity(*arrays(ds), ds.n_users)
    corr_l = reference.poi_similarity(*arrays(ds), ds.n_pois)
    report = program_report(ds, user_net, poi_net, variant, "stepwise", corr_u, corr_l)
    events = [ds.train[u] + ds.test[u] for u in range(ds.n_users)]
    train_len = [len(t) for t in ds.train]
    s_l = poi_net.predict_score_matrix(ds)

    def score_rows(v, cuts):
        return user_net.score_rows_at_cuts(events[v], v, cuts)

    users = [1, 4]
    checks.stepwise_mrr(variant, report, users, events, train_len, score_rows,
                        corr_u, s_l, corr_l)
    bad = dict(report, per_user={**report["per_user"], 4: report["per_user"][4] * 0.99})
    with pytest.raises(checks.CheckFailed):
        checks.stepwise_mrr(variant, bad, users, events, train_len, score_rows,
                            corr_u, s_l, corr_l)


def test_stepwise_differs_from_static(trained):
    """The stepwise reference really advances: on this data the two protocols
    rank differently, so a static answer cannot pass the stepwise check."""
    ds, user_net, poi_net = trained
    corr_u = reference.user_similarity(*arrays(ds), ds.n_users)
    corr_l = reference.poi_similarity(*arrays(ds), ds.n_pois)
    static = program_report(ds, user_net, poi_net, "full", "static", corr_u, corr_l)
    events = [ds.train[u] + ds.test[u] for u in range(ds.n_users)]
    with pytest.raises(checks.CheckFailed):
        checks.stepwise_mrr("full", static, range(ds.n_users), events,
                            [len(t) for t in ds.train],
                            lambda v, cuts: user_net.score_rows_at_cuts(events[v], v, cuts),
                            corr_u, poi_net.predict_score_matrix(ds), corr_l)


# -- ingest, training and report properties --------------------------------------

TINY = workloads.Workload("tiny", {"n_users": 6, "n_pois": 20, "n_zones": 2},
                          setups=1, inactive_users=3, malformed_per_mille=5)


def test_ingest_check(tmp_path, capsys):
    raw = str(tmp_path / "raw.txt")
    written = workloads.set_up(nextloc, TINY, 3, raw)
    inputs = workloads.describe_inputs(raw, *written)
    assert inputs.n_malformed > 0 and inputs.n_users_kept == 6
    assert cli.main(["ingest", "--input", raw, "--out", str(tmp_path / "ds")]) == 0
    printed = workloads._printed_counts(capsys.readouterr().out)
    ds = data.load_dataset(str(tmp_path / "ds"))
    checks.ingest(ds, inputs.expected, printed, inputs.n_malformed, inputs.n_users_kept, 0.8)

    missing = inputs.expected.copy()
    missing[next(iter(missing))] -= 1
    with pytest.raises(checks.CheckFailed):
        checks.ingest(ds, +missing, printed, inputs.n_malformed, inputs.n_users_kept, 0.8)
    with pytest.raises(checks.CheckFailed):
        checks.ingest(ds, inputs.expected, dict(printed, malformed=2), inputs.n_malformed,
                      inputs.n_users_kept, 0.8)
    with pytest.raises(checks.CheckFailed):
        checks.ingest(ds, inputs.expected, printed, inputs.n_malformed,
                      inputs.n_users_kept, 0.7)


def test_losses_check():
    checks.losses("user", [3.0, 2.5, 1.9], 10)
    for log, n_classes in (([3.0, math.nan, 1.0], 10), ([2.0, 2.1], 10),
                           ([3.0, 2.9], 15), ([1.0], 10)):
        with pytest.raises(checks.CheckFailed):
            checks.losses("user", log, n_classes)


def test_report_checks():
    good = {"mrr": 0.4, "acc": {1: 0.2, 5: 0.6, 10: 0.8}, "n": 12}
    checks.report_properties("full", good, 12)
    checks.beats_random("full", good, 30)
    for bad, n in ((good, 11), (dict(good, mrr=0.0), 12),
                   (dict(good, acc={1: 0.2, 5: 0.6, 10: 0.5}), 12)):
        with pytest.raises(checks.CheckFailed):
            checks.report_properties("full", bad, n)
    with pytest.raises(checks.CheckFailed):
        checks.beats_random("full", dict(good, mrr=0.1), 30)
