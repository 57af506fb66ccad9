"""Output checks: each compares a program output with a reference computation
or with a property the method must have, and raises CheckFailed otherwise."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

import reference

MRR_TOLERANCE = 1e-12


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def ingest(dataset, expected: Counter, printed: dict, n_malformed: int,
           n_users_kept: int, split_ratio: float) -> None:
    """The loaded dataset holds exactly the kept users' well-formed lines.

    ``expected`` is the multiset of raw (user, time, lat, lon, place) tuples
    that set-up wrote for users at or above the activity threshold;
    ``printed`` holds the counts the ingest command reported.
    """
    got = Counter((dataset.user_raw[r.user], r.t, r.lat, r.lon, dataset.poi_raw[r.poi])
                  for r in dataset.records)
    _require(got == expected,
             f"ingest: {sum((got - expected).values())} unexpected and "
             f"{sum((expected - got).values())} missing check-ins")
    _require(printed.get("malformed") == n_malformed,
             f"ingest: reported {printed.get('malformed')} malformed lines, wrote {n_malformed}")
    _require(printed.get("users") == n_users_kept == dataset.n_users,
             f"ingest: kept {printed.get('users')} users, expected {n_users_kept}")
    _require(printed.get("events") == sum(expected.values()),
             f"ingest: reported {printed.get('events')} events")
    per_user = Counter(u for u, *_ in expected)
    for u, raw in enumerate(dataset.user_raw):
        want = math.ceil(split_ratio * per_user[raw])
        _require(len(dataset.train[u]) == want,
                 f"ingest: user {raw} has {len(dataset.train[u])} train events, expected {want}")


def losses(name: str, log, n_classes: int) -> None:
    """Finite, decreasing overall, and better than a uniform guess at the end."""
    _require(len(log) >= 2, f"{name}: {len(log)} logged epochs, need at least 2")
    _require(all(math.isfinite(v) for v in log), f"{name}: non-finite loss in {log}")
    _require(log[-1] < log[0], f"{name}: final loss {log[-1]} not below first {log[0]}")
    _require(log[-1] < math.log(n_classes),
             f"{name}: final loss {log[-1]} not below ln({n_classes})")


def same_matrix(name: str, actual: np.ndarray, expected: np.ndarray) -> None:
    _require(actual.shape == expected.shape,
             f"{name}: shape {actual.shape}, expected {expected.shape}")
    diff = np.argwhere(actual != expected)
    _require(diff.size == 0, f"{name}: {len(diff)} entries differ from the reference, "
                             f"first at {diff[0].tolist() if diff.size else None}")


def report_properties(name: str, report: dict, n_instances: int) -> None:
    _require(report["n"] == n_instances,
             f"{name}: ranked {report['n']} instances, test split has {n_instances}")
    _require(0.0 < report["mrr"] <= 1.0, f"{name}: MRR {report['mrr']} outside (0, 1]")
    accs = [report["acc"][k] for k in sorted(report["acc"])]
    _require(all(a <= b for a, b in zip(accs, accs[1:])),
             f"{name}: Acc@k decreases with k: {report['acc']}")


def beats_random(name: str, report: dict, n_candidates: int) -> None:
    floor = reference.random_ranking_mrr(n_candidates)
    _require(report["mrr"] > floor,
             f"{name}: MRR {report['mrr']} not above a random ranking's {floor}")


def static_mrr(reports: dict, s_u, s_l, corr_u, corr_l, test, poi_test) -> None:
    """Every variant's MRR equals the frozen-row reference."""
    for variant, report in reports.items():
        want = reference.mrr(reference.static_ranks(variant, s_u, s_l, corr_u, corr_l,
                                                    test, poi_test))
        _require(abs(report["mrr"] - want) <= MRR_TOLERANCE,
                 f"{variant}: MRR {report['mrr']!r}, reference {want!r}")


def stepwise_mrr(variant: str, report: dict, users, events, train_len, score_rows,
                 corr_u, s_l, corr_l) -> None:
    """The sampled users' MRR equals the advancing-row reference."""
    want = reference.stepwise_user_mrr(variant, users, events, train_len, score_rows,
                                       corr_u, s_l, corr_l)
    for u, value in want.items():
        got = report["per_user"].get(u)
        _require(got is not None and abs(got - value) <= MRR_TOLERANCE,
                 f"{variant}: user {u} MRR {got!r}, reference {value!r}")
