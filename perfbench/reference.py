"""Reference computations that the benchmark checks the program against.

They are written apart from the program and by other means: the similarity
matrices come from numpy incidence arrays instead of Python sets and dicts,
and ranks come from a stable sort instead of counting.  Evaluation references
take the networks' own score rows (``predict_score_matrix`` and
``score_rows_at_cuts``) as inputs and redo everything after them: the cut each
test instance sees, the cross-entity adjustment, maxpool fusion and ranking.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

SECONDS_PER_DAY = 86400


def train_arrays(train) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(user, place, time) arrays of every training event, from per-user lists."""
    events = [e for evs in train for e in evs]
    return (np.array([e.user for e in events], dtype=np.int64),
            np.array([e.poi for e in events], dtype=np.int64),
            np.array([e.t for e in events], dtype=np.int64))


def _dense_codes(*columns: np.ndarray) -> np.ndarray:
    """Dense integer code per distinct row of the stacked columns."""
    _, codes = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    return codes.reshape(-1)


def top_k(corr: np.ndarray, k: int) -> np.ndarray:
    """Each row's diagonal plus its k largest off-diagonal entries.

    Ties go to the lower column index.
    """
    n = corr.shape[0]
    out = np.zeros_like(corr)
    for i in range(n):
        others = np.array([j for j in range(n) if j != i], dtype=np.int64)
        order = np.lexsort((others, -corr[i, others]))
        keep = others[order[:k]]
        out[i, keep] = corr[i, keep]
        out[i, i] = corr[i, i]
    return out


def user_similarity(users, places, times, n_users: int, same_day: bool = False,
                    k: int | None = None) -> np.ndarray:
    """Share of row user's distinct items that column user also has.

    An item is a place, or a (place, day) pair with ``same_day``.  The overlap
    counts are a product of 0/1 incidence matrices.
    """
    days = np.asarray(times) // SECONDS_PER_DAY
    items = _dense_codes(places, days) if same_day else _dense_codes(places)
    incidence = np.zeros((n_users, int(items.max()) + 1))
    incidence[users, items] = 1.0
    overlap = incidence @ incidence.T
    sizes = incidence.sum(axis=1)
    corr = np.zeros((n_users, n_users))
    has = sizes > 0
    corr[has] = overlap[has] / sizes[has, None]
    np.fill_diagonal(corr, 1.0)
    return top_k(corr, k) if k is not None else corr


def poi_similarity(users, places, times, n_pois: int, normalize: str = "global",
                   k: int | None = None) -> np.ndarray:
    """Days on which one user visited both places, scaled into [0, 1].

    Each (user, day) is a 0/1 row over places; a day's co-visit pairs are the
    nonzero cells of that day's rows' Gram matrix.
    """
    days = np.asarray(times) // SECONDS_PER_DAY
    groups = _dense_codes(users, days)
    incidence = np.zeros((int(groups.max()) + 1, n_pois))
    incidence[groups, places] = 1.0
    group_day = np.zeros(incidence.shape[0], dtype=np.int64)
    group_day[groups] = days
    raw = np.zeros((n_pois, n_pois))
    for day in np.unique(group_day):
        rows = incidence[group_day == day]
        raw += (rows.T @ rows) > 0
    np.fill_diagonal(raw, 0.0)
    if normalize == "global":
        corr = raw / raw.max() if raw.max() > 0 else raw
    elif normalize == "row":
        row_max = raw.max(axis=1, keepdims=True)
        corr = np.zeros_like(raw)
        has = row_max[:, 0] > 0
        corr[has] = raw[has] / row_max[has]
    else:
        raise ValueError(f"unknown normalization {normalize!r}")
    np.fill_diagonal(corr, 1.0)
    return top_k(corr, k) if k is not None else corr


def adjusted(corr: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Row-normalised ``corr @ scores``; all-zero rows stay zero."""
    mixed = corr @ scores
    sums = mixed.sum(axis=1, keepdims=True)
    return np.where(sums > 0, mixed / np.where(sums > 0, sums, 1.0), mixed)


def _normalised(vec: np.ndarray) -> np.ndarray:
    total = vec.sum()
    return vec / total if total > 0 else vec


def rank(row: np.ndarray, truth: int) -> int:
    """1-based position of ``truth`` in a stable descending sort of ``row``."""
    order = np.argsort(-row, kind="stable")
    return int(np.flatnonzero(order == truth)[0]) + 1


def _ranks_for_rows(rows: np.ndarray, truths_per_row) -> list[list[int]]:
    out = []
    for row, truths in zip(rows, truths_per_row):
        position = np.empty(row.size, dtype=np.int64)
        position[np.argsort(-row, kind="stable")] = np.arange(1, row.size + 1)
        out.append([int(position[t]) for t in truths])
    return out


def static_ranks(variant: str, s_u: np.ndarray, s_l: np.ndarray, corr_u: np.ndarray,
                 corr_l: np.ndarray, test, poi_test) -> list[list[int]]:
    """Ranks per entity (user, or place for ``poi_net_only``) with frozen rows.

    ``s_u`` is users x places and ``s_l`` places x users, both at the end of
    training.  Fusion is maxpool.
    """
    poi_adj = adjusted(corr_l, s_l)
    if variant == "poi_net_only":
        return _ranks_for_rows(poi_adj, [[e.user for e in evs] for evs in poi_test])
    user_adj = adjusted(corr_u, s_u)
    fused = {
        "full": lambda: np.maximum(user_adj, poi_adj.T),
        "no_cross_poi": lambda: np.maximum(user_adj, s_l.T),
        "no_cross_user": lambda: np.maximum(s_u, poi_adj.T),
        "no_user_prediction": lambda: user_adj,
        "user_net_only": lambda: s_u,
    }[variant]()
    return _ranks_for_rows(fused, [[e.poi for e in evs] for evs in test])


def mrr(ranks) -> float:
    flat = np.array([r for rs in ranks for r in rs], dtype=np.float64)
    return float(np.mean(1.0 / flat))


def stepwise_user_mrr(variant: str, users, events, train_len, score_rows,
                      corr_u: np.ndarray, s_l: np.ndarray,
                      corr_l: np.ndarray) -> dict[int, float]:
    """Per-user MRR with user-side rows that advance through test time.

    ``events[v]`` is user v's whole chronological sequence and
    ``score_rows(v, cuts)`` returns v's rows after the first ``cut`` events.
    A user's own row sits at its own prefix; every user's row in the
    cross-user mix sits at that user's events strictly before the instance.
    Place-side rows stay at the end of training.
    """
    times = [[e.t for e in evs] for evs in events]
    instances = [(u, train_len[u] + k, events[u][train_len[u] + k])
                 for u in users for k in range(len(events[u]) - train_len[u])]
    wanted = [set() for _ in events]
    for u, own_cut, event in instances:
        wanted[u].add(own_cut)
        for v in range(len(events)):
            wanted[v].add(bisect_left(times[v], event.t))
    rows = []
    for v, cuts in enumerate(wanted):
        cuts = sorted(cuts)
        rows.append(dict(zip(cuts, score_rows(v, cuts))))
    poi_adj = adjusted(corr_l, s_l)
    per_user: dict[int, list[int]] = {u: [] for u in users}
    for u, own_cut, event in instances:
        own = rows[u][own_cut]
        if variant in ("user_net_only", "no_cross_user"):
            mixed = None
        else:
            matrix = np.stack([rows[v][bisect_left(times[v], event.t)]
                               for v in range(len(events))])
            mixed = _normalised(corr_u[u] @ matrix)
        row = {
            "full": lambda: np.maximum(mixed, poi_adj[:, u]),
            "no_cross_poi": lambda: np.maximum(mixed, s_l[:, u]),
            "no_cross_user": lambda: np.maximum(own, poi_adj[:, u]),
            "no_user_prediction": lambda: mixed,
            "user_net_only": lambda: own,
        }[variant]()
        per_user[u].append(rank(row, event.poi))
    return {u: float(np.mean(1.0 / np.array(r, dtype=np.float64)))
            for u, r in per_user.items() if r}


def random_ranking_mrr(n_candidates: int) -> float:
    """Expected MRR of a uniformly random ranking: H(n) / n."""
    return float(sum(1.0 / r for r in range(1, n_candidates + 1)) / n_candidates)
