"""Cross-user and cross-place similarity, and the score adjustments they drive.

Both matrices are built from the training split only.  User-to-user similarity
is the share of one user's distinct places that the other also visits (an
asymmetric overlap ratio); place-to-place similarity counts calendar days on
which some user visited both places, scaled into [0,1].  Multiplying a score
matrix by its similarity matrix lets every row borrow from the rows of its
look-alikes, which is what rescues predictions that the per-entity model alone
cannot make (new-to-this-user places, cold places).
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import DataError, Dataset, day_index


def user_similarity(dataset: Dataset, same_day: bool = False,
                    top_k: int | None = None) -> np.ndarray:
    """Asymmetric place-set overlap between users, diagonal forced to 1.

    Entry (m, n) is |places(m) & places(n)| / |places(m)| over training
    events.  With same_day=True the overlap is counted over (place, day)
    pairs instead — a stricter variant for sensitivity checks.
    """
    if same_day:
        events = dataset.events
        sets = [set(zip(events.poi[rows].tolist(), day_index(events.t[rows]).tolist()))
                for rows in map(dataset.by_user.history, range(dataset.n_users))]
    else:
        sets = dataset.train_poi_sets()
    m_users = dataset.n_users
    corr = np.zeros((m_users, m_users))
    for m in range(m_users):
        if sets[m]:
            for n in range(m_users):
                corr[m, n] = len(sets[m] & sets[n]) / len(sets[m])
        corr[m, m] = 1.0
    if top_k is not None:
        corr = truncate_top_k(corr, top_k)
    return corr


def poi_similarity(dataset: Dataset, normalize: str = "global",
                   top_k: int | None = None) -> np.ndarray:
    """Same-day shared-visitor day counts between places, scaled into [0,1].

    The raw entry (m, n) is the number of calendar days on which at least one
    user visited both m and n.  Default scaling divides by the global maximum
    off-diagonal count (keeping the matrix symmetric); normalize="row" divides
    each row by its own maximum instead.  Diagonal forced to 1; places with no
    training visits keep an all-zero row apart from the diagonal.
    """
    if normalize not in ("global", "row"):
        raise ValueError(f"unknown normalization {normalize!r}")
    n_pois = dataset.n_pois
    g, events = dataset.by_user, dataset.events
    train = g.order[g.positions()[2]]
    visits_by_user_day: dict[tuple[int, int], set[int]] = {}
    for key in zip(events.user[train].tolist(), day_index(events.t[train]).tolist(),
                   events.poi[train].tolist()):
        visits_by_user_day.setdefault(key[:2], set()).add(key[2])
    pair_days: dict[tuple[int, int], set[int]] = {}
    for (_, day), pois in visits_by_user_day.items():
        members = sorted(pois)
        for i, m in enumerate(members):
            for n in members[i + 1:]:
                pair_days.setdefault((m, n), set()).add(day)
    raw = np.zeros((n_pois, n_pois))
    for (m, n), days in pair_days.items():
        raw[m, n] = raw[n, m] = len(days)

    if normalize == "global":
        top = raw.max()
        corr = raw / top if top > 0 else raw
    else:
        row_top = raw.max(axis=1, keepdims=True)
        corr = np.divide(raw, row_top, out=np.zeros_like(raw), where=row_top > 0)
    np.fill_diagonal(corr, 1.0)
    if top_k is not None:
        corr = truncate_top_k(corr, top_k)
    return corr


def truncate_top_k(corr: np.ndarray, k: int) -> np.ndarray:
    """Keep each row's k largest off-diagonal entries (ties to lower index)."""
    if k < 0:
        raise ValueError("top_k must be non-negative")
    off_diagonal = corr.copy()
    np.fill_diagonal(off_diagonal, -np.inf)
    keep = np.argsort(-off_diagonal, axis=1, kind="stable")[:, :k]
    out = np.zeros_like(corr)
    np.put_along_axis(out, keep, np.take_along_axis(corr, keep, axis=1), axis=1)
    np.fill_diagonal(out, np.diagonal(corr))
    return out


def _renormalize_rows(mat: np.ndarray) -> np.ndarray:
    """Scale each row to sum 1; all-zero rows are left as-is (no signal)."""
    sums = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, sums, out=mat.copy(), where=sums > 0)


def adjust_user_scores(corr_u: np.ndarray, s_u: np.ndarray) -> np.ndarray:
    """Blend every user's next-place scores with those of similar users."""
    if corr_u.shape != (s_u.shape[0], s_u.shape[0]):
        raise ValueError(f"shape mismatch: {corr_u.shape} vs {s_u.shape}")
    return _renormalize_rows(corr_u @ s_u)


def adjust_poi_scores(corr_l: np.ndarray, s_l: np.ndarray) -> np.ndarray:
    """Blend every place's next-visitor scores with those of similar places."""
    if corr_l.shape != (s_l.shape[0], s_l.shape[0]):
        raise ValueError(f"shape mismatch: {corr_l.shape} vs {s_l.shape}")
    return _renormalize_rows(corr_l @ s_l)


def save_similarity(path, matrix: np.ndarray) -> None:
    """Sparse triplet text export: a shape line, then 'row col value' lines."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for i, j in zip(*np.nonzero(matrix)):
            # float() first: repr of a numpy scalar is not parseable text.
            f.write(f"{i} {j} {float(matrix[i, j])!r}\n")


def load_similarity(path) -> np.ndarray:
    """Read ``save_similarity``'s layout.  A header that is not two
    non-negative ints or declares a shape too large to allocate, a line that
    is not ``row col value``, an index outside the declared shape or a
    non-finite value raises DataError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            header, *body = f.read().splitlines() or [""]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    try:
        shape = tuple(int(n) for n in header.split())
    except ValueError:
        shape = ()
    if len(shape) != 2 or min(shape) < 0:
        raise DataError(f"{path}:1: expected a 'rows cols' header of two non-negative ints, "
                        f"got {header[:60]!r}")
    try:
        out = np.zeros(shape)
    except (MemoryError, ValueError) as exc:
        raise DataError(f"{path}:1: the header's shape {shape} is too large to allocate") from exc
    for lineno, line in enumerate(body, 2):
        fields = line.split()
        try:
            if len(fields) != 3:
                raise ValueError
            i, j, value = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected 'row col value', got {line[:60]!r}") from None
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise DataError(f"{path}:{lineno}: index ({i}, {j}) outside the shape {shape}")
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: non-finite value {value!r}")
        out[i, j] = value
    return out
