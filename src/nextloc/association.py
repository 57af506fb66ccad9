"""Cross-user and cross-place similarity, and the score adjustments they drive.

Both matrices are built from the training split only.  User-to-user similarity
is the share of one user's distinct places that the other also visits (an
asymmetric overlap ratio); place-to-place similarity counts calendar days on
which some user visited both places, scaled into [0,1].  Multiplying a score
matrix by its similarity matrix lets every row borrow from the rows of its
look-alikes, which is what rescues predictions that the per-entity model alone
cannot make (new-to-this-user places, cold places).

Every count of who shares what comes from one primitive, ``member_pairs``,
over the training events' columns.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import DataError, Dataset, day_index


def member_pairs(group: np.ndarray, member: np.ndarray, n_members: int):
    """Every ordered pair of members (ids below ``n_members``) that share a
    group, once per group and each member paired with itself too: the
    group, and the pair as ``left * n_members + right``.  A member that
    recurs in a group counts once."""
    group, member = np.divmod(np.unique(group * n_members + member), n_members)
    _, starts, sizes = np.unique(group, return_index=True, return_counts=True)
    # Each member once per member of its group, pairing with them in turn.
    fan = np.repeat(sizes, sizes)
    offset = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
    right = member[np.repeat(np.repeat(starts, sizes), fan) + offset]
    return np.repeat(group, fan), np.repeat(member, fan) * n_members + right


def _training_columns(dataset: Dataset):
    """User, place and calendar day of every training event."""
    g, events = dataset.by_user, dataset.events
    rows = g.order[g.positions()[2]]
    return events.user[rows], events.poi[rows], day_index(events.t[rows])


def shared_places(dataset: Dataset, same_day: bool = False) -> np.ndarray:
    """Users x users: the distinct training places (with same_day, (place,
    day) pairs) both users visited."""
    user, poi, day = _training_columns(dataset)
    n = dataset.n_users
    _, pair = member_pairs(day * dataset.n_pois + poi if same_day else poi, user, n)
    return np.bincount(pair, minlength=n * n).reshape(n, n)


def shared_visitors(dataset: Dataset) -> np.ndarray:
    """Places x places: the distinct training users who visited both."""
    user, poi, _ = _training_columns(dataset)
    n = dataset.n_pois
    return np.bincount(member_pairs(user, poi, n)[1], minlength=n * n).reshape(n, n)


def seen_in_training(dataset: Dataset, users, places) -> np.ndarray:
    """Whether each (user, place) pair occurs among the training events."""
    user, poi, _ = _training_columns(dataset)
    return np.isin(users * dataset.n_pois + places, user * dataset.n_pois + poi)


def user_similarity(dataset: Dataset, same_day: bool = False,
                    top_k: int | None = None) -> np.ndarray:
    """Asymmetric place-set overlap between users, diagonal forced to 1.

    Entry (m, n) is |places(m) & places(n)| / |places(m)| over training
    events.  With same_day=True the overlap is counted over (place, day)
    pairs instead — a stricter variant for sensitivity checks.
    """
    common = shared_places(dataset, same_day)
    own = np.diagonal(common)[:, None]
    corr = np.divide(common, own, out=np.zeros(common.shape), where=own > 0)
    np.fill_diagonal(corr, 1.0)
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
    n_pois, n_users = dataset.n_pois, dataset.n_users
    user, poi, day = _training_columns(dataset)
    # Pairs of places one user visited on one day; several users on the
    # same day count that day once.
    group, pair = member_pairs(day * n_users + user, poi, n_pois)
    pair = np.unique(group // n_users * n_pois**2 + pair) % n_pois**2
    raw = np.bincount(pair, minlength=n_pois**2).reshape(n_pois, n_pois).astype(float)
    np.fill_diagonal(raw, 0.0)

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
    rows, cols = np.nonzero(matrix)
    # tolist() gives Python floats: repr of a numpy scalar is not parseable text.
    lines = zip(rows.tolist(), cols.tolist(), matrix[rows, cols].tolist())
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{matrix.shape[0]} {matrix.shape[1]}\n"
                + "".join(f"{i} {j} {value!r}\n" for i, j, value in lines))


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
