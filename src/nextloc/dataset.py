"""What a dataset holds in memory: check-ins as numpy columns.

A dataset keeps each event once, in columns in global (time, user, place)
order, with two groupings of those rows: per-user trajectories (for next-place
training) and per-place visitor histories (for next-visitor training), each
owner's training events first.  Lists of ``CheckIn``/``VisitEvent`` records
are read-only views of the columns, built on first use.  File formats,
ingestion filters and the synthetic generator live in ``nextloc.data``.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import NamedTuple

import numpy as np


class DataError(ValueError):
    """Unusable input data or an infeasible synthetic specification."""


class CheckIn(NamedTuple):
    user: int
    t: int          # seconds since epoch, UTC
    lat: float
    lon: float
    poi: int


class VisitEvent(NamedTuple):
    poi: int
    user: int
    slot: int       # time-slot-of-day index in [0, slots)
    weekday: int    # Monday = 0
    t: int


SECONDS_PER_DAY = 86400
# 1970-01-01 was a Thursday; shift so that Monday maps to 0.
_EPOCH_WEEKDAY_OFFSET = 3


def discretize_time(t, slots: int = 24):
    """Map epoch timestamps (an int or an array) to (slot-of-day, weekday), UTC-based."""
    slot = (t % SECONDS_PER_DAY) * slots // SECONDS_PER_DAY
    weekday = (t // SECONDS_PER_DAY + _EPOCH_WEEKDAY_OFFSET) % 7
    return slot, weekday


def day_index(t):
    """Calendar day bucket (UTC) used for same-day co-visit counting."""
    return t // SECONDS_PER_DAY


class Events:
    """Events as equal-length numpy columns, one per field (``events.t``).

    As a sequence it reads like a list of ``kind`` records, a NamedTuple type
    whose fields are among the columns: indexing by position, iterating and
    comparing with a list build those records on demand.
    """

    def __init__(self, kind=CheckIn, **columns: np.ndarray):
        self.kind = kind
        self.columns = columns

    @classmethod
    def of(cls, records) -> "Events":
        """``records`` if it already is an Events, else the columns of a
        sequence of NamedTuple records of one type."""
        if isinstance(records, Events):
            return records
        records = records if isinstance(records, list) else list(records)
        kind = type(records[0]) if records else CheckIn
        return cls(kind, **{field: np.fromiter((r[k] for r in records), count=len(records),
                                               dtype=float if field in ("lat", "lon") else np.int64)
                            for k, field in enumerate(kind._fields)})

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def take(self, index) -> "Events":
        """The rows at ``index`` (positions, a slice or a mask)."""
        return Events(self.kind, **{f: c[index] for f, c in self.columns.items()})

    def __iter__(self):
        return map(self.kind._make, zip(*(self.columns[f].tolist() for f in self.kind._fields)))

    def __getitem__(self, i):
        """The record at position ``i``, or the rows of a slice as Events."""
        if isinstance(i, slice):
            return self.take(i)
        return self.kind._make(self.columns[f][i].item() for f in self.kind._fields)

    def __eq__(self, other):
        if isinstance(other, (Events, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def check_settings(split_ratio, window, slots) -> None:
    """Raise ValueError unless the split ratio is a number in (0, 1], the
    window an integer >= 2 and the slot count an integer >= 1."""
    def is_int(v):
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)

    checks = [
        ("split_ratio", split_ratio, "a number in (0, 1]",
         (is_int(split_ratio) or isinstance(split_ratio, float)) and 0.0 < split_ratio <= 1.0),
        ("window", window, "an integer >= 2", is_int(window) and window >= 2),
        ("slots", slots, "an integer >= 1", is_int(slots) and slots >= 1),
    ]
    for name, value, rule, ok in checks:
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def split_point(n_events, ratio: float):
    """Train-event count for users with n_events records (an int or an
    array): ceil(ratio * n)."""
    return np.ceil(ratio * np.asarray(n_events)).astype(np.int64)


def _window_runs(sizes: np.ndarray, window: int):
    """Non-overlapping chunks of the window length over runs of the given
    sizes: each chunk's run, start within it, and length.  A shorter tail is
    kept when it still has an input step and a target (length >= 2)."""
    chunks = -(-sizes // window)
    run = np.repeat(np.arange(sizes.size), chunks)
    start = (np.arange(run.size) - np.repeat(np.cumsum(chunks) - chunks, chunks)) * window
    length = np.minimum(sizes[run] - start, window)
    keep = length >= 2
    return run[keep], start[keep], length[keep]


@dataclasses.dataclass(frozen=True, eq=False)
class Grouping:
    """The rows grouped by owner (a user, or a place): owner c's events are
    rows ``order[offsets[c]:offsets[c + 1]]``, its ``train_counts[c]``
    training events first, each part in time order.  Training window i is
    the ``window_lengths[i]`` grouped positions from ``window_starts[i]``."""
    order: np.ndarray
    offsets: np.ndarray
    train_counts: np.ndarray
    window_starts: np.ndarray
    window_lengths: np.ndarray

    @classmethod
    def build(cls, order, owner, n_owners, train_counts, window) -> "Grouping":
        offsets = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n_owners))])
        run, start, length = _window_runs(train_counts, window)
        return cls(order, offsets, train_counts, offsets[run] + start, length)

    def history(self, c: int, train_only: bool = True) -> np.ndarray:
        """Rows of owner c's training events (or of all its events)."""
        start = self.offsets[c]
        return self.order[start:start + self.train_counts[c] if train_only
                          else self.offsets[c + 1]]

    def positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each grouped position's owner, index among the owner's events, and
        whether it is a training event."""
        owner = np.repeat(np.arange(self.train_counts.size), np.diff(self.offsets))
        rank = np.arange(owner.size) - self.offsets[owner]
        return owner, rank, rank < self.train_counts[owner]

    def window_rows(self) -> np.ndarray:
        """The rows of every training window's events, window by window."""
        ends = np.cumsum(self.window_lengths)
        shift = np.repeat(self.window_starts - (ends - self.window_lengths), self.window_lengths)
        return self.order[np.arange(shift.size) + shift]

    def parts(self, records: list) -> tuple[list[list], list[list]]:
        """Per-owner training and test lists of ``records`` (one per row)."""
        grouped = [records[i] for i in self.order.tolist()]
        ends = self.offsets[:-1] + self.train_counts
        bounds = list(zip(self.offsets[:-1].tolist(), ends.tolist(), self.offsets[1:].tolist()))
        return [grouped[a:b] for a, b, _ in bounds], [grouped[b:c] for _, b, c in bounds]


@dataclasses.dataclass(eq=False)
class Dataset:
    """One event set in columns, grouped per user (split chronologically,
    the first ``split_ratio`` of each user's events for training) and per
    place (a place's training events are those in its users' training parts).

    Training reads the columns through ``windows``.  The record views
    (``records``, ``train`` ... ``poi_test``) are lists of NamedTuples, and
    ``user_windows``/``poi_windows`` are lists of one ``Events`` per window,
    whose columns are views into one gathered copy: no record is built for
    a window until it is read.
    """
    n_users: int
    n_pois: int
    split_ratio: float
    window: int
    slots: int
    events: Events          # user, t, lat, lon, poi, slot, weekday; global (t, user, poi) order
    by_user: Grouping
    by_poi: Grouping
    user_raw: list[str]
    poi_raw: list[str]
    meta: dict

    def windows(self, grouping: str) -> tuple[Events, np.ndarray, np.ndarray]:
        """Training windows of ``by_user`` or ``by_poi``, as ``WindowNet.pack``
        takes them: the columns, each window's rows in turn, and their lengths."""
        g = getattr(self, grouping)
        return self.events, g.window_rows(), g.window_lengths

    @property
    def cold_pois(self) -> list[int]:
        return np.flatnonzero(self.by_poi.train_counts == 0).tolist()

    # -- read-only record views, built on first use ----------------------------

    @functools.cached_property
    def records(self) -> list[CheckIn]:
        """All events, global (t, user, poi) order."""
        return list(self.events)

    @functools.cached_property
    def _user_parts(self):
        return self.by_user.parts(self.records)

    @functools.cached_property
    def _poi_parts(self):
        return self.by_poi.parts(list(Events(VisitEvent, **self.events.columns)))

    train = property(lambda self: self._user_parts[0], doc="Training CheckIns per user.")
    test = property(lambda self: self._user_parts[1], doc="Test CheckIns per user.")
    poi_train = property(lambda self: self._poi_parts[0], doc="Training VisitEvents per POI.")
    poi_test = property(lambda self: self._poi_parts[1], doc="Test VisitEvents per POI.")

    def _window_views(self, grouping: str, kind) -> list[Events]:
        """Each training window of ``grouping`` as Events of ``kind`` records:
        views into one gathered copy of the columns ``kind`` reads."""
        g = getattr(self, grouping)
        rows, ends = g.window_rows(), np.cumsum(g.window_lengths)
        parts = {f: np.split(self.events.columns[f][rows], ends)[:-1] for f in kind._fields}
        return [Events(kind, **dict(zip(parts, cols))) for cols in zip(*parts.values())]

    @functools.cached_property
    def user_windows(self) -> list[Events]:
        """Training windows of CheckIns per user, user by user."""
        return self._window_views("by_user", CheckIn)

    @functools.cached_property
    def poi_windows(self) -> list[Events]:
        """Training windows of VisitEvents per place, place by place."""
        return self._window_views("by_poi", VisitEvent)


def _in_order(*keys: np.ndarray) -> bool:
    """Whether the rows are already in lexicographic order of ``keys``, the
    first key most significant: then a stable sort would leave them as they
    are."""
    ahead = np.zeros(keys[0].size - 1, dtype=bool)      # settled by an earlier key
    for key in keys:
        step = np.diff(key)
        if np.any(~ahead & (step < 0)):
            return False
        ahead |= step > 0
    return True


def build_dataset(records, split_ratio: float = 0.8,
                  window: int = 20, slots: int = 24,
                  user_raw: list[str] | None = None,
                  poi_raw: list[str] | None = None,
                  meta: dict | None = None) -> Dataset:
    """A Dataset from check-ins (an Events or a list of CheckIn) in any order.

    Raw id lists, when given, name every user and place; otherwise the
    largest id seen sets each count.  Events already in (t, user, poi) order,
    as ``load_dataset`` reads them, are not sorted again: the Dataset's
    columns are then views of the given ones.
    """
    check_settings(split_ratio, window, slots)
    given = Events.of(records)
    if not len(given):
        raise DataError("no records to build a dataset from")
    if min(given.user.min(), given.poi.min()) < 0:
        raise DataError("user and POI ids must be non-negative")
    # A new Events either way, since slot and weekday columns are added to it.
    events = given.take(slice(None) if _in_order(given.t, given.user, given.poi)
                        else np.lexsort((given.poi, given.user, given.t)))
    user, poi = events.user, events.poi
    n_users = len(user_raw) if user_raw else int(user.max()) + 1
    n_pois = len(poi_raw) if poi_raw else int(poi.max()) + 1
    if user.max() >= n_users or poi.max() >= n_pois:
        raise DataError("an event id has no raw id")
    events.columns["slot"], events.columns["weekday"] = discretize_time(events.t, slots)

    counts = np.bincount(user, minlength=n_users)
    n_train = split_point(counts, split_ratio)
    short = np.flatnonzero(n_train < 2)
    if short.size:
        raise DataError(f"user {short[0]} has {n_train[short[0]]} train events; need at least 2")
    by_user = Grouping.build(np.argsort(user, kind="stable"), user, n_users, n_train, window)
    in_train = np.empty(len(events), dtype=bool)
    in_train[by_user.order] = by_user.positions()[2]
    # By place, each place's training events first: one stable sort of one key.
    by_poi = Grouping.build(np.argsort(2 * poi + ~in_train, kind="stable"), poi, n_pois,
                            np.bincount(poi[in_train], minlength=n_pois), window)
    return Dataset(
        n_users=n_users, n_pois=n_pois, split_ratio=split_ratio,
        window=window, slots=slots, events=events, by_user=by_user, by_poi=by_poi,
        user_raw=user_raw or [f"u{i}" for i in range(n_users)],
        poi_raw=poi_raw or [f"p{i}" for i in range(n_pois)],
        meta=meta or {},
    )
