"""Check-in files, ingestion filters, dataset directories and synthetic data.

Parsing and writing work on whole columns (``nextloc.dataset.Events``), a
block of lines at a time.  The synthetic generator plants recoverable
structure — paired "clone" users sharing a POI pool, per-POI time profiles,
uniform noise — so the association machinery can be verified against known
ground truth.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import tokenize
from datetime import datetime, timezone

import numpy as np

# The in-memory dataset, re-exported: the data layer's public names stay here.
from .dataset import (_EPOCH_WEEKDAY_OFFSET, SECONDS_PER_DAY, CheckIn,  # noqa: F401
                      DataError, Dataset, Events, VisitEvent, build_dataset,
                      check_settings, day_index, discretize_time, split_point)

# Column orders of the supported raw formats.  Both use tab-separated lines
# with ISO-8601 UTC timestamps; they differ only in where the POI id sits.
FORMATS = {
    "gowalla": ("user", "time", "lat", "lon", "poi"),
    "foursquare": ("user", "poi", "lat", "lon", "time"),
}

# Line templates of the writer: the time field gets its "Z" there.
_LINE = {fmt: "\t".join("{}Z" if c == "time" else "{}" for c in columns) + "\n"
         for fmt, columns in FORMATS.items()}
# Timestamps the writer can spell as YYYY-MM-DDTHH:MM:SSZ: years 1000 to 9999.
_WRITABLE_T = (-30610224000, 253402300799)


def parse_timestamp(text: str) -> int:
    """ISO-8601 timestamp string to integer epoch seconds (UTC)."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(t: int) -> str:
    return datetime.fromtimestamp(int(t), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _text_blocks(path, size: int = 1 << 16):
    """The lines of a UTF-8 text file, without their newlines, in blocks of
    about ``size`` characters; bytes that are not UTF-8 raise DataError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            while block := f.readlines(size):
                lines = "".join(block).split("\n")
                if not lines[-1]:
                    lines.pop()     # the text after the block's last newline
                yield lines
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc


# Character positions of YYYY-MM-DDTHH:MM:SSZ: digits, then the rest.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_MARKS = ([4, 7, 10, 13, 16, 19], [ord(c) for c in "--T::Z"])
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _parse_times(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each text, and whether ``parse_timestamp`` accepts it.

    Valid ``YYYY-MM-DDTHH:MM:SSZ`` texts are read by array arithmetic (days
    from the civil date); any other text goes through ``parse_timestamp``.
    """
    codes = np.array(texts, dtype="U20").view(np.uint32).reshape(len(texts), 20)
    d = codes[:, _DIGITS].astype(np.int64) - ord("0")
    y = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    mo, day, h, mi, s = (d[:, k] * 10 + d[:, k + 1] for k in range(4, 14, 2))
    leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(mo, 0, 12)] + (leap & (mo == 2))
    ok = (((d >= 0) & (d <= 9)).all(axis=1) & (codes[:, _MARKS[0]] == _MARKS[1]).all(axis=1)
          & (np.fromiter(map(len, texts), np.int64, len(texts)) == 20)
          & (mo >= 1) & (mo <= 12) & (day >= 1) & (day <= month_days)
          & (h <= 23) & (mi <= 59) & (s <= 59))
    y = y - (mo <= 2)
    doy = (153 * ((mo + 9) % 12) + 2) // 5 + day - 1
    days = y // 400 * 146097 + (y % 400) * 365 + (y % 400) // 4 - (y % 400) // 100 + doy - 719468
    t = days * SECONDS_PER_DAY + h * 3600 + mi * 60 + s
    for i in np.flatnonzero(~ok).tolist():
        try:
            t[i], ok[i] = parse_timestamp(texts[i]), True
        except ValueError:
            pass
    return t, ok


def _parse_floats(texts: list[str]) -> np.ndarray:
    """``float`` of each text; nan where it refuses the text."""
    try:
        return np.array(list(map(float, texts)), dtype=np.float64)
    except ValueError:
        def value(text):
            try:
                return float(text)
            except ValueError:
                return math.nan
        return np.array(list(map(value, texts)), dtype=np.float64)


def _dense_ids(raw_ids: list[str], seen: dict[str, int]) -> list[int]:
    """The dense id of each raw id; ids not in ``seen`` join it in order."""
    try:
        return list(map(seen.__getitem__, raw_ids))
    except KeyError:
        return [seen.setdefault(r, len(seen)) for r in raw_ids]


@dataclasses.dataclass
class ParseResult:
    records: Events            # user, t, lat, lon, poi columns, in file order
    user_ids: dict[str, int]   # raw id -> dense index, first-seen order
    poi_ids: dict[str, int]
    malformed: int
    total_lines: int


def parse_checkin_file(path, fmt: str = "gowalla") -> ParseResult:
    """Parse a tab-separated check-in file into dense-indexed columns.

    Dense ids are assigned in first-seen order.  A line is malformed unless
    it has five fields, an ISO-8601 time after the epoch, a latitude in
    [-90, 90] and a longitude in (-180, 180].  Malformed lines are counted,
    not fatal, unless they exceed 1% of the file's non-empty lines — that
    usually means the wrong format was chosen.
    """
    if fmt not in FORMATS:
        raise DataError(f"unknown format {fmt!r}; expected one of {sorted(FORMATS)}")
    ids = {"user": {}, "poi": {}}
    blocks, total = [], 0
    for lines in _text_blocks(path):
        total += len(lines) - lines.count("")
        whole = [line for line in lines if line.count("\t") == 4]
        fields = "\t".join(whole).split("\t") if whole else []
        raw = {name: fields[k::5] for k, name in enumerate(FORMATS[fmt])}
        t, ok = _parse_times(raw["time"])
        lat, lon = _parse_floats(raw["lat"]), _parse_floats(raw["lon"])
        ok &= (t > 0) & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 < lon) & (lon <= 180.0)
        dense = {name: np.array(_dense_ids(list(itertools.compress(raw[name], ok.tolist())),
                                           seen), np.int64)
                 for name, seen in ids.items()}
        blocks.append(dict(dense, t=t[ok], lat=lat[ok], lon=lon[ok]))
    n_kept = sum(len(b["t"]) for b in blocks)
    if total and (total - n_kept) * 100 > total:
        raise DataError(
            f"{path}: {total - n_kept}/{total} malformed lines (>1%); wrong --format?")
    if not n_kept:
        raise DataError(f"{path}: no usable check-in records")
    records = Events(CheckIn, **{f: np.concatenate([b[f] for b in blocks]) for f in CheckIn._fields})
    return ParseResult(records, ids["user"], ids["poi"], total - n_kept, total)


def _first_seen(ids: np.ndarray) -> tuple[np.ndarray, dict[int, int]]:
    """Dense ids renumbered in first-seen order, and the old -> new map."""
    first = np.full(ids.max() + 1, ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    old = np.flatnonzero(first < ids.size)
    old = old[np.argsort(first[old])]
    new = np.empty_like(first)
    new[old] = np.arange(old.size)
    return new[ids], dict(zip(old.tolist(), range(old.size)))


@dataclasses.dataclass
class FilterResult:
    records: Events
    user_map: dict[int, int]   # old dense id -> new dense id (dropped ids absent)
    poi_map: dict[int, int]


def _filter(records, field: str, min_count: int, what: str) -> FilterResult:
    """Drop the records whose ``field`` id has fewer than min_count records,
    then recompact both ids in first-seen order of what is left."""
    if min_count < 1:
        raise DataError("min_count must be >= 1")
    events = Events.of(records)
    if min(events.user.min(initial=0), events.poi.min(initial=0)) < 0:
        raise DataError("user and POI ids must be non-negative")
    ids = getattr(events, field)
    kept = events.take(np.bincount(ids)[ids] >= min_count)
    if not len(kept):
        raise DataError(f"no {what} with at least {min_count} records")
    (user, user_map), (poi, poi_map) = _first_seen(kept.user), _first_seen(kept.poi)
    return FilterResult(Events(CheckIn, user=user, t=kept.t, lat=kept.lat, lon=kept.lon,
                               poi=poi), user_map, poi_map)


def filter_inactive_users(records, min_count: int = 100) -> FilterResult:
    """Drop users with fewer than min_count records and recompact dense ids.

    POIs left with zero records disappear from the index as a side effect of
    recompaction.
    """
    return _filter(records, "user", min_count, "users")


def filter_rare_pois(records, min_count: int) -> FilterResult:
    """Optional mirror of the user filter for rarely visited POIs (off by default)."""
    return _filter(records, "poi", min_count, "POIs")


# ---------------------------------------------------------------------------
# Synthetic data with planted structure.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SyntheticSpec:
    """Knobs for the generator; defaults match the verification battery.

    Users follow a daily routine over a small personal repertoire of POIs,
    visiting each near its characteristic hour on a random subset of days.
    The repertoire is split into two alternating day-plans; one coin per day
    picks which plan is on, so the start of a day is ambiguous from one's own
    history alone.  A fraction of users come in clone pairs: both repertoires
    are drawn from one shared pool (mostly common POIs plus a few exclusive
    to each member), the pair shares its outing draws and its daily plan coin
    (they go out *together*, so same-day co-visitation singles the partner
    out and the partner's morning reveals one's own evening), and late in the
    pair's timeline each member starts visiting the partner's exclusive POIs
    — exactly the events a purely personal model cannot predict.  Everyone
    else pairs into companions, a weaker tier with the same habits over a
    smaller shared set.  Noise events redirect a fixed share of visits to a
    small per-user palette of unrelated POIs, keeping the shared-pool share
    of clone visits at 1 - noise_rate.
    """
    n_users: int = 40
    n_pois: int = 30
    events_per_user: int = 120
    clone_fraction: float = 0.3
    pool_overlap: float = 0.9     # required minimum shared-pool share of clone visits
    noise_rate: float = 0.1
    n_zones: int = 3
    repertoire_size: int = 6
    exclusive_per_user: int = 1
    companion_shared: int = 4     # designed repertoire overlap of a companion pair
    noise_palette: int = 3
    adopt_count: int = 5          # late partner-POI visits planted per clone user
    drift_count: int = 5          # late companion-POI visits planted per non-clone user
    explore_count: int = 7        # late solo visits to one brand-new place, non-clones
    slot_jitter: int = 2          # visit slot scatter around a place's peak slot
    split_plans: bool = True      # alternate the repertoire over two day-plans
    go_prob: float = 0.3          # chance of a routine visit on a plan-active day
    off_prob: float = 0.1         # chance of one on an off-plan or off-profile day
    split_ratio: float = 0.8
    window: int = 20
    slots: int = 24
    base_day: int = 14613         # 2010-01-04, a Monday

    @property
    def pool_size(self) -> int:
        return self.repertoire_size - self.exclusive_per_user + 2 * self.exclusive_per_user


def _slot_gap(a: int, b: int, slots: int) -> int:
    """Circular distance between two time slots."""
    return min((a - b) % slots, (b - a) % slots)


def _validate_spec(spec: SyntheticSpec) -> None:
    """Raise DataError naming the first setting that leaves the spec
    infeasible; nothing is drawn before every check has passed."""
    check_settings(spec.split_ratio, spec.window, spec.slots)
    least = {"n_users": 2, "n_pois": 1, "events_per_user": 10, "n_zones": 1,
             "repertoire_size": 1, "exclusive_per_user": 0, "companion_shared": 1,
             "noise_palette": 0, "adopt_count": 0, "drift_count": 0, "explore_count": 0,
             "slot_jitter": 0}
    for name, low in least.items():
        if getattr(spec, name) < low:
            raise DataError(f"infeasible synthetic spec: {name} must be at least {low}, "
                            f"got {getattr(spec, name)!r}")
    for name in ("clone_fraction", "pool_overlap", "noise_rate", "go_prob", "off_prob"):
        if not 0.0 <= getattr(spec, name) <= 1.0:
            raise DataError(f"infeasible synthetic spec: {name} must lie in [0, 1], "
                            f"got {getattr(spec, name)!r}")
    max_zone = -(-spec.n_pois // spec.n_zones)
    min_zone = spec.n_pois - max_zone * (spec.n_zones - 1)
    core = spec.repertoire_size - spec.exclusive_per_user
    checks = [
        (min_zone >= 1, f"n_zones of {spec.n_zones} leaves a zone empty "
                        f"({spec.n_pois} POIs, up to {max_zone} a zone)"),
        (min_zone >= spec.pool_size,
         f"clone pool of {spec.pool_size} does not fit a zone of {min_zone} POIs"),
        (min_zone >= spec.repertoire_size, "repertoire does not fit a zone"),
        (core >= 1, "repertoire must keep at least one shared POI"),
        (spec.noise_rate + spec.pool_overlap <= 1.0 + 1e-9,
         f"noise rate {spec.noise_rate} breaks the {spec.pool_overlap} pool-share floor"),
        (spec.n_pois - spec.pool_size >= spec.noise_palette or spec.noise_rate == 0,
         "not enough POIs outside a clone pool to draw noise from"),
        # A user visits each routine place at most once a day, and the day
        # loop of generate_synthetic stops after 10001 days.
        (spec.events_per_user <= 10001 * spec.repertoire_size,
         f"events_per_user of {spec.events_per_user} cannot fill: {spec.repertoire_size} "
         f"routine places visited at most once a day for at most 10001 days"),
        (spec.companion_shared < spec.repertoire_size,
         "companion_shared must leave each companion a unique POI"),
        (min_zone >= 2 * spec.repertoire_size - spec.companion_shared,
         "companion pool does not fit a zone"),
        (max(spec.adopt_count, spec.drift_count + spec.explore_count)
         <= spec.events_per_user
         - split_point(spec.events_per_user, spec.split_ratio) - 1,
         "planted late visits exceed the test segment"),
        (max_zone <= spec.slots,
         "zone POIs need distinct time slots; increase slots or zones"),
        (spec.slot_jitter <= spec.slots // 2,
         "slot_jitter must be between 0 and half the slot count"),
        (not spec.split_plans or spec.repertoire_size >= 2,
         "alternating day-plans need a repertoire of at least 2"),
        (0.0 < spec.go_prob and spec.off_prob <= spec.go_prob,
         "need 0 < go_prob <= 1 and 0 <= off_prob <= go_prob"),
    ]
    for ok, msg in checks:
        if not ok:
            raise DataError(f"infeasible synthetic spec: {msg}")


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic planted-structure dataset; see SyntheticSpec for the design.

    A spec and seed always give the same events and meta, so the order of the
    random draws is part of the output format: do not reorder or regroup them
    (a sized draw in place of scalar ones included) unless the pinned digests
    in tests/test_data.py and tests/test_cli.py still pass.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(seed)
    M, N, E = spec.n_users, spec.n_pois, spec.events_per_user

    # POIs: zone blocks, coordinates around a zone centre, one characteristic
    # hour each (distinct within a zone), and an active-day profile.
    zone_of_poi = np.repeat(np.arange(spec.n_zones), -(-N // spec.n_zones))[:N]
    zone_pois = [np.flatnonzero(zone_of_poi == z) for z in range(spec.n_zones)]
    lat = np.empty(N)
    lon = np.empty(N)
    peak_slot = np.empty(N, dtype=int)
    for z, members in enumerate(zone_pois):
        lat[members] = 40.0 + 0.09 * z + rng.uniform(-0.004, 0.004, members.size)
        lon[members] = -75.0 + rng.uniform(-0.005, 0.005, members.size)
        peak_slot[members] = rng.choice(spec.slots, size=members.size, replace=False)
    day_profiles = [tuple(range(7)), tuple(range(5)), (5, 6)]
    profile_of_poi = rng.choice(len(day_profiles), size=N, p=[0.5, 0.3, 0.2])

    # Users: clone pairs first (both members in the same zone), then loners.
    n_pairs = int(M * spec.clone_fraction) // 2
    clone_pairs = [(2 * k, 2 * k + 1) for k in range(n_pairs)]
    partner = {a: b for a, b in clone_pairs} | {b: a for a, b in clone_pairs}
    # Everyone else pairs up too — companions, a weaker tier of relatedness:
    # they share a few repertoire POIs and keep a couple of their own, while
    # clone pairs share a designed pool covering nearly all their visits.
    companion_pairs = [(u, u + 1) for u in range(2 * n_pairs, M - 1, 2)]
    buddy = dict(partner)
    for a, b in companion_pairs:
        buddy[a], buddy[b] = b, a
    zone_of_user = np.empty(M, dtype=int)
    for k, (a, b) in enumerate(clone_pairs):
        zone_of_user[a] = zone_of_user[b] = k % spec.n_zones
    for j, (a, b) in enumerate(companion_pairs):
        zone_of_user[a] = zone_of_user[b] = (n_pairs + j) % spec.n_zones
    if M % 2 and M > 2 * n_pairs:
        zone_of_user[M - 1] = (n_pairs + len(companion_pairs)) % spec.n_zones

    core = spec.repertoire_size - spec.exclusive_per_user
    repertoires: list[list[int]] = [[] for _ in range(M)]
    pools: list[list[int] | None] = [None] * M
    exclusives: list[list[int] | None] = [None] * M
    for k, (a, b) in enumerate(clone_pairs):
        pool = [int(p) for p in rng.choice(zone_pois[zone_of_user[a]],
                                           size=spec.pool_size, replace=False)]
        shared = list(pool[:core])
        excl_a = list(pool[core:core + spec.exclusive_per_user])
        excl_b = list(pool[core + spec.exclusive_per_user:])
        repertoires[a] = shared + excl_a
        repertoires[b] = shared + excl_b
        pools[a] = pools[b] = list(pool)
        exclusives[a], exclusives[b] = excl_a, excl_b
    comp_pool = 2 * spec.repertoire_size - spec.companion_shared
    for a, b in companion_pairs:
        pool = [int(p) for p in rng.choice(zone_pois[zone_of_user[a]],
                                           size=comp_pool, replace=False)]
        shared = list(pool[:spec.companion_shared])
        repertoires[a] = shared + list(pool[spec.companion_shared:spec.repertoire_size])
        repertoires[b] = shared + list(pool[spec.repertoire_size:])
        pools[a] = pools[b] = list(pool)
    if M % 2 and M > 2 * n_pairs:
        u = M - 1
        repertoires[u] = [int(p) for p in rng.choice(
            zone_pois[zone_of_user[u]], size=spec.repertoire_size, replace=False)]

    # Outings on a pair's common POIs are made together: one go/stay draw per
    # (pair, POI, day) for both members.  For clones that is the designed core;
    # for companions, their designed shared set.  A day draws all pairs' coins
    # in one call, pair by pair: the plan coin (with split plans), then one per
    # common POI in id order.  shared_at[u] maps u's common POIs to their coin's
    # index in that draw; plan_at[u] is the index of u's plan coin, or -1 for a
    # user who tosses their own.
    shared_at: list[dict[int, int]] = [{} for _ in range(M)]
    plan_at = [-1] * M
    n_shared = 0
    for a, b in clone_pairs + companion_pairs:
        if spec.split_plans:
            plan_at[a] = plan_at[b] = n_shared
            n_shared += 1
        for p in sorted(set(repertoires[a]) & set(repertoires[b])):
            shared_at[a][p] = shared_at[b][p] = n_shared
            n_shared += 1

    # Each repertoire alternates over two day-plans, split in lock-step on a
    # pair's shared POIs so both members agree on what kind of day it is.
    # The first moves of a day are then ambiguous from one member's history
    # alone, yet readable off the other member's earlier visits.
    peak = peak_slot.tolist()
    plan_of: list[dict[int, int]] = [{} for _ in range(M)]
    if spec.split_plans:
        def by_slot(p: int) -> tuple[int, int]:
            return peak[p], p
        for u in range(M):
            common = sorted(shared_at[u], key=by_slot)
            rest = sorted(set(repertoires[u]) - set(common), key=by_slot)
            for i, p in enumerate(common + rest):
                plan_of[u][p] = i % 2

    # Noise palettes are drawn outside the user's pool (or repertoire), so a
    # partner's exclusive POIs can never leak into one's own training history.
    palettes: list[list[int]] = []
    for u in range(M):
        own = set(pools[u] if pools[u] is not None else repertoires[u])
        candidates = np.array([p for p in range(N) if p not in own])
        k = min(spec.noise_palette, candidates.size)
        palettes.append([int(p) for p in rng.choice(candidates, size=k, replace=False)]
                        if k else [])

    n_train = split_point(E, spec.split_ratio)
    n_noise = int(spec.noise_rate * E)
    slot_seconds = SECONDS_PER_DAY // spec.slots
    jitter, slots = spec.slot_jitter, spec.slots

    # Each user's routine in visiting order, as plain ints: the POI, its
    # coin's index in the day's shared draw (-1: the user tosses their own),
    # its peak slot, and its visit chance by 2 * weekday + today's plan.
    routines = []
    for u in range(M):
        routine = []
        for p in sorted(repertoires[u], key=peak.__getitem__):
            days, plan = day_profiles[profile_of_poi[p]], plan_of[u].get(p, 0)
            chance = tuple(spec.go_prob if weekday in days and plan == today else spec.off_prob
                           for weekday in range(7) for today in (0, 1))
            routine.append((p, shared_at[u].get(p, -1), peak[p], chance))
        routines.append(routine)

    # Day-synchronous generation with the shared draws described above.
    random, integers = rng.random, rng.integers
    visits: list[list[tuple[int, int]]] = [[] for _ in range(M)]   # (timestamp, poi)
    day = 0
    while min(map(len, visits)) < E:
        if day > 10000:
            raise DataError("synthetic day loop failed to fill the event budget")
        weekday = (spec.base_day + day + _EPOCH_WEEKDAY_OFFSET) % 7
        midnight = (spec.base_day + day) * SECONDS_PER_DAY
        shared = random(n_shared).tolist()
        for own, plan_coin, routine in zip(visits, plan_at, routines):
            today = 0
            if spec.split_plans:
                today = int((shared[plan_coin] if plan_coin >= 0 else random()) < 0.5)
            column = 2 * weekday + today
            for p, coin, slot, chance in routine:
                if (shared[coin] if coin >= 0 else random()) < chance[column]:
                    if jitter:
                        slot = (slot + int(integers(-jitter, jitter + 1))) % slots
                    own.append((midnight + slot * slot_seconds
                                + int(integers(0, slot_seconds)), p))
        day += 1

    # Jitter can reorder a day's visits, so sort each user's first E:
    # replacement positions below are meant relative to the chronological
    # sequence.
    seqs = [sorted(own[:E]) for own in visits]
    targets: list[list[int]] = []
    adoption: list[list[int]] = [[] for _ in range(M)]
    discovery: list[list[int]] = [[] for _ in range(M)]
    discovery_poi: list[int | None] = [None] * M
    exploration: list[list[int]] = [[] for _ in range(M)]
    exploration_poi: list[int | None] = [None] * M
    for u in range(M):
        seq = seqs[u]
        target = [p for _, p in seq]
        open_tail = list(range(n_train + 1, E))

        # Late adoption: in the test tail a user starts visiting places only
        # their other half frequents — absent from their own training history.
        # Clone members take up the partner's designed exclusives; companions
        # discover one place unique to their companion.  The member tags
        # along: each planted visit takes over a tail event on a day the mate
        # actually goes there, at the hour closest to that place's
        # characteristic hour, so both time-of-day and arrival-sequence
        # predictors get a fair shot at it.
        mate = buddy.get(u)
        if mate is not None:
            if partner.get(u) is not None:
                goals = list(exclusives[mate] or [])
                n_plant, book = spec.adopt_count, adoption[u]
            else:
                known = set(repertoires[u]) | set(palettes[u])
                cand = sorted(set(repertoires[mate]) - known)
                goals = [cand[int(rng.integers(0, len(cand)))]] if cand else []
                n_plant, book = spec.drift_count, discovery[u]
                discovery_poi[u] = goals[0] if goals else None
            if goals and n_plant:
                g_days = {g: {t // SECONDS_PER_DAY for t, p in seqs[mate] if p == g}
                          for g in goals}
                for j in range(n_plant):
                    g = goals[j % len(goals)]
                    together = [i for i in open_tail
                                if seq[i][0] // SECONDS_PER_DAY in g_days[g]]
                    pos = min(together or open_tail,
                              key=lambda i: (_slot_gap(peak[target[i]], peak[g], slots), i))
                    target[pos] = g
                    open_tail.remove(pos)
                    book.append(pos)
                book.sort()

        # Solo exploration: late in their timeline, non-clone users also take
        # up one brand-new in-zone place nobody pointed them to.  No companion
        # is involved, so only the overlap between the place's visitor crowd
        # and the user's own haunts can explain these visits.
        if partner.get(u) is None and spec.explore_count and open_tail:
            known = set(repertoires[u]) | set(palettes[u])
            if discovery_poi[u] is not None:
                known.add(discovery_poi[u])
            mate_known = (set(repertoires[mate]) | set(palettes[mate])
                          if mate is not None else set())
            here = [int(p) for p in zone_pois[zone_of_user[u]] if p not in known]
            cand = [p for p in here if p not in mate_known] or here
            if cand:
                g = cand[int(rng.integers(0, len(cand)))]
                exploration_poi[u] = g
                for _ in range(min(spec.explore_count, len(open_tail))):
                    pos = min(open_tail,
                              key=lambda i: (_slot_gap(peak[target[i]], peak[g], slots), i))
                    target[pos] = g
                    open_tail.remove(pos)
                    exploration[u].append(pos)
                exploration[u].sort()

        if n_noise and palettes[u]:
            protected = set(adoption[u]) | set(discovery[u]) | set(exploration[u])
            open_slots = [i for i in range(E) if i not in protected]
            if n_noise > len(open_slots):
                raise DataError(f"infeasible synthetic spec: noise_rate of {spec.noise_rate} "
                                f"asks {n_noise} noise visits of user {u}, who has "
                                f"{len(open_slots)} unplanted slots")
            chosen = rng.choice(len(open_slots), size=n_noise, replace=False)
            picks = rng.integers(0, len(palettes[u]), size=n_noise)
            for c, k in zip(chosen.tolist(), picks.tolist()):
                target[open_slots[c]] = palettes[u][k]
        targets.append(target)

    poi = np.array(targets, dtype=np.int64).ravel()
    events = Events(CheckIn, user=np.repeat(np.arange(M, dtype=np.int64), E),
                    t=np.array([t for seq in seqs for t, _ in seq], dtype=np.int64),
                    lat=lat[poi], lon=lon[poi], poi=poi)

    meta = {
        "seed": seed,
        "spec": dataclasses.asdict(spec),
        "clone_pairs": [list(p) for p in clone_pairs],
        "repertoires": repertoires,
        "pools": pools,
        "exclusives": exclusives,
        "palettes": palettes,
        "adoption_positions": adoption,
        "companion_pairs": [list(p) for p in companion_pairs],
        "discovery_positions": discovery,
        "discovery_poi": discovery_poi,
        "exploration_positions": exploration,
        "exploration_poi": exploration_poi,
        "plan_of_poi": [sorted([p, pl] for p, pl in plan_of[u].items())
                        for u in range(M)],
        "zone_of_user": zone_of_user.tolist(),
        "zone_of_poi": zone_of_poi.tolist(),
        "peak_slot": peak_slot.tolist(),
        "active_days": [list(day_profiles[k]) for k in profile_of_poi],
    }
    return build_dataset(events, spec.split_ratio, spec.window, spec.slots,
                         user_raw=[f"u{i:03d}" for i in range(M)],
                         poi_raw=[f"p{i:03d}" for i in range(N)],
                         meta=meta)


# ---------------------------------------------------------------------------
# Dataset directory I/O.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.npy"
#: The directory layout ``save_dataset`` writes; version 1 held the events as text.
DATASET_VERSION = 2
#: A row of the events table: ``Dataset.events``' columns, little-endian.
EVENTS_DTYPE = np.dtype([(f, "<f8" if f in ("lat", "lon") else "<i8") for f in CheckIn._fields])


def write_checkin_file(path, records, user_raw: list[str],
                       poi_raw: list[str], fmt: str = "gowalla") -> None:
    """Write check-ins (an Events or a list of CheckIn) as ``parse_checkin_file``
    reads them: raw ids, YYYY-MM-DDTHH:MM:SSZ times and ``repr`` coordinates."""
    events = Events.of(records)
    if len(events) and not (_WRITABLE_T[0] <= events.t.min() and events.t.max() <= _WRITABLE_T[1]):
        raise DataError("timestamps must fall in the years 1000 to 9999 to be written")
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(events), 1024):
            block = events.take(slice(start, start + 1024))
            text = {"user": [user_raw[u] for u in block.user.tolist()],
                    "poi": [poi_raw[p] for p in block.poi.tolist()],
                    "time": block.t.astype("datetime64[s]").astype("U19").tolist(),
                    "lat": list(map(repr, block.lat.tolist())),
                    "lon": list(map(repr, block.lon.tolist()))}
            f.writelines(map(_LINE[fmt].format, *(text[c] for c in FORMATS[fmt])))


def _earlier_version(out_dir):
    """The version named by the dataset manifest already in out_dir, or
    None when out_dir holds none."""
    try:
        with open(os.path.join(out_dir, MANIFEST_NAME), "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        return None
    return manifest.get("version") if isinstance(manifest, dict) else None


def save_dataset(dataset: Dataset, out_dir, keep=()) -> None:
    """Write a self-describing dataset directory (manifest, events table, id
    maps, and ``meta.json`` when the dataset has meta).

    Where out_dir already holds a dataset (a manifest naming a version), the
    parts of it the new one does not write are removed, so that none is read
    with it: its ``meta.json`` and, for version 1, its ``events.tsv``.
    ``keep`` names files (an ingest's input) that must survive: if one is a
    file the save would write over or remove, DataError, before anything is
    written."""
    version = _earlier_version(out_dir)
    stale = ([] if dataset.meta or version is None else ["meta.json"]) + (
        ["events.tsv"] if version == 1 else [])
    touched = [MANIFEST_NAME, EVENTS_NAME, "users.tsv", "pois.tsv"] + stale + (
        ["meta.json"] if dataset.meta else [])
    for path in filter(os.path.exists, keep):
        for name in touched:
            target = os.path.join(out_dir, name)
            if os.path.exists(target) and os.path.samefile(path, target):
                raise DataError(f"{path} is the {name} that saving the dataset to {out_dir} "
                                "would replace; save it to another directory")
    os.makedirs(out_dir, exist_ok=True)
    for name in stale:
        if os.path.exists(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))
    manifest = {
        "version": DATASET_VERSION,
        "n_users": dataset.n_users,
        "n_pois": dataset.n_pois,
        "n_events": len(dataset.events),
        "split_ratio": dataset.split_ratio,
        "window": dataset.window,
        "slots": dataset.slots,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    table = np.rec.fromarrays([getattr(dataset.events, f) for f in CheckIn._fields],
                              dtype=EVENTS_DTYPE)
    np.save(os.path.join(out_dir, EVENTS_NAME), table, allow_pickle=False)
    for name, raw in (("users.tsv", dataset.user_raw), ("pois.tsv", dataset.poi_raw)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.writelines(f"{dense}\t{raw_id}\n" for dense, raw_id in enumerate(raw))
    if dataset.meta:
        with open(os.path.join(out_dir, "meta.json"), "w", encoding="utf-8") as f:
            json.dump(dataset.meta, f, indent=2, sort_keys=True)
            f.write("\n")


def _read_id_map(path) -> list[str]:
    """Raw ids of a users.tsv/pois.tsv file, one "<dense>\t<raw>" line each."""
    out: list[str] = []
    for n, line in enumerate(itertools.chain.from_iterable(_text_blocks(path)), start=1):
        fields = line.split("\t")
        try:
            dense_ok = len(fields) == 2 and int(fields[0]) == len(out)
        except ValueError:
            dense_ok = False
        if not dense_ok:
            raise DataError(f"{path}:{n}: expected '{len(out)}<TAB>raw id' "
                            f"(ids densely ordered), got {line[:60]!r}")
        out.append(fields[1])
    return out


def _read_events(path, n_users: int, n_pois: int) -> Events:
    """The columns of an events table, each row checked as
    ``parse_checkin_file`` checks a line, and its ids against the id maps.
    The file is mapped, so a header claiming more rows than it holds is
    refused before anything is allocated."""
    try:
        table = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, EOFError, ValueError, TypeError, OverflowError, SyntaxError,
            tokenize.TokenError) as exc:   # what numpy raises on a broken header
        raise DataError(f"{path}: not a readable .npy table: {exc}") from exc
    if not (isinstance(table, np.ndarray) and table.dtype == EVENTS_DTYPE and table.ndim == 1
            and table.offset + table.nbytes == os.path.getsize(path)):
        raise DataError(f"{path}: expected exactly a 1-D table of {EVENTS_DTYPE}")
    e = Events(CheckIn, **{f: np.array(table[f]) for f in CheckIn._fields})
    del table   # unmaps the file
    ok = ((0 <= e.user) & (e.user < n_users) & (0 <= e.poi) & (e.poi < n_pois) & (e.t > 0)
          & (-90.0 <= e.lat) & (e.lat <= 90.0) & (-180.0 < e.lon) & (e.lon <= 180.0))
    if not ok.all():
        raise DataError(f"{path}: row {ok.argmin()} {e[ok.argmin()]} has an id outside "
                        "users.tsv/pois.tsv, a time t <= 0 or a coordinate out of range")
    return e


def load_dataset(in_dir) -> Dataset:
    """Read ``save_dataset``'s directory; any malformed part raises DataError.

    So does a directory whose parts disagree: an event id missing from
    ``users.tsv``/``pois.tsv``, a user there without events, or a manifest
    ``n_users``/``n_pois``/``n_events`` other than what the files hold.
    ``pois.tsv`` names every place, so a place without events is a cold one.
    """
    manifest_path = os.path.join(in_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except OSError as exc:
        raise DataError(f"not a dataset directory (missing {MANIFEST_NAME}): {in_dir}") from exc
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise DataError(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")
    if manifest.get("version") != DATASET_VERSION:
        raise DataError(f"{manifest_path}: dataset version {manifest.get('version')!r}, but only "
                        f"version {DATASET_VERSION} ({EVENTS_NAME}) is read; re-run ingest or synth")
    missing = sorted({"split_ratio", "window", "slots"} - set(manifest))
    if missing:
        raise DataError(f"{manifest_path}: missing {', '.join(missing)}")
    split_ratio, window, slots = manifest["split_ratio"], manifest["window"], manifest["slots"]
    try:
        check_settings(split_ratio, window, slots)
    except ValueError as exc:
        raise DataError(f"{manifest_path}: {exc}") from None
    user_raw = _read_id_map(os.path.join(in_dir, "users.tsv"))
    poi_raw = _read_id_map(os.path.join(in_dir, "pois.tsv"))
    events_path = os.path.join(in_dir, EVENTS_NAME)
    events = _read_events(events_path, len(user_raw), len(poi_raw))
    idle = np.flatnonzero(np.bincount(events.user, minlength=len(user_raw)) == 0)
    if idle.size:
        raise DataError(f"{events_path}: user {user_raw[idle[0]]!r} of users.tsv has no events")
    held = {"n_users": len(user_raw), "n_pois": len(poi_raw), "n_events": len(events)}
    for key, count in held.items():
        if key in manifest and manifest[key] != count:
            raise DataError(f"{manifest_path}: {key} is {manifest[key]!r}, "
                            f"but the directory holds {count}")
    meta = {}
    meta_path = os.path.join(in_dir, "meta.json")
    if os.path.exists(meta_path):
        try:
            with open(meta_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
        except ValueError as exc:
            raise DataError(f"{meta_path}: not valid JSON: {exc}") from exc
    return build_dataset(events, split_ratio, window, slots,
                         user_raw=user_raw, poi_raw=poi_raw, meta=meta)
