"""Fusing the two prediction directions, ranking, metrics, and ablations.

Evaluation walks the test split in teacher-forced fashion: a prediction for a
test event may condition on every true event that happened strictly before it
(any user's), never on predicted ones.  The user-side score rows therefore
advance through test time, while the place-side rows stay frozen at the end of
training history — advancing them would leak the identities being predicted.
"""

from __future__ import annotations

import dataclasses
import json
from typing import NamedTuple

import numpy as np

from . import association
from . import autodiff as ad
from .config import TrainSettings
from .data import DataError, Dataset, SyntheticSpec, generate_synthetic
from .dataset import Grouping
from .poi_net import PoiNet
from .user_net import UserNet


class Wiring(NamedTuple):
    """Which parts a variant uses: each network and each similarity adjustment."""
    user_net: bool
    user_adj: bool
    poi_net: bool
    poi_adj: bool


WIRING = {
    "full": Wiring(True, True, True, True),
    "no_cross_poi": Wiring(True, True, True, False),
    "no_cross_user": Wiring(True, False, True, True),
    "no_user_prediction": Wiring(True, True, False, False),
    "user_net_only": Wiring(True, False, False, False),
    "poi_net_only": Wiring(False, False, True, True),
}
VARIANTS = tuple(WIRING)
ROW_MODES = ("stepwise", "static")      # user-side rows over test time; see evaluate_variants

FUSION_KINDS = ("maxpool", "weighted_add", "multiply", "minpool")


@dataclasses.dataclass(frozen=True)
class FusionStrategy:
    """How the user-side and place-side score for the same (user, place) cell
    combine.  maxpool keeps the larger of the two; equal-weight weighted_add
    ranks as the plain sum."""
    kind: str = "maxpool"
    w_user: float = 0.5
    w_poi: float = 0.5

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ValueError(f"unknown fusion kind {self.kind!r}; expected {FUSION_KINDS}")
        # Stated as what must hold, so that NaN or infinite weights fail it.
        if self.kind == "weighted_add" and not (
                self.w_user >= 0 and self.w_poi >= 0
                and abs(self.w_user + self.w_poi - 1.0) <= 1e-9):
            raise ValueError("weighted_add weights must be finite, non-negative and sum to 1")

    @classmethod
    def parse(cls, text: str) -> "FusionStrategy":
        """E.g. "maxpool" or "weighted_add:0.7,0.3": only weighted_add takes
        weights, exactly two."""
        kind, colon, args = text.partition(":")
        if not colon:
            return cls(text)
        weights = args.split(",")
        if kind != "weighted_add" or len(weights) != 2:
            raise ValueError(f"bad fusion {text!r}: only weighted_add takes weights, exactly two")
        try:
            return cls(kind, *(float(w) for w in weights))
        except ValueError as exc:
            raise ValueError(f"bad fusion {text!r}: {exc}") from exc

    def label(self) -> str:
        if self.kind == "weighted_add":
            return f"weighted_add:{self.w_user:g},{self.w_poi:g}"
        return self.kind


def _combine(user_side: np.ndarray, poi_side: np.ndarray, st: FusionStrategy) -> np.ndarray:
    if st.kind == "maxpool":
        return np.maximum(user_side, poi_side)
    if st.kind == "minpool":
        return np.minimum(user_side, poi_side)
    if st.kind == "multiply":
        return user_side * poi_side
    return st.w_user * user_side + st.w_poi * poi_side


def fuse(s_u_adj: np.ndarray, s_l_adj: np.ndarray,
         strategy: FusionStrategy = FusionStrategy()) -> np.ndarray:
    """Combine a users-by-places matrix with a places-by-users one (transposed)."""
    if s_u_adj.shape != s_l_adj.shape[::-1]:
        raise ValueError(f"shape mismatch: {s_u_adj.shape} vs {s_l_adj.shape} transposed")
    return _combine(s_u_adj, s_l_adj.T, strategy)


# -- ranking and metrics ------------------------------------------------------

def rank_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, descending; ties go to the lower index."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > scores.shape[-1]:
        raise ValueError(f"k={k} exceeds the {scores.shape[-1]} candidates")
    return np.argsort(-scores, kind="stable")[:k]


#: Rows ranked together, one per instance (stepwise) or per owner (static):
#: the block bounds the (rows x candidates) temporaries of ranking.
RANK_BLOCK = 256


def ranks_of_truths(rows: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """1-based rank of each row's true candidate (rows (B, C), truths (B,))
    under the same tie rule as rank_top_k: the candidates scoring higher,
    plus those tied with the truth at a lower index."""
    truths = np.asarray(truths)
    s = rows[np.arange(truths.size), truths][:, None]
    tied_before = (rows == s) & (np.arange(rows.shape[1]) < truths[:, None])
    return np.count_nonzero(rows > s, axis=1) + np.count_nonzero(tied_before, axis=1) + 1


def rank_of_truth(scores: np.ndarray, truth: int) -> int:
    """``ranks_of_truths`` for one row."""
    return int(ranks_of_truths(np.asarray(scores)[None], [truth])[0])


def _blocks(n: int):
    """Index ranges of ``RANK_BLOCK`` instances covering n."""
    return (np.arange(s, min(s + RANK_BLOCK, n)) for s in range(0, n, RANK_BLOCK))


#: Sorting a row of C candidates once costs about as much as counting
#: ``SORT_COST * log2(C)`` gathered rows (``ranks_of_truths``).  Measured on
#: one core with random scores: 1.4 to 1.9 for C from 100 to 3,000, about 2.9
#: for C from 10,000 to 30,000, and 0.7 at C = 30.
SORT_COST = 2.0


def _positions(rows: np.ndarray) -> np.ndarray:
    """Each candidate's 1-based position in its row's ranking: one stable
    descending sort per row, as in rank_top_k.  Rows are sorted a quarter
    block at a time, so that the sorts' temporaries come to one more
    (rows x C) array beside ``rows`` and the result."""
    position = np.empty(rows.shape, dtype=np.int64)
    ranks = np.arange(1, rows.shape[1] + 1)
    step = max(1, RANK_BLOCK // 4)
    for s in range(0, rows.shape[0], step):
        np.put_along_axis(position[s:s + step],
                          np.argsort(-rows[s:s + step], axis=1, kind="stable"), ranks, axis=1)
    return position


def _ranks_by_owner(rows_of, owners: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """``ranks_of_truths`` for instances that read their owner's row: each
    instance's owner (a user or a place) and true candidate, and
    ``rows_of(block)``, the rows of an ascending block of at most
    ``RANK_BLOCK`` distinct owners.

    Each block is ranked the cheaper way for its shape.  When its owners
    average at least ``SORT_COST * log2(C)`` instances, each owner's row is
    sorted once (``_positions``) and every instance reads its truth's
    position there; otherwise each instance's row is gathered and counted,
    ``RANK_BLOCK`` instances at a time.  So many instances per owner cost one
    sort per owner, and owners with few instances over many candidates cost
    no more than counting.  Either way the temporaries are a few (block x C)
    arrays."""
    order = np.argsort(owners, kind="stable")
    present, counts = np.unique(owners, return_counts=True)
    ends = np.cumsum(counts)
    ranks = np.empty(owners.size, dtype=np.int64)
    for lo in range(0, present.size, RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, present.size)
        rows = rows_of(present[lo:hi])
        idx = order[ends[lo] - counts[lo]:ends[hi - 1]]
        local = np.repeat(np.arange(hi - lo), counts[lo:hi])
        if idx.size >= SORT_COST * np.log2(rows.shape[1]) * (hi - lo):
            ranks[idx] = _positions(rows)[local, truths[idx]]
        else:
            for part in _blocks(idx.size):
                ranks[idx[part]] = ranks_of_truths(rows[local[part]], truths[idx[part]])
    return ranks


def _list_ranks(ranked_lists, truths) -> np.ndarray:
    """Each truth's 1-based position in its ranked list, inf where it is missing."""
    if len(ranked_lists) != len(truths):
        raise ValueError("ranked_lists and truths differ in length")
    if len(truths) == 0:
        raise ValueError("empty test set")
    ranks = np.full(len(truths), np.inf)
    for i, (ranking, t) in enumerate(zip(ranked_lists, truths)):
        positions = np.flatnonzero(np.asarray(ranking) == t)
        if positions.size:
            ranks[i] = positions[0] + 1
    return ranks


def acc_at_k(ranked_lists, truths, k: int) -> float:
    return _metrics_from_ranks(_list_ranks(ranked_lists, truths), (k,))["acc"][int(k)]


def mrr(ranked_lists, truths) -> float:
    ranks = _list_ranks(ranked_lists, truths)
    if np.isinf(ranks).any():
        raise ValueError(f"truth {truths[int(np.isinf(ranks).argmax())]} missing from its ranking")
    return _metrics_from_ranks(ranks, ())["mrr"]


def _metrics_from_ranks(ranks: np.ndarray, ks) -> dict:
    return {
        "acc": {int(k): float(np.mean(ranks <= k)) for k in ks},
        "mrr": float(np.mean(1.0 / ranks)),
        "n": int(ranks.size),
    }


# -- teacher-forced score rows ------------------------------------------------

#: The stepwise walk's cross-user rows: the row updates that one
#: ``corr_u[users] @ current`` product is corrected for.  With the block's
#: ``RANK_BLOCK`` instances it bounds the temporaries of one sub-block.
SUB_UPDATES = 64


class _RowStream:
    """Rows of (user, cut) keys, in order, scored as they are read: one
    ``score_states`` call per chunk of at most ``autodiff.HEAD_CELLS // 2``
    cells, so that a walk's two streams hold at most ``HEAD_CELLS``.  Only
    the current chunk is kept; no view of it outlives a call."""

    def __init__(self, net: UserNet, run, users: np.ndarray, cuts: np.ndarray):
        self.net, self.run, self.users, self.cuts = net, run, users, cuts
        self.cap = max(1, ad.HEAD_CELLS // 2 // net.n_pois)
        self.chunk, self.lo, self.pos = None, 0, 0

    def _span(self, end: int) -> tuple[int, slice]:
        """Move past the next positions, up to ``end``, that one chunk holds
        (scoring a new chunk when the current one is used up): the first of
        them, and where their rows lie in the chunk."""
        if self.chunk is None or self.pos == self.lo + len(self.chunk):
            self.chunk, self.lo = None, self.pos
            keys = slice(self.pos, min(self.pos + self.cap, self.users.size))
            self.chunk = self.net.score_states(self.run, self.users[keys], self.cuts[keys])
        at, self.pos = self.pos, min(end, self.lo + len(self.chunk))
        return at, slice(at - self.lo, self.pos - self.lo)

    def take(self, n: int) -> np.ndarray:
        """The next n rows, as one new array."""
        out = np.empty((n, self.net.n_pois))
        start = self.pos
        while self.pos < start + n:
            at, rows = self._span(start + n)
            out[at - start:self.pos - start] = self.chunk[rows]
        return out

    def advance(self, end: int, current: np.ndarray) -> None:
        """Write the rows up to position ``end`` over their users' rows of
        ``current``, in order."""
        while self.pos < end:
            at, rows = self._span(end)
            _set_rows(current, self.users[at:self.pos], self.chunk[rows])


def _set_rows(current: np.ndarray, users: np.ndarray, rows: np.ndarray) -> None:
    """``current[users[k]] = rows[k]`` for each k in turn: a user named twice
    keeps the later row."""
    keep = users.size - 1 - np.unique(users[::-1], return_index=True)[1]
    current[users[keep]] = rows[keep]


def _test_instances(g: Grouping, targets: np.ndarray):
    """The test events of a grouping, by owner and then in test order: each
    one's owner and its entry of ``targets`` (an events column)."""
    owner, _, in_train = g.positions()
    return owner[~in_train], targets[g.order[~in_train]]


class _UserSideRows:
    """Stepwise user-side score rows for every test instance, raw and
    cross-user adjusted.

    The instances are the test events, by user and then in test order:
    ``users``, ``places`` (the truth) and ``times`` hold each one's user,
    place and time.  ``walk`` yields blocks of instances with their own rows
    and, given a similarity matrix, their cross-user adjusted rows.

    ``run_histories`` runs each user's history through the cell once, as far
    as the last cut the walk reads, and the walk scores each cut
    it reads once, when it reaches it (``_RowStream``).  An instance's own row
    sits at the cut before it.  For cross-user rows the walk visits instances
    in time order and keeps a users-by-places matrix holding each user's row
    at their current cut: the cut after a user's event is current for
    instances later than that event and no later than the user's next one,
    so it is read only if such an instance exists (cut 0 only if one comes no
    later than the user's first event).  Every user's row thus reflects
    exactly the true events before the instance.  An own row is read from
    that matrix when it is its user's current row, and scored on its own
    when it is not (the user's previous event has the same time).  The
    adjusted row is ``corr_u[user] @ current``, renormalised: for a
    sub-block of a block's instances, one product at its first instance plus
    ``corr_u[user, v] * (new - old)`` for each of the at most
    ``SUB_UPDATES`` rows v replaced inside it.  Cost: one cell pass per
    history, one head row per cut read, one users-by-places product per
    sub-block.  Memory: the histories' states, the users-by-places matrix and
    one block's rows, plus one chunk of at most ``autodiff.HEAD_CELLS // 2``
    cells per stream of scored rows (current rows, own rows): it does not
    grow with the cuts read.
    """

    def __init__(self, dataset: Dataset, net: UserNet, corr_u: np.ndarray | None):
        self.corr_u = corr_u
        self.net = net
        g, events = dataset.by_user, dataset.events
        owner, rank, in_train = g.positions()
        rows = g.order[~in_train]
        self.users, self.places, self.times = owner[~in_train], events.poi[rows], events.t[rows]
        # Each instance reads its own cut.  users and cuts gather every
        # (user, cut) the walk reads: how far each history must run.
        own_cuts = rank[~in_train]
        self.own = self.users, own_cuts
        users, cuts = self.own
        if corr_u is not None:
            # The cut after grouped event p is read if an instance time lies
            # in (its time, the time of its user's next event]; cut 0 if one
            # lies at or before the user's first event.
            times = events.t[g.order]
            last = rank == np.diff(g.offsets)[owner] - 1
            instants = np.sort(self.times)
            seen = np.searchsorted(instants, times, side="right")
            until = np.where(last, instants.size,
                             np.searchsorted(instants, np.roll(times, -1), side="right"))
            read = np.flatnonzero(until > seen)
            read = read[np.argsort(times[read], kind="stable")]
            starts = np.flatnonzero(np.searchsorted(instants, times[g.offsets[:-1]],
                                                    side="right"))
            # The stream of current rows: cut 0 of each user an instance reads
            # it for, then the cut after each read event, in time order.  A
            # read cut's interval is not empty, so one user's events in the
            # stream have distinct times.
            self.stream = (np.r_[starts, owner[read]],
                           np.r_[np.zeros(starts.size, dtype=np.int64), rank[read] + 1])
            self.order = np.argsort(self.times, kind="stable")
            # The stream rows each instance sees: the events strictly before it.
            self.visible = starts.size + np.searchsorted(times[read], self.times[self.order],
                                                         side="left")
            # Each instance's own row, in time order: its stream position if
            # the stream holds that cut, or -1 and a place in the own stream.
            base = g.offsets[:-1] + np.arange(dataset.n_users)
            own_keys = base[self.users[self.order]] + own_cuts[self.order]
            _, mine, theirs = np.intersect1d(own_keys, base[self.stream[0]] + self.stream[1],
                                             assume_unique=True, return_indices=True)
            self.own_at = np.full(own_keys.size, -1)
            self.own_at[mine] = theirs
            alone = self.order[self.own_at < 0]
            self.own = self.users[alone], own_cuts[alone]
            users, cuts = np.r_[users, self.stream[0]], np.r_[cuts, self.stream[1]]
        self.run = net.run_histories((events, g.order, g.offsets), users, cuts)

    def walk(self):
        """Yield (instance indices, own rows, adjusted rows or None) in blocks
        of at most ``RANK_BLOCK`` instances."""
        n = self.users.size
        own = _RowStream(self.net, self.run, *self.own)
        if self.corr_u is None:
            for idx in _blocks(n):
                yield idx, own.take(idx.size), None
            return
        stream = _RowStream(self.net, self.run, *self.stream)
        updated, visible, own_at = self.stream[0], self.visible, self.own_at
        users = self.users[self.order]
        # A user's row before their first read cut is never read.
        current = np.zeros((self.corr_u.shape[0], self.net.n_pois))
        for block in _blocks(n):
            own_rows = np.empty((block.size, current.shape[1]))
            adjusted = np.empty_like(own_rows)
            j, stop = block[0], block[-1] + 1
            while j < stop:
                # Bring the rows up to instance j, then take the sub-block
                # j..e-1 and the updates inside it.
                vis = visible[j]
                stream.advance(vis, current)
                e = min(stop, np.searchsorted(visible, vis + SUB_UPDATES, side="right"))
                sub = slice(j - block[0], e - block[0])
                us, q, mine = users[j:e], own_at[j:e], own_rows[sub]
                new = stream.take(visible[e - 1] - vis)
                earlier = (q >= 0) & (q < vis)
                mine[earlier] = current[us[earlier]]
                mine[q >= vis] = new[q[q >= vis] - vis]
                mine[q < 0] = own.take(np.count_nonzero(q < 0))
                # Replaced rows: the one before each update, which may be an
                # earlier update of the same user inside the sub-block.
                vs = updated[vis:vis + len(new)]
                old = current[vs]
                by_user = np.argsort(vs, kind="stable")
                again = np.flatnonzero(vs[by_user[1:]] == vs[by_user[:-1]])
                old[by_user[again + 1]] = new[by_user[again]]
                sees = np.arange(vis, vis + vs.size) < visible[j:e, None]
                vec = self.corr_u[us] @ current
                vec += (self.corr_u[np.ix_(us, vs)] * sees) @ (new - old)
                _set_rows(current, vs, new)
                total = vec.sum(axis=1, keepdims=True)
                adjusted[sub] = np.divide(vec, total, out=vec, where=total > 0)
                j = e
            yield self.order[block], own_rows, adjusted


# -- evaluation ---------------------------------------------------------------

def check_fits(dataset: Dataset, net: UserNet | PoiNet) -> None:
    """Refuse a network sized for another dataset's users, places or (for
    the place-side network) time slots."""
    if (net.n_users, net.n_pois) != (dataset.n_users, dataset.n_pois):
        raise DataError(f"{type(net).__name__} was built for {net.n_users} users and "
                        f"{net.n_pois} places; the dataset has {dataset.n_users} users "
                        f"and {dataset.n_pois} places")
    if isinstance(net, PoiNet) and net.n_slots != dataset.slots:
        raise DataError(f"PoiNet was built for {net.n_slots} time slots; "
                        f"the dataset has {dataset.slots}")


def check_has_test_events(dataset: Dataset) -> None:
    """Refuse a dataset whose split keeps every event for training."""
    if dataset.by_user.train_counts.sum() == len(dataset.events):
        raise DataError(f"no test events to evaluate: split ratio {dataset.split_ratio} "
                        "keeps every event for training")


def check_request(n_users: int, n_pois: int, variants, ks, s_u_mode: str,
                  has_user_net: bool = True, has_poi_net: bool = True) -> None:
    """Refuse, with ValueError, an evaluation request that no dataset of
    ``n_users`` users and ``n_pois`` places can serve: an unknown variant or
    user-side mode, no top-k, a top-k below 1 or beyond a variant's
    candidates, or a variant whose wiring needs a network that is not given.
    It reads only sizes, so callers check before any training."""
    if len(ks) == 0 or min(ks) < 1:
        raise ValueError(f"top-k needs one or more values of at least 1, got {tuple(ks)}")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        n_candidates = n_users if variant == "poi_net_only" else n_pois
        if max(ks) > n_candidates:
            raise ValueError(f"top-k {max(ks)} exceeds the {n_candidates} candidates")
        if WIRING[variant].user_net and not has_user_net:
            raise ValueError(f"variant {variant!r} needs a user-side network")
        if WIRING[variant].poi_net and not has_poi_net:
            raise ValueError(f"variant {variant!r} needs a place-side network")
    if s_u_mode not in ROW_MODES:
        raise ValueError(f"unknown user-side mode {s_u_mode!r}")


def evaluate_with_nets(dataset: Dataset, user_net: UserNet | None, poi_net: PoiNet | None,
                       variant: str = "full", fusion: FusionStrategy = FusionStrategy(),
                       ks=(1, 5, 10), corr_u: np.ndarray | None = None,
                       corr_l: np.ndarray | None = None, s_l: np.ndarray | None = None,
                       s_u_mode: str = "stepwise") -> dict:
    """``evaluate_variants`` for one variant: its result dict."""
    return evaluate_variants(dataset, user_net, poi_net, (variant,), fusion, ks,
                             corr_u, corr_l, s_l, s_u_mode)[variant]


def evaluate_variants(dataset: Dataset, user_net: UserNet | None, poi_net: PoiNet | None,
                      variants=VARIANTS, fusion: FusionStrategy = FusionStrategy(),
                      ks=(1, 5, 10), corr_u: np.ndarray | None = None,
                      corr_l: np.ndarray | None = None, s_l: np.ndarray | None = None,
                      s_u_mode: str = "stepwise") -> dict[str, dict]:
    """{variant: metrics} for one trained model pair, in the requested order.

    Every wiring is checked before anything is scored, and a dataset without
    test events raises DataError.  Each part the requested wirings read is
    built at most once: the similarity matrices and place-side rows ``s_l``
    unless given, the cross-place adjustment, and one set of user-side rows.
    ``s_u_mode`` "static" scores one user-side row per user at the end of
    training history (``UserNet.predict_score_matrix``, and one
    ``adjust_user_scores`` product); "stepwise" advances each instance's rows
    through test time (``_UserSideRows``).  Rows that every instance of an
    owner reads, static user rows and the next-visitor task's place rows,
    are ranked by owner (``_ranks_by_owner``); the stepwise walk ranks each
    instance's own rows under every variant, a block of instances at a time.
    Both follow rank_top_k's tie rule.
    A result holds "variant", "fusion", "ranks" (each test event's 1-based
    rank, by user, or place for the next-visitor task, then in test order),
    "n", "acc", "mrr", "per_user" and "unseen": the same metrics over test
    events whose target the user (or place) never saw in training, the cases
    only the association can recover.
    """
    variants = tuple(dict.fromkeys(variants))
    check_request(dataset.n_users, dataset.n_pois, variants, ks, s_u_mode,
                  user_net is not None, poi_net is not None)
    for net in (user_net, poi_net):
        if net is not None:
            check_fits(dataset, net)
    check_has_test_events(dataset)

    # Each part that some requested variant reads.
    used = Wiring(*(any(getattr(WIRING[v], f) for v in variants) for f in Wiring._fields))
    if used.user_adj and corr_u is None:
        corr_u = association.user_similarity(dataset)
    if used.poi_adj and corr_l is None:
        corr_l = association.poi_similarity(dataset)
    if used.poi_net and s_l is None:
        s_l = poi_net.predict_score_matrix(dataset)
    # Place-side rows stay at the end of training history for every instance
    # (see the module docstring), so the cross-place adjustment runs once.
    s_l_adj = association.adjust_poi_scores(corr_l, s_l) if used.poi_adj else None

    results = {}
    if "poi_net_only" in variants:
        results["poi_net_only"] = _evaluate_next_visitor(dataset, s_l_adj, fusion, ks)
    user_side = [v for v in variants if WIRING[v].user_net]
    if user_side:
        # Each user-side variant: whether it reads the adjusted row, and the
        # place-side rows it fuses in (None for none).
        picks = [(WIRING[v].user_adj,
                  s_l_adj if WIRING[v].poi_adj else s_l if WIRING[v].poi_net else None)
                 for v in user_side]

        def fused(rows, users, place_side):
            return rows if place_side is None else _combine(rows, place_side[:, users].T, fusion)

        if s_u_mode == "static":
            # One row per user at the end of training history, which every
            # instance of the user reads: ranked by user.
            owners, truths = _test_instances(dataset.by_user, dataset.events.poi)
            own = user_net.predict_score_matrix(dataset)
            adjusted = association.adjust_user_scores(corr_u, own) if used.user_adj else None
            ranks = np.empty((len(user_side), owners.size), dtype=np.int64)
            for j, (user_adj, place_side) in enumerate(picks):
                table = adjusted if user_adj else own
                ranks[j] = _ranks_by_owner(lambda users: fused(table[users], users, place_side),
                                           owners, truths)
        else:
            user_rows = _UserSideRows(dataset, user_net, corr_u if used.user_adj else None)
            owners, truths = user_rows.users, user_rows.places
            ranks = np.empty((len(user_side), owners.size), dtype=np.int64)
            for idx, own, adjusted in user_rows.walk():
                users = owners[idx]
                for j, (user_adj, place_side) in enumerate(picks):
                    rows = fused(adjusted if user_adj else own, users, place_side)
                    ranks[j, idx] = ranks_of_truths(rows, truths[idx])
        unseen_mask = ~association.seen_in_training(dataset, owners, truths)
        for variant, variant_ranks in zip(user_side, ranks):
            results[variant] = _package(variant, fusion, ks, variant_ranks, unseen_mask, owners)
    return {v: results[v] for v in variants}


def _evaluate_next_visitor(dataset: Dataset, s_l_adj: np.ndarray,
                           fusion: FusionStrategy, ks) -> dict:
    places, users = _test_instances(dataset.by_poi, dataset.events.user)
    ranks = _ranks_by_owner(lambda block: s_l_adj[block], places, users)
    unseen_mask = ~association.seen_in_training(dataset, users, places)
    return _package("poi_net_only", fusion, ks, ranks, unseen_mask, places)


def _package(variant, fusion, ks, ranks, unseen_mask, owners) -> dict:
    """A result dict from each instance's rank, whether its target is unseen,
    and the user (or place) it belongs to."""
    ranks = np.asarray(ranks)
    out = {"variant": variant, "fusion": fusion.label(), "ranks": ranks.tolist()}
    out.update(_metrics_from_ranks(ranks, ks))
    if unseen_mask.any():
        out["unseen"] = _metrics_from_ranks(ranks[unseen_mask], ks)
    else:
        out["unseen"] = {"acc": {int(k): None for k in ks}, "mrr": None, "n": 0}
    entities, counts, means = _owner_means(np.asarray(owners), 1.0 / ranks)
    out["per_user"] = {e: {"n": n, "mrr": m}
                       for e, n, m in zip(entities.tolist(), counts.tolist(), means.tolist())}
    return out


def _owner_means(owners: np.ndarray, values: np.ndarray):
    """Each distinct owner (ascending), its count, and the mean of its
    values, bit for bit ``np.mean`` of each owner's values in input order:
    owners of equal count are stacked and averaged along rows, which sums
    each row as a 1-D mean does (``np.add.reduceat`` and ``np.bincount`` sum
    in another order)."""
    order = np.argsort(owners, kind="stable")
    entities, starts, counts = np.unique(owners[order], return_index=True, return_counts=True)
    grouped = values[order]
    means = np.empty(entities.size)
    for n in np.unique(counts).tolist():
        same = np.flatnonzero(counts == n)
        means[same] = grouped[starts[same, None] + np.arange(n)].mean(axis=1)
    return entities, counts, means


# -- multi-seed reports -------------------------------------------------------

@dataclasses.dataclass
class EvalReport:
    variant: str
    fusion: str
    ks: tuple
    seeds: list
    n_instances: int
    acc: dict
    mrr: float
    unseen_n: int
    unseen_mrr: float | None
    per_seed: list
    per_user: dict

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload.update(ks=list(self.ks), acc={str(k): v for k, v in self.acc.items()},
                       per_user={str(u): v for u, v in self.per_user.items()})
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def text_table(self) -> str:
        header = (f"variant={self.variant} fusion={self.fusion} "
                  f"seeds={','.join(str(s) for s in self.seeds)} n={self.n_instances}")
        cols = [f"Acc@{k}" for k in self.ks] + ["MRR"]
        vals = [f"{self.acc[k]:.4f}" for k in self.ks] + [f"{self.mrr:.4f}"]
        width = max(len(c) for c in cols) + 2
        lines = [header,
                 "".join(c.rjust(width) for c in cols),
                 "".join(v.rjust(width) for v in vals)]
        if self.unseen_n and self.unseen_mrr is not None:
            lines.append(f"unseen-target subset: n={self.unseen_n} MRR={self.unseen_mrr:.4f}")
        return "\n".join(lines) + "\n"


def train_net(kind: str, dataset: Dataset, settings: TrainSettings, seed: int):
    """The ``kind`` ("user" or "poi") network for ``dataset``, initialised from
    child 0 (user) or 1 (place) of ``SeedSequence(seed).spawn(2)`` and trained
    under ``settings`` from ``seed``, and its loss log."""
    user_seed, poi_seed = np.random.SeedSequence(seed).spawn(2)
    if kind == "user":
        net = UserNet(dataset.n_users, dataset.n_pois, settings.dim,
                      alpha=settings.alpha, beta=settings.beta, seed=user_seed)
    else:
        net = PoiNet(dataset.n_users, dataset.n_pois, n_slots=dataset.slots,
                     dim=settings.dim, slot_dim=settings.slot_dim, seed=poi_seed)
    log = net.train(dataset, settings.epochs, seed=seed, lr=settings.lr,
                    optimizer=settings.optimizer, batch_size=settings.batch_size)
    return net, log


def run_battery(source, variants=VARIANTS, fusion: FusionStrategy = FusionStrategy(),
                seeds=(0, 1, 2, 3, 4), settings: TrainSettings = TrainSettings(),
                ks=(1, 5, 10), s_u_mode: str = "stepwise", same_day: bool = False,
                top_k_users: int | None = None, top_k_pois: int | None = None) -> dict[str, "EvalReport"]:
    """Train once per seed, then evaluate every requested variant in one
    ``evaluate_variants`` pass.

    ``source`` is either a fixed Dataset (seeds vary initialization/training)
    or a SyntheticSpec (each seed generates its own dataset too); a request
    the dataset cannot serve (``check_request``) or a dataset without test
    events is refused before any training.  The
    association knobs (``same_day``, ``top_k_users``, ``top_k_pois``) and the
    row protocol are shared by every variant so the comparison stays
    apples-to-apples.
    """
    per_variant: dict[str, list[dict]] = {v: [] for v in variants}
    for seed in seeds:
        dataset = (generate_synthetic(source, seed)
                   if isinstance(source, SyntheticSpec) else source)
        check_request(dataset.n_users, dataset.n_pois, variants, ks, s_u_mode)
        check_has_test_events(dataset)
        user_net, _ = train_net("user", dataset, settings, seed)
        poi_net, _ = train_net("poi", dataset, settings, seed)
        corr_u = association.user_similarity(dataset, same_day=same_day,
                                             top_k=top_k_users)
        corr_l = association.poi_similarity(dataset, top_k=top_k_pois)
        results = evaluate_variants(dataset, user_net, poi_net, variants, fusion, ks,
                                    corr_u=corr_u, corr_l=corr_l, s_u_mode=s_u_mode)
        for variant, result in results.items():
            result["seed"] = seed
            per_variant[variant].append(result)
    return {v: _aggregate(v, fusion, ks, seeds, runs) for v, runs in per_variant.items()}


#: Showcase protocol for the planted-structure battery: offline rows (both
#: networks frozen at the end of training), same-day co-visit user links kept
#: to the three strongest per row, dense place links, and training settings
#: sized to the synthetic data's scale (beta is per km; synthetic zones sit
#: tens of km apart, so the default distance decay would sever them).
BATTERY_PROTOCOL = dict(s_u_mode="static", same_day=True, top_k_users=3, top_k_pois=None)
BATTERY_SETTINGS = TrainSettings(epochs=150, lr=0.01, beta=1.0)


def synthetic_battery(spec: SyntheticSpec | None = None, variants=VARIANTS,
                      fusion: FusionStrategy = FusionStrategy(),
                      seeds=(0, 1, 2, 3, 4),
                      settings: TrainSettings = BATTERY_SETTINGS,
                      ks=(1, 5, 10)) -> dict[str, "EvalReport"]:
    """The planted-structure battery under the showcase protocol."""
    return run_battery(spec if spec is not None else SyntheticSpec(),
                       variants, fusion, seeds, settings, ks, **BATTERY_PROTOCOL)


def single_report(variant: str, fusion: FusionStrategy, ks, result: dict) -> EvalReport:
    """Wrap one variant's evaluation result (e.g. from fixed checkpoints) as a report."""
    run = dict(result)
    run.setdefault("seed", None)
    return _aggregate(variant, fusion, ks, [], [run])


def _aggregate(variant, fusion, ks, seeds, runs: list[dict]) -> EvalReport:
    def seed_mean(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    # Each owner's entries in run order; owners in order of first appearance.
    owners = np.array([int(u) for run in runs for u in run["per_user"]], dtype=np.int64)
    entries = [entry for run in runs for entry in run["per_user"].values()]
    totals = np.zeros(owners.max(initial=-1) + 1, dtype=np.int64)
    np.add.at(totals, owners, [entry["n"] for entry in entries])
    users, _, means = _owner_means(owners, np.array([e["mrr"] for e in entries], dtype=float))
    by_user = {u: {"n": n, "mrr": m}
               for u, n, m in zip(users.tolist(), totals[users].tolist(), means.tolist())}
    per_user = {u: by_user[u] for u in dict.fromkeys(owners.tolist())}

    return EvalReport(
        variant=variant,
        fusion=fusion.label(),
        ks=tuple(int(k) for k in ks),
        seeds=list(seeds),
        n_instances=sum(run["n"] for run in runs),
        acc={int(k): seed_mean([run["acc"][k] for run in runs]) for k in ks},
        mrr=seed_mean([run["mrr"] for run in runs]),
        unseen_n=sum(run["unseen"]["n"] for run in runs),
        unseen_mrr=seed_mean([run["unseen"]["mrr"] for run in runs]),
        per_seed=[{
            "seed": run["seed"], "n": run["n"], "mrr": run["mrr"],
            "acc": {str(k): v for k, v in run["acc"].items()},
            "unseen_n": run["unseen"]["n"], "unseen_mrr": run["unseen"]["mrr"],
        } for run in runs],
        per_user=per_user,
    )


# -- motivation statistics ----------------------------------------------------

STAT_KINDS = ("visit_counts", "temporal_density", "user_sim_vs_common", "poi_sim_vs_common")


def motivation_stats(dataset: Dataset, which: str):
    """Tabular summaries of the phenomena the model design leans on.

    Returns (header, rows).  visit_counts: how many users visited each place
    at least <threshold> times; temporal_density: per-place visit share by
    (slot, weekday); *_sim_vs_common: paired samples of similarity against the
    raw common-element count over the training split, for correlation
    inspection.  Every row holds Python ints and floats.
    """
    events, n_users, n_pois = dataset.events, dataset.n_users, dataset.n_pois
    if which == "visit_counts":
        header = ("poi", "threshold", "n_users")
        # A place's visitor with c visits there reaches thresholds 1..c.
        pair, visits = np.unique(events.poi * n_users + events.user, return_counts=True)
        poi = np.repeat(pair // n_users, visits)
        threshold = np.arange(poi.size) - np.repeat(np.cumsum(visits) - visits, visits) + 1
        span = visits.max() + 1
        cell, n = np.unique(poi * span + threshold, return_counts=True)
        poi, threshold = np.divmod(cell, span)
        return header, list(zip(poi.tolist(), threshold.tolist(), n.tolist()))
    if which == "temporal_density":
        header = ("poi", "slot", "weekday", "density")
        cell, count = np.unique((events.poi * dataset.slots + events.slot) * 7 + events.weekday,
                                return_counts=True)
        poi, slot, weekday = cell // (7 * dataset.slots), cell // 7 % dataset.slots, cell % 7
        density = count / np.bincount(events.poi, minlength=n_pois)[poi]
        return header, list(zip(poi.tolist(), slot.tolist(), weekday.tolist(),
                                density.tolist()))
    if which == "user_sim_vs_common":
        header = ("user_m", "user_n", "similarity", "common_pois")
        corr, common = association.user_similarity(dataset), association.shared_places(dataset)
        m, n = np.nonzero(~np.eye(n_users, dtype=bool))
        return header, list(zip(m.tolist(), n.tolist(), corr[m, n].tolist(),
                                common[m, n].tolist()))
    if which == "poi_sim_vs_common":
        header = ("poi_m", "poi_n", "similarity", "common_users")
        corr, common = association.poi_similarity(dataset), association.shared_visitors(dataset)
        m, n = np.triu_indices(n_pois, 1)
        return header, list(zip(m.tolist(), n.tolist(), corr[m, n].tolist(),
                                common[m, n].tolist()))
    raise ValueError(f"unknown statistic {which!r}; expected one of {STAT_KINDS}")


def case_report(dataset: Dataset, user_net: UserNet, poi_net: PoiNet,
                user: int, poi: int, k: int = 5) -> dict:
    """Inspectable snapshot for one user and one place: top candidates from
    each network and their most similar neighbors (None where the dataset has
    no other user or place), with raw ids."""
    corr_u = association.user_similarity(dataset)
    corr_l = association.poi_similarity(dataset)
    history = dataset.by_user.history(user)
    s_u_row = user_net.score_rows_at_cuts(dataset.events.take(history), user,
                                          [history.size])[0]
    history = dataset.by_poi.history(poi)
    s_l_row = poi_net.score_rows_at_cuts(dataset.events.take(history), poi,
                                         [history.size])[0]
    top_pois = rank_top_k(s_u_row, k)
    top_users = rank_top_k(s_l_row, k)

    def most_similar(corr, own, raw, field):
        if corr.shape[0] < 2:
            return None
        others = np.where(np.arange(corr.shape[0]) == own, -np.inf, corr[own])
        other = int(rank_top_k(others, 1)[0])
        return {field: raw[other], "similarity": float(corr[own, other])}

    return {
        "user": dataset.user_raw[user],
        "poi": dataset.poi_raw[poi],
        "top_pois_for_user": [
            {"poi": dataset.poi_raw[p], "score": float(s_u_row[p])} for p in top_pois],
        "top_users_for_poi": [
            {"user": dataset.user_raw[u], "score": float(s_l_row[u])} for u in top_users],
        "most_similar_user": most_similar(corr_u, user, dataset.user_raw, "user"),
        "most_similar_poi": most_similar(corr_l, poi, dataset.poi_raw, "poi"),
    }
