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
from .data import DataError, Dataset, SyntheticSpec, generate_synthetic
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

FUSION_KINDS = ("maxpool", "weighted_add", "multiply", "minpool", "sum")


@dataclasses.dataclass(frozen=True)
class FusionStrategy:
    """How the user-side and place-side score for the same (user, place) cell
    combine.  maxpool keeps the larger of the two; "sum" is the plain additive
    reading kept for comparison (it ranks identically to equal-weight
    weighted_add)."""
    kind: str = "maxpool"
    w_user: float = 0.5
    w_poi: float = 0.5

    def __post_init__(self):
        if self.kind not in FUSION_KINDS:
            raise ValueError(f"unknown fusion kind {self.kind!r}; expected {FUSION_KINDS}")
        if self.kind == "weighted_add":
            if self.w_user < 0 or self.w_poi < 0 or abs(self.w_user + self.w_poi - 1.0) > 1e-9:
                raise ValueError("weighted_add weights must be non-negative and sum to 1")

    @classmethod
    def parse(cls, text: str) -> "FusionStrategy":
        """E.g. "maxpool" or "weighted_add:0.7,0.3"."""
        if ":" in text:
            kind, _, args = text.partition(":")
            w_user, w_poi = (float(x) for x in args.split(","))
            return cls(kind, w_user, w_poi)
        return cls(text)

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
    if st.kind == "weighted_add":
        return st.w_user * user_side + st.w_poi * poi_side
    return user_side + poi_side


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


def rank_of_truth(scores: np.ndarray, truth: int) -> int:
    """1-based rank of the true candidate under the same tie rule as rank_top_k."""
    s = scores[truth]
    better = int(np.count_nonzero(scores > s))
    tied_before = int(np.count_nonzero((scores == s) & (np.arange(len(scores)) < truth)))
    return better + tied_before + 1


def acc_at_k(ranked_lists, truths, k: int) -> float:
    if len(ranked_lists) != len(truths):
        raise ValueError("ranked_lists and truths differ in length")
    if not truths:
        raise ValueError("empty test set")
    hits = sum(1 for ranking, t in zip(ranked_lists, truths) if t in list(ranking[:k]))
    return hits / len(truths)


def mrr(ranked_lists, truths) -> float:
    if len(ranked_lists) != len(truths):
        raise ValueError("ranked_lists and truths differ in length")
    if not truths:
        raise ValueError("empty test set")
    total = 0.0
    for ranking, t in zip(ranked_lists, truths):
        positions = np.flatnonzero(np.asarray(ranking) == t)
        if positions.size == 0:
            raise ValueError(f"truth {t} missing from its ranking")
        total += 1.0 / (positions[0] + 1)
    return total / len(truths)


def _metrics_from_ranks(ranks: np.ndarray, ks) -> dict:
    return {
        "acc": {int(k): float(np.mean(ranks <= k)) for k in ks},
        "mrr": float(np.mean(1.0 / ranks)),
        "n": int(ranks.size),
    }


# -- teacher-forced score rows ------------------------------------------------

class _UserSideRows:
    """User-side score rows for every test instance, raw and cross-user adjusted.

    ``instances`` lists the test events as (user, test index, event) in that
    order; ``walk`` yields each instance's index into it with the user's own
    row and, given a similarity matrix, the cross-user adjusted row.

    static: one row per user at the end of training history
    (``UserNet.predict_score_matrix``) and one ``adjust_user_scores`` product.

    stepwise: a user's rows at the cuts of their history come from one
    ``score_rows_at_cuts`` call: at every cut for cross-user rows, and only at
    the cuts before test events otherwise.  For cross-user rows the walk
    visits instances in time order and keeps a users-by-places matrix holding
    each user's row at their current cut: a user's events with time strictly
    before the instance's advance that row, so every user's row reflects
    exactly the true events before the instance.  The adjusted row is
    ``corr_u[user] @ current``, renormalised.  Cost: linear in events to
    advance the rows, plus one users-by-places product per instance; no
    per-instance row is kept.
    """

    def __init__(self, dataset: Dataset, net: UserNet, corr_u: np.ndarray | None,
                 mode: str = "stepwise"):
        if mode not in ("stepwise", "static"):
            raise ValueError(f"unknown user-side mode {mode!r}")
        self.corr_u = corr_u
        self.mode = mode
        self.instances = [(u, k, e) for u in range(dataset.n_users)
                          for k, e in enumerate(dataset.test[u])]
        if mode == "static":
            self.static = net.predict_score_matrix(dataset)
            self.static_adj = (association.adjust_user_scores(corr_u, self.static)
                               if corr_u is not None else None)
            return
        self.events = [dataset.train[u] + dataset.test[u] for u in range(dataset.n_users)]
        self.train_len = [len(t) for t in dataset.train]
        # Own rows sit at the cut before each test event; cross-user rows can
        # sit at any cut, as another user's instance may follow any event.
        if corr_u is None:
            self.first_cut = self.train_len
            cuts = [range(first, len(evs)) for first, evs in zip(self.first_cut, self.events)]
        else:
            self.first_cut = [0] * dataset.n_users
            cuts = [range(len(evs) + 1) for evs in self.events]
        self.cut_rows = [net.score_rows_at_cuts(evs, u, user_cuts)
                         for u, (evs, user_cuts) in enumerate(zip(self.events, cuts))]

    def walk(self):
        """Yield (instance index, own row, adjusted row or None)."""
        if self.mode == "static":
            for i, (u, _, _) in enumerate(self.instances):
                yield i, self.static[u], (self.static_adj[u]
                                          if self.static_adj is not None else None)
            return
        if self.corr_u is None:
            for i, (u, k, _) in enumerate(self.instances):
                yield i, self._own_row(u, k), None
            return
        # Every event as (time, user, cut after it), in time order; a stable
        # sort keeps each user's events in cut order among equal times.
        times = np.array([e.t for evs in self.events for e in evs], dtype=np.int64)
        users = np.repeat(np.arange(len(self.events)), [len(evs) for evs in self.events])
        cuts = np.concatenate([np.arange(1, len(evs) + 1) for evs in self.events])
        order = np.argsort(times, kind="stable")
        times, users, cuts = times[order], users[order].tolist(), cuts[order].tolist()
        inst_t = np.array([e.t for _, _, e in self.instances], dtype=np.int64)
        inst_order = np.argsort(inst_t, kind="stable")
        # Events strictly before each instance, as a prefix of the stream.
        visible = np.searchsorted(times, inst_t[inst_order], side="left").tolist()
        current = np.stack([rows[0] for rows in self.cut_rows])
        applied = 0
        for i, upto in zip(inst_order.tolist(), visible):
            for v, cut in zip(users[applied:upto], cuts[applied:upto]):
                current[v] = self.cut_rows[v][cut]
            applied = upto
            u, k, _ = self.instances[i]
            vec = self.corr_u[u] @ current
            total = vec.sum()
            yield i, self._own_row(u, k), (vec / total if total > 0 else vec)

    def _own_row(self, user: int, test_index: int) -> np.ndarray:
        return self.cut_rows[user][self.train_len[user] + test_index - self.first_cut[user]]


# -- single evaluation --------------------------------------------------------

def check_fits(dataset: Dataset, net: UserNet | PoiNet) -> None:
    """Refuse a network sized for another dataset's users or places."""
    if (net.n_users, net.n_pois) != (dataset.n_users, dataset.n_pois):
        raise DataError(f"{type(net).__name__} was built for {net.n_users} users and "
                        f"{net.n_pois} places; the dataset has {dataset.n_users} users "
                        f"and {dataset.n_pois} places")


def evaluate_with_nets(dataset: Dataset, user_net: UserNet | None, poi_net: PoiNet | None,
                       variant: str = "full", fusion: FusionStrategy = FusionStrategy(),
                       ks=(1, 5, 10), corr_u: np.ndarray | None = None,
                       corr_l: np.ndarray | None = None, s_l: np.ndarray | None = None,
                       s_u_mode: str = "stepwise") -> dict:
    """Metrics for one trained model pair under one variant wiring.

    Returns {"variant", "fusion", "ranks", "n", "acc", "mrr", "unseen",
    "per_user"}; "ranks" holds each test event's 1-based rank, by user (or
    place, for the next-visitor task) and then in test order.  The "unseen"
    block restricts to test events whose target the user (or place) never saw
    in training — the cases only the association can recover.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    n_candidates = dataset.n_users if variant == "poi_net_only" else dataset.n_pois
    if max(ks) > n_candidates:
        raise ValueError(f"top-k {max(ks)} exceeds the {n_candidates} candidates")
    wiring = WIRING[variant]
    if wiring.user_net and user_net is None:
        raise ValueError(f"variant {variant!r} needs a user-side network")
    if wiring.poi_net and poi_net is None:
        raise ValueError(f"variant {variant!r} needs a place-side network")
    for net in (user_net, poi_net):
        if net is not None:
            check_fits(dataset, net)
    if wiring.user_adj and corr_u is None:
        corr_u = association.user_similarity(dataset)
    if wiring.poi_adj and corr_l is None:
        corr_l = association.poi_similarity(dataset)

    # Place-side rows stay at the end of training history for every instance
    # (see the module docstring), so the cross-place adjustment runs once.
    if wiring.poi_net:
        if s_l is None:
            s_l = poi_net.predict_score_matrix(dataset)
        if wiring.poi_adj:
            s_l = association.adjust_poi_scores(corr_l, s_l)
    if variant == "poi_net_only":
        return _evaluate_next_visitor(dataset, s_l, variant, fusion, ks)

    user_rows = _UserSideRows(dataset, user_net, corr_u if wiring.user_adj else None, s_u_mode)
    train_sets = dataset.train_poi_sets()
    instances = user_rows.instances
    ranks = np.empty(len(instances), dtype=np.int64)
    for i, own, adjusted in user_rows.walk():
        u, _, event = instances[i]
        row = adjusted if wiring.user_adj else own
        if wiring.poi_net:
            row = _combine(row, s_l[:, u], fusion)
        ranks[i] = rank_of_truth(row, event.poi)
    unseen_mask = [event.poi not in train_sets[u] for u, _, event in instances]
    per_user_ranks = {}
    for (u, _, _), rank in zip(instances, ranks.tolist()):
        per_user_ranks.setdefault(u, []).append(rank)
    return _package(variant, fusion, ks, ranks, unseen_mask, per_user_ranks)


def _evaluate_next_visitor(dataset: Dataset, s_l_adj: np.ndarray, variant: str,
                           fusion: FusionStrategy, ks) -> dict:
    train_visitors = [{e.user for e in evs} for evs in dataset.poi_train]
    ranks, unseen_mask, per_poi_ranks = [], [], {}
    for p in range(dataset.n_pois):
        for event in dataset.poi_test[p]:
            rank = rank_of_truth(s_l_adj[p], event.user)
            ranks.append(rank)
            unseen_mask.append(event.user not in train_visitors[p])
            per_poi_ranks.setdefault(p, []).append(rank)
    return _package(variant, fusion, ks, ranks, unseen_mask, per_poi_ranks)


def _package(variant, fusion, ks, ranks, unseen_mask, per_entity_ranks) -> dict:
    ranks = np.asarray(ranks)
    unseen_mask = np.asarray(unseen_mask, dtype=bool)
    out = {"variant": variant, "fusion": fusion.label(), "ranks": ranks.tolist()}
    out.update(_metrics_from_ranks(ranks, ks))
    if unseen_mask.any():
        out["unseen"] = _metrics_from_ranks(ranks[unseen_mask], ks)
    else:
        out["unseen"] = {"acc": {int(k): None for k in ks}, "mrr": None, "n": 0}
    out["per_user"] = {int(e): {"n": len(r), "mrr": float(np.mean(1.0 / np.asarray(r)))}
                       for e, r in sorted(per_entity_ranks.items())}
    return out


# -- multi-seed reports -------------------------------------------------------

@dataclasses.dataclass
class TrainSettings:
    dim: int = 10
    slot_dim: int = 4
    alpha: float = 0.1
    beta: float = 100.0
    epochs: int = 150
    lr: float = 1e-3
    optimizer: str = "adam"
    batch_size: int | None = None


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
        payload = dataclasses.asdict(self)
        payload["ks"] = list(self.ks)
        payload["acc"] = {str(k): v for k, v in self.acc.items()}
        payload["per_user"] = {str(u): v for u, v in self.per_user.items()}
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


def train_nets(dataset: Dataset, settings: TrainSettings, seed: int):
    """Train both networks with independent streams derived from one seed."""
    u_seed, p_seed = np.random.SeedSequence(seed).spawn(2)
    user_net = UserNet(dataset.n_users, dataset.n_pois, settings.dim,
                       alpha=settings.alpha, beta=settings.beta, seed=u_seed)
    user_log = user_net.train(dataset, settings.epochs, seed=seed, lr=settings.lr,
                              optimizer=settings.optimizer, batch_size=settings.batch_size)
    poi_net = PoiNet(dataset.n_users, dataset.n_pois, n_slots=dataset.slots,
                     dim=settings.dim, slot_dim=settings.slot_dim, seed=p_seed)
    poi_log = poi_net.train(dataset, settings.epochs, seed=seed, lr=settings.lr,
                            optimizer=settings.optimizer, batch_size=settings.batch_size)
    return user_net, poi_net, {"user": user_log, "poi": poi_log}


def run_battery(source, variants=VARIANTS, fusion: FusionStrategy = FusionStrategy(),
                seeds=(0, 1, 2, 3, 4), settings: TrainSettings = TrainSettings(),
                ks=(1, 5, 10), s_u_mode: str = "stepwise", same_day: bool = False,
                top_k_users: int | None = None, top_k_pois: int | None = None) -> dict[str, "EvalReport"]:
    """Train once per seed, evaluate every requested variant from shared parts.

    ``source`` is either a fixed Dataset (seeds vary initialization/training)
    or a SyntheticSpec (each seed generates its own dataset too).  The
    association knobs (``same_day``, ``top_k_users``, ``top_k_pois``) and the
    row protocols are threaded through to every variant so the comparison
    stays apples-to-apples.
    """
    per_variant: dict[str, list[dict]] = {v: [] for v in variants}
    for seed in seeds:
        dataset = (generate_synthetic(source, seed)
                   if isinstance(source, SyntheticSpec) else source)
        user_net, poi_net, _ = train_nets(dataset, settings, seed)
        corr_u = association.user_similarity(dataset, same_day=same_day,
                                             top_k=top_k_users)
        corr_l = association.poi_similarity(dataset, top_k=top_k_pois)
        s_l = poi_net.predict_score_matrix(dataset)
        for variant in variants:
            result = evaluate_with_nets(dataset, user_net, poi_net, variant, fusion,
                                        ks=ks, corr_u=corr_u, corr_l=corr_l, s_l=s_l,
                                        s_u_mode=s_u_mode)
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
                      settings: TrainSettings | None = None,
                      ks=(1, 5, 10)) -> dict[str, "EvalReport"]:
    """The planted-structure battery under the showcase protocol."""
    return run_battery(spec if spec is not None else SyntheticSpec(),
                       variants, fusion, seeds,
                       settings if settings is not None else BATTERY_SETTINGS,
                       ks, **BATTERY_PROTOCOL)


def single_report(variant: str, fusion: FusionStrategy, ks, result: dict) -> EvalReport:
    """Wrap one evaluate_with_nets result (e.g. from fixed checkpoints) as a report."""
    run = dict(result)
    run.setdefault("seed", None)
    return _aggregate(variant, fusion, ks, [], [run])


def _aggregate(variant, fusion, ks, seeds, runs: list[dict]) -> EvalReport:
    def seed_mean(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    per_user: dict[int, dict] = {}
    for run in runs:
        for u, entry in run["per_user"].items():
            agg = per_user.setdefault(int(u), {"n": 0, "_rrs": []})
            agg["n"] += entry["n"]
            agg["_rrs"].append(entry["mrr"])
    for agg in per_user.values():
        agg["mrr"] = float(np.mean(agg.pop("_rrs")))

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
    raw common-element count, for correlation inspection.
    """
    if which == "visit_counts":
        header = ("poi", "threshold", "n_users")
        rows = []
        for p in range(dataset.n_pois):
            counts: dict[int, int] = {}
            for evs in (dataset.poi_train[p], dataset.poi_test[p]):
                for e in evs:
                    counts[e.user] = counts.get(e.user, 0) + 1
            top = max(counts.values(), default=0)
            for threshold in range(1, top + 1):
                n = sum(1 for c in counts.values() if c >= threshold)
                rows.append((p, threshold, n))
        return header, rows
    if which == "temporal_density":
        header = ("poi", "slot", "weekday", "density")
        rows = []
        for p in range(dataset.n_pois):
            grid: dict[tuple[int, int], int] = {}
            total = 0
            for evs in (dataset.poi_train[p], dataset.poi_test[p]):
                for e in evs:
                    grid[(e.slot, e.weekday)] = grid.get((e.slot, e.weekday), 0) + 1
                    total += 1
            for (slot, weekday), count in sorted(grid.items()):
                rows.append((p, slot, weekday, count / total))
        return header, rows
    if which == "user_sim_vs_common":
        header = ("user_m", "user_n", "similarity", "common_pois")
        corr = association.user_similarity(dataset)
        sets = dataset.train_poi_sets()
        rows = [(m, n, float(corr[m, n]), len(sets[m] & sets[n]))
                for m in range(dataset.n_users) for n in range(dataset.n_users) if m != n]
        return header, rows
    if which == "poi_sim_vs_common":
        header = ("poi_m", "poi_n", "similarity", "common_users")
        corr = association.poi_similarity(dataset)
        visitors = [{e.user for e in evs} for evs in dataset.poi_train]
        rows = [(m, n, float(corr[m, n]), len(visitors[m] & visitors[n]))
                for m in range(dataset.n_pois) for n in range(m + 1, dataset.n_pois)]
        return header, rows
    raise ValueError(f"unknown statistic {which!r}; expected one of {STAT_KINDS}")


def case_report(dataset: Dataset, user_net: UserNet, poi_net: PoiNet,
                user: int, poi: int, k: int = 5,
                corr_u: np.ndarray | None = None, corr_l: np.ndarray | None = None) -> dict:
    """Inspectable snapshot for one user and one place: top candidates from
    each network and their most similar neighbors, with raw ids."""
    if corr_u is None:
        corr_u = association.user_similarity(dataset)
    if corr_l is None:
        corr_l = association.poi_similarity(dataset)
    s_u_row = user_net.score_rows_at_cuts(dataset.train[user], user,
                                          [len(dataset.train[user])])[0]
    s_l_row = poi_net.score_rows_at_cuts(dataset.poi_train[poi], poi,
                                         [len(dataset.poi_train[poi])])[0]
    top_pois = rank_top_k(s_u_row, k)
    top_users = rank_top_k(s_l_row, k)
    neighbor_u = rank_top_k(np.where(np.arange(dataset.n_users) == user, -np.inf, corr_u[user]), 1)[0]
    neighbor_p = rank_top_k(np.where(np.arange(dataset.n_pois) == poi, -np.inf, corr_l[poi]), 1)[0]
    return {
        "user": dataset.user_raw[user],
        "poi": dataset.poi_raw[poi],
        "top_pois_for_user": [
            {"poi": dataset.poi_raw[p], "score": float(s_u_row[p])} for p in top_pois],
        "top_users_for_poi": [
            {"user": dataset.user_raw[u], "score": float(s_l_row[u])} for u in top_users],
        "most_similar_user": {"user": dataset.user_raw[int(neighbor_u)],
                              "similarity": float(corr_u[user, int(neighbor_u)])},
        "most_similar_poi": {"poi": dataset.poi_raw[int(neighbor_p)],
                             "similarity": float(corr_l[poi, int(neighbor_p)])},
    }
