"""The three workloads: their inputs, one round of calls into the program, and
the checks on that round's outputs.

A round attempts the same operations every time.  Its program calls are timed;
its checks run afterwards, outside the timing and with tracing paused.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import time
from collections import Counter

import numpy as np

import checks
import reference
from tracing import peak_rss_mb

MIN_RECORDS = 100          # ingest's default activity threshold
SPLIT_RATIO = 0.8          # ingest's default chronological split
STEPWISE_SAMPLE = 3        # users whose stepwise MRR is recomputed on scale-10x


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict             # SyntheticSpec overrides
    setups: int            # set-ups before the rounds, and again after them
    inactive_users: int = 0
    malformed_per_mille: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("battery-1x", {}, setups=8),
        Workload("scale-10x", {"n_users": 400, "n_pois": 300, "n_zones": 30}, setups=3),
        Workload("pipeline-cli", {"n_users": 160, "n_pois": 120, "n_zones": 12},
                 setups=4, inactive_users=8, malformed_per_mille=5),
    )
}


@dataclasses.dataclass
class Inputs:
    """What set-up wrote, as the checks need it."""
    raw_path: str
    n_malformed: int
    expected: Counter      # kept users' (user, time, lat, lon, place) tuples
    n_users_kept: int


# -- set-up ------------------------------------------------------------------

def _inactive_records(nl, dataset, count: int, rng):
    """Extra users below the activity threshold, at existing places and times."""
    places = {r.poi: (r.lat, r.lon) for r in dataset.records}
    poi_ids = sorted(places)
    t_lo, t_hi = dataset.records[0].t, dataset.records[-1].t
    out = []
    for k in range(count):
        user = dataset.n_users + k
        for _ in range(int(rng.integers(10, MIN_RECORDS))):
            p = poi_ids[int(rng.integers(0, len(poi_ids)))]
            out.append(nl.data.CheckIn(user, int(rng.integers(t_lo, t_hi)), *places[p], p))
    return out


def _malformed_lines(count: int, user_raw, poi_raw, rng) -> list[str]:
    """Lines the parser must count as malformed: one of four faults each."""
    lines = []
    for k in range(count):
        user = user_raw[int(rng.integers(0, len(user_raw)))]
        poi = poi_raw[int(rng.integers(0, len(poi_raw)))]
        when = "2010-02-01T12:00:00Z"
        lines.append([
            f"{user}\t{when}\t40.0",                    # too few fields
            f"{user}\tnot-a-time\t40.0\t-75.0\t{poi}",  # unparseable time
            f"{user}\t{when}\t95.5\t-75.0\t{poi}",      # latitude out of range
            f"{user}\t{when}\t40.0\teast\t{poi}",       # non-numeric longitude
        ][k % 4])
    return lines


def set_up(nl, workload: Workload, seed: int, raw_path: str):
    """Generate the check-ins and write the raw gowalla file; returns what the
    checks need (computed after the timed part by ``describe_inputs``)."""
    spec = nl.data.SyntheticSpec(**workload.spec)
    dataset = nl.data.generate_synthetic(spec, seed)
    records, user_raw = dataset.records, list(dataset.user_raw)
    bad: list[str] = []
    if workload.inactive_users or workload.malformed_per_mille:
        rng = np.random.default_rng([seed, 1])
        extra = _inactive_records(nl, dataset, workload.inactive_users, rng)
        records = sorted(records + extra, key=lambda r: r.t)
        user_raw += [f"x{k:03d}" for k in range(workload.inactive_users)]
        bad = _malformed_lines(len(records) * workload.malformed_per_mille // 1000,
                               user_raw, dataset.poi_raw, rng)
    nl.data.write_checkin_file(raw_path, records, user_raw, dataset.poi_raw)
    if bad:
        with open(raw_path, "a", encoding="utf-8") as f:
            f.write("\n".join(bad) + "\n")
    return records, user_raw, dataset.poi_raw, len(bad)


def describe_inputs(raw_path, records, user_raw, poi_raw, n_malformed) -> Inputs:
    per_user = Counter(r.user for r in records)
    kept = {u for u, n in per_user.items() if n >= MIN_RECORDS}
    expected = Counter((user_raw[r.user], r.t, r.lat, r.lon, poi_raw[r.poi])
                       for r in records if r.user in kept)
    return Inputs(raw_path, n_malformed, expected, len(kept))


# -- one round ----------------------------------------------------------------

class Round:
    """Timed calls into the program.  A call that raises or exits non-zero
    ends the run, so every reported round completed all its operations."""

    def __init__(self, nl, tracer, probe, work_dir: str):
        self.nl = nl
        self.tracer = tracer
        self.probe = probe
        self.work_dir = work_dir
        self.attempted = 0
        self.times: dict[str, list[float]] = {}
        self.rss: dict[str, float] = {}

    def call(self, label: str, fn, *args, **kwargs):
        """Time one operation, starting from a collected heap so that garbage
        left by earlier calls or by the checks is not charged to it."""
        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times.setdefault(label, []).append(time.perf_counter() - start)
        return result

    def cli(self, argv: list[str]) -> str:
        """Run one ``nextloc`` command in-process; returns what it printed."""
        command = argv[0]
        out = io.StringIO()

        def run():
            # The span opens inside ``call``, after its collection.
            sid = self.tracer.begin(f"cli.{command}") if self.tracer else None
            try:
                with contextlib.redirect_stdout(out):
                    return self.nl.cli.main(argv)
            finally:
                if self.tracer:
                    self.tracer.end(sid)

        code = self.call(command, run)
        if code != 0:
            raise RuntimeError(f"nextloc {' '.join(argv)} exited {code}")
        return out.getvalue()

    def mark(self, phase: str) -> None:
        self.rss[phase] = peak_rss_mb()

    @property
    def run_s(self) -> float:
        """Wall time of the round's calls into the program, back to back."""
        return sum(sum(times) for times in self.times.values())

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


def _printed_counts(text: str) -> dict:
    first = text.splitlines()[0]
    return {k: int(v) for k, v in (item.split("=") for item in first.split())}


def _ingest_and_load(r: Round, inputs: Inputs):
    printed = r.cli(["ingest", "--input", inputs.raw_path, "--min-records",
                     str(MIN_RECORDS), "--out", r.path("dataset")])
    r.mark("ingest")
    dataset = r.call("load", r.nl.data.load_dataset, r.path("dataset"))
    r.mark("load")
    return _printed_counts(printed), dataset


def _report_from_battery(report) -> dict:
    return {"mrr": report.mrr, "acc": dict(report.acc), "n": report.n_instances,
            "unseen_mrr": report.unseen_mrr,
            "per_user": {int(u): v["mrr"] for u, v in report.per_user.items()}}


def _report_from_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    return {"mrr": report["mrr"], "acc": {int(k): v for k, v in report["acc"].items()},
            "n": report["n_instances"], "unseen_mrr": report["unseen_mrr"],
            "per_user": {int(u): v["mrr"] for u, v in report["per_user"].items()}}


def _window_rows(windows) -> int:
    return sum(len(w) - 1 for w in windows)


@dataclasses.dataclass
class Outcome:
    """One round's end-to-end figures and the outputs its checks read."""
    figures: dict
    verify: object         # callable running the round's checks


def _figures(r: Round, inputs: Inputs, dataset, train_calls, eval_s, reports) -> dict:
    train_rows = sum(_window_rows(dataset.user_windows if c.kind == "user"
                                  else dataset.poi_windows) * len(c.log) for c in train_calls)
    logs = {c.kind: c.log for c in train_calls}
    return {
        "run_s": r.run_s,
        "train_rows_per_s": train_rows / sum(c.seconds for c in train_calls),
        "eval_instances_per_s": sum(rep["n"] for rep in reports.values()) / eval_s,
        "mrr_full": reports["full"]["mrr"],
        "unseen_mrr_full": reports["full"]["unseen_mrr"],
        "user_loss_final": logs["user"][-1],
        "poi_loss_final": logs["poi"][-1],
    }


def _check_common(nl, inputs, dataset, printed, train_calls, reports):
    checks.ingest(dataset, inputs.expected, printed, inputs.n_malformed,
                  inputs.n_users_kept, SPLIT_RATIO)
    for call in train_calls:
        checks.losses(f"{call.kind} training", call.log,
                      dataset.n_pois if call.kind == "user" else dataset.n_users)
    n_test = sum(len(t) for t in dataset.test)
    for variant, report in reports.items():
        checks.report_properties(variant, report, n_test)


def _reference_similarities(dataset, same_day, k_users, normalize="global", k_pois=None):
    users, places, times = reference.train_arrays(dataset.train)
    return (reference.user_similarity(users, places, times, dataset.n_users, same_day, k_users),
            reference.poi_similarity(users, places, times, dataset.n_pois, normalize, k_pois))


def _run_battery(nl, r: Round, inputs: Inputs, seed: int, variants, settings, **protocol):
    """Ingest, load, then one ``run_battery`` call on the loaded dataset.

    Returns what the figures and checks need; the evaluation time is the
    call's time minus the time inside the two ``train`` methods.
    """
    printed, dataset = _ingest_and_load(r, inputs)
    battery = r.call("battery", nl.evaluate.run_battery, dataset, variants, seeds=(seed,),
                     settings=settings, **protocol)
    r.mark("eval")
    train_calls = r.probe.take()
    r.rss["train"] = train_calls[-1].rss_mb
    reports = {v: _report_from_battery(rep) for v, rep in battery.items()}
    eval_s = r.times["battery"][-1] - sum(c.seconds for c in train_calls)
    return printed, dataset, train_calls, reports, eval_s


def battery_round(nl, r: Round, inputs: Inputs, seed: int) -> Outcome:
    """The paper's ablation experiment as ``ablate --showcase`` runs it, on
    one seed, from an ingested dataset."""
    ev = nl.evaluate
    printed, dataset, train_calls, reports, eval_s = _run_battery(
        nl, r, inputs, seed, ev.VARIANTS, ev.BATTERY_SETTINGS,
        **ev.BATTERY_PROTOCOL)

    def verify():
        _check_common(nl, inputs, dataset, printed, train_calls, reports)
        protocol = ev.BATTERY_PROTOCOL
        corr_u, corr_l = _reference_similarities(dataset, protocol["same_day"],
                                                 protocol["top_k_users"])
        checks.same_matrix("user similarity", nl.association.user_similarity(
            dataset, same_day=protocol["same_day"], top_k=protocol["top_k_users"]), corr_u)
        checks.same_matrix("place similarity", nl.association.poi_similarity(
            dataset, top_k=protocol["top_k_pois"]), corr_l)
        nets = {c.kind: c.net for c in train_calls}
        checks.static_mrr(reports, nets["user"].predict_score_matrix(dataset),
                          nets["poi"].predict_score_matrix(dataset), corr_u, corr_l,
                          dataset.test, dataset.poi_test)
        checks.beats_random("full", reports["full"], dataset.n_pois)

    return Outcome(_figures(r, inputs, dataset, train_calls, eval_s, reports), verify)


SCALE_VARIANTS = ("full", "no_cross_user", "poi_net_only")
# Five full-batch steps at lr 0.1 learn a real signal (full MRR about 0.25
# against 0.021 for a random ranking); three at lr 0.01 left the ranking near
# random, and its MRR swung by a quarter from seed to seed.
SCALE_SETTINGS = dict(epochs=5, lr=0.1, beta=1.0)


def scale_round(nl, r: Round, inputs: Inputs, seed: int) -> Outcome:
    """Ten times the default data under the default evaluate protocol:
    stepwise user rows and dense similarities, after a few full-batch epochs."""
    printed, dataset, train_calls, reports, eval_s = _run_battery(
        nl, r, inputs, seed, SCALE_VARIANTS,
        nl.evaluate.TrainSettings(**SCALE_SETTINGS))

    def verify():
        _check_common(nl, inputs, dataset, printed, train_calls, reports)
        corr_u, corr_l = _reference_similarities(dataset, False, None)
        checks.same_matrix("user similarity", nl.association.user_similarity(dataset), corr_u)
        checks.same_matrix("place similarity", nl.association.poi_similarity(dataset), corr_l)
        nets = {c.kind: c.net for c in train_calls}
        s_l = nets["poi"].predict_score_matrix(dataset)
        checks.static_mrr({"poi_net_only": reports["poi_net_only"]}, None, s_l, None, corr_l,
                          dataset.test, dataset.poi_test)
        events = [dataset.train[u] + dataset.test[u] for u in range(dataset.n_users)]
        train_len = [len(t) for t in dataset.train]
        users = sorted(int(u) for u in np.random.default_rng([seed, 2]).choice(
            dataset.n_users, STEPWISE_SAMPLE, replace=False))
        user_net = nets["user"]

        def score_rows(v, cuts):
            return user_net.score_rows_at_cuts(events[v], v, cuts)

        for variant in ("full", "no_cross_user"):
            checks.stepwise_mrr(variant, reports[variant], users, events, train_len,
                                score_rows, corr_u, s_l, corr_l)
        checks.beats_random("full", reports["full"], dataset.n_pois)

    return Outcome(_figures(r, inputs, dataset, train_calls, eval_s, reports), verify)


PIPELINE_TRAIN = ["--epochs", "4", "--batch-size", "32", "--lr", "0.01", "--beta", "1.0"]
PIPELINE_ASSOCIATE = ["--user-same-day", "--top-k", "5", "--poi-normalize", "row"]


def pipeline_round(nl, r: Round, inputs: Inputs, seed: int) -> Outcome:
    """The command-line pipeline, each command reloading what the last wrote."""
    printed, dataset = _ingest_and_load(r, inputs)
    data_dir, model, sim, rep = (r.path(n) for n in ("dataset", "model", "sim", "report"))
    for net in ("user", "poi"):
        r.cli(["train", "--data", data_dir, "--net", net, "--seed", str(seed), "--out", model]
              + PIPELINE_TRAIN)
    r.mark("train")
    train_calls = r.probe.take()
    r.cli(["associate", "--data", data_dir, "--out", sim] + PIPELINE_ASSOCIATE)
    r.cli(["evaluate", "--data", data_dir, "--user-ckpt", os.path.join(model, "user_net.ckpt"),
           "--poi-ckpt", os.path.join(model, "poi_net.ckpt"), "--variant", "all",
           "--s-u-mode", "static", "--out", rep])
    r.mark("eval")
    reports = {v: _report_from_file(os.path.join(rep, f"report_{v}.json"))
               for v in nl.evaluate.VARIANTS}
    for call in train_calls:
        with open(os.path.join(model, f"{call.kind}_loss.txt"), "r", encoding="utf-8") as f:
            call.log = [float(line) for line in f]

    def verify():
        _check_common(nl, inputs, dataset, printed, train_calls, reports)
        corr_u, corr_l = _reference_similarities(dataset, True, 5, "row", 5)
        load = nl.association.load_similarity
        checks.same_matrix("exported user similarity",
                           load(os.path.join(sim, "corr_user.txt")), corr_u)
        checks.same_matrix("exported place similarity",
                           load(os.path.join(sim, "corr_poi.txt")), corr_l)
        corr_u, corr_l = _reference_similarities(dataset, False, None)
        user_net = nl.user_net.UserNet.load(os.path.join(model, "user_net.ckpt"))
        poi_net = nl.poi_net.PoiNet.load(os.path.join(model, "poi_net.ckpt"))
        checks.static_mrr(reports, user_net.predict_score_matrix(dataset),
                          poi_net.predict_score_matrix(dataset), corr_u, corr_l,
                          dataset.test, dataset.poi_test)
        checks.beats_random("full", reports["full"], dataset.n_pois)

    return Outcome(_figures(r, inputs, dataset, train_calls, r.times["evaluate"][-1],
                            reports), verify)


ROUNDS = {"battery-1x": battery_round, "scale-10x": scale_round,
          "pipeline-cli": pipeline_round}
