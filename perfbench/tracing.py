"""Timing probes the benchmark puts around the program's public functions.

Nothing here edits the program: wrappers replace module and class attributes
in the running process and are removed again by ``uninstall``.  Two kinds:

* ``TrainProbe`` takes two timestamps around ``UserNet.train`` and
  ``PoiNet.train`` and keeps the loss log and the trained network.  It is on
  in every run, because ``run_battery`` trains inside one call.
* ``Tracer`` records a span (name, start, end, parent) for each call into a
  module's public functions, and adds up time and calls for the autodiff ops
  and ``rank_of_truth``, which are called too often for one span each.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time
from collections import defaultdict

OP_KINDS = ("matmul", "add", "tanh", "scale", "concat", "embedding_lookup",
            "softmax_cross_entropy")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_function(self, original, wrapper) -> None:
        """Point every nextloc module attribute that holds ``original`` at the
        wrapper, so names imported with ``from .x import y`` are covered too."""
        for name, module in list(sys.modules.items()):
            if name != "nextloc" and not name.startswith("nextloc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def replace_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@dataclasses.dataclass
class TrainCall:
    kind: str          # "user" or "poi"
    net: object
    log: list
    seconds: float
    rss_mb: float


class TrainProbe:
    """Two timestamps around each ``train`` call of either network."""

    def __init__(self, nl):
        self.calls: list[TrainCall] = []
        self._patches = _Patches()
        for kind, cls in (("user", nl.user_net.UserNet), ("poi", nl.poi_net.PoiNet)):
            self._patches.replace_attr(cls, "train", self._wrap(kind, cls.train))

    def _wrap(self, kind, train):
        probe = self

        def wrapper(net, *args, **kwargs):
            start = time.perf_counter()
            log = train(net, *args, **kwargs)
            seconds = time.perf_counter() - start
            probe.calls.append(TrainCall(kind, net, list(log), seconds, peak_rss_mb()))
            return log

        return wrapper

    def take(self) -> list[TrainCall]:
        calls, self.calls = self.calls, []
        return calls

    def uninstall(self) -> None:
        self._patches.undo()


class Tracer:
    """Spans kept in memory and written out as JSON lines at the end."""

    def __init__(self):
        self.enabled = True
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = _Patches()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": time.perf_counter() - self.origin,
                           "end": None, "parent": self._stack[-1] if self._stack else None})
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter() - self.origin
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[s]["name"] == name for s in self._stack)

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")

    # -- instrumentation -----------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if after is not None:
                after(tracer, sid, args, kwargs, result)
            return result

        return wrapper

    def _tally_wrapper(self, name, fn):
        tracer = self
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            counters[name + "_s"] += time.perf_counter() - start
            counters[name + "_calls"] += 1
            return result

        return wrapper

    def install(self, nl) -> None:
        """Wrap the public functions of every nextloc layer."""
        spans = {
            nl.data: ("generate_synthetic", "write_checkin_file", "parse_checkin_file",
                      "filter_inactive_users", "build_dataset", "save_dataset",
                      "load_dataset"),
            nl.autodiff: ("save_checkpoint", "load_checkpoint"),
            nl.association: ("user_similarity", "poi_similarity", "truncate_top_k",
                             "adjust_user_scores", "adjust_poi_scores", "save_similarity"),
            nl.evaluate: ("run_battery", "evaluate_with_nets"),
        }
        hooks = {"parse_checkin_file": _after_parse,
                 "filter_inactive_users": _after_filter,
                 "evaluate_with_nets": _after_evaluate}
        for module, names in spans.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn_name in names:
                fn = getattr(module, fn_name)
                self._patches.replace_function(
                    fn, self._span_wrapper(f"{layer}.{fn_name}", fn, hooks.get(fn_name)))
        for kind in OP_KINDS:
            fn = getattr(nl.autodiff, kind)
            self._patches.replace_function(fn, self._tally_wrapper(f"autodiff.op.{kind}", fn))
        rank_of_truth = nl.evaluate.rank_of_truth
        self._patches.replace_function(
            rank_of_truth, self._tally_wrapper("evaluate.rank_of_truth", rank_of_truth))

        methods = [
            (nl.autodiff.Tape, "backward", "autodiff.backward", _after_backward),
            (nl.autodiff.Adam, "step", "autodiff.optimizer_step", None),
            (nl.autodiff.Sgd, "step", "autodiff.optimizer_step", None),
            (nl.user_net.UserNet, "train", "user_net.train", _after_train),
            (nl.user_net.UserNet, "window_loss", "user_net.window_loss", None),
            (nl.user_net.UserNet, "score_rows_at_cuts", "user_net.score_rows_at_cuts",
             _after_cut_rows),
            (nl.user_net.UserNet, "predict_score_matrix", "user_net.predict_score_matrix", None),
            (nl.poi_net.PoiNet, "train", "poi_net.train", _after_train),
            (nl.poi_net.PoiNet, "window_loss", "poi_net.window_loss", None),
            (nl.poi_net.PoiNet, "predict_score_matrix", "poi_net.predict_score_matrix", None),
        ]
        for cls, attr, name, hook in methods:
            self._patches.replace_attr(cls, attr, self._span_wrapper(name, getattr(cls, attr), hook))

    def uninstall(self) -> None:
        self._patches.undo()


# -- hooks: counts taken at the same boundaries as the spans, after the call ----

def _after_parse(tracer, sid, args, kwargs, result):
    if tracer.parent_name() != "data.load_dataset":
        tracer.counters["data.ingest_parses"] += 1
        tracer.counters["data.lines"] += result.total_lines
        tracer.counters["data.malformed_lines"] += result.malformed


def _after_filter(tracer, sid, args, kwargs, result):
    records = args[0] if args else kwargs["records"]
    tracer.counters["data.users_dropped"] += (len({r.user for r in records})
                                              - len(result.user_map))


def _after_evaluate(tracer, sid, args, kwargs, result):
    tracer.spans[sid]["variant"] = result["variant"]
    tracer.spans[sid]["instances"] = result["n"]


def _after_backward(tracer, sid, args, kwargs, result):
    for kind in ("user", "poi"):
        if tracer.inside(f"{kind}_net.train"):
            tracer.counters[f"autodiff.tape_nodes.{kind}"] += len(args[0])


def _after_train(tracer, sid, args, kwargs, result):
    tracer.spans[sid]["epochs"] = len(result)


def _after_cut_rows(tracer, sid, args, kwargs, result):
    tracer.counters["user_net.cut_rows"] += len(result)
    if tracer.inside("evaluate.evaluate_with_nets"):
        tracer.counters["evaluate.cut_rows"] += len(result)


# -- per-layer metrics ----------------------------------------------------------

VARIANTS = ("full", "no_cross_poi", "no_cross_user", "no_user_prediction",
            "user_net_only", "poi_net_only")
CLI_COMMANDS = ("ingest", "train", "associate", "evaluate")
PHASES = ("ingest", "load", "train", "eval")
SETUP_SPANS = ("data.generate_synthetic", "data.write_checkin_file")


def layer_metrics(tracer: Tracer, rounds: int, setups: int, rss_marks: dict) -> dict:
    """Per-round values from spans and counts.

    Exceptions: set-up spans are per set-up, the input counts per ingest,
    and the training figures per epoch where the name says so.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    epochs = defaultdict(int)
    variant_s = defaultdict(float)
    instances = defaultdict(int)
    for span in tracer.spans:
        dur = span["end"] - span["start"]
        total[span["name"]] += dur
        calls[span["name"]] += 1
        self_time[span["name"]] += dur
        if span["parent"] is not None:
            self_time[tracer.spans[span["parent"]]["name"]] -= dur
        if "epochs" in span:
            epochs[span["name"]] += span["epochs"]
        if "variant" in span:
            variant_s[span["variant"]] += dur
            instances[span["variant"]] += span["instances"]
    c = tracer.counters

    def per_round(value):
        return value / rounds

    out = {}
    for name in SETUP_SPANS:
        out[f"{name}_s"] = total[name] / setups
    for name in ("data.parse_checkin_file", "data.filter_inactive_users",
                 "data.build_dataset", "data.save_dataset", "data.load_dataset"):
        out[f"{name}_s"] = per_round(total[name])
    ingests = c["data.ingest_parses"]
    for name in ("data.lines", "data.malformed_lines", "data.users_dropped"):
        out[name] = c[name] / ingests if ingests else 0.0
    out["data.load_dataset_calls"] = per_round(calls["data.load_dataset"])

    for kind in ("user", "poi"):
        n_epochs = epochs[f"{kind}_net.train"]
        out[f"autodiff.tape_nodes_per_epoch.{kind}"] = (
            c[f"autodiff.tape_nodes.{kind}"] / n_epochs if n_epochs else 0.0)
    for kind in OP_KINDS:
        out[f"autodiff.op_calls.{kind}"] = per_round(c[f"autodiff.op.{kind}_calls"])
        out[f"autodiff.op_s.{kind}"] = per_round(c[f"autodiff.op.{kind}_s"])
    for name in ("backward", "optimizer_step", "save_checkpoint", "load_checkpoint"):
        out[f"autodiff.{name}_s"] = per_round(total[f"autodiff.{name}"])

    for kind in ("user", "poi"):
        layer = f"{kind}_net"
        n_epochs = epochs[f"{layer}.train"]
        out[f"{layer}.train_s"] = per_round(total[f"{layer}.train"])
        out[f"{layer}.epoch_s"] = total[f"{layer}.train"] / n_epochs if n_epochs else 0.0
        out[f"{layer}.window_loss_s"] = per_round(total[f"{layer}.window_loss"])
        out[f"{layer}.window_loss_calls"] = (calls[f"{layer}.window_loss"] / n_epochs
                                             if n_epochs else 0.0)
        out[f"{layer}.predict_score_matrix_s"] = per_round(total[f"{layer}.predict_score_matrix"])
    out["user_net.score_rows_at_cuts_s"] = per_round(total["user_net.score_rows_at_cuts"])
    out["user_net.cut_rows"] = per_round(c["user_net.cut_rows"])

    for name in ("user_similarity", "poi_similarity", "truncate_top_k", "save_similarity"):
        out[f"association.{name}_s"] = per_round(total[f"association.{name}"])
    for name in ("adjust_user_scores", "adjust_poi_scores"):
        out[f"association.{name}_s"] = per_round(total[f"association.{name}"])
        out[f"association.{name}_calls"] = per_round(calls[f"association.{name}"])

    for variant in VARIANTS:
        out[f"evaluate.variant_s.{variant}"] = per_round(variant_s[variant])
        out[f"evaluate.instances.{variant}"] = per_round(instances[variant])
    out["evaluate.rank_of_truth_s"] = per_round(c["evaluate.rank_of_truth_s"])
    out["evaluate.rank_of_truth_calls"] = per_round(c["evaluate.rank_of_truth_calls"])
    ranked = sum(instances.values())
    out["evaluate.cut_rows_per_instance"] = c["evaluate.cut_rows"] / ranked if ranked else 0.0

    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = per_round(total[f"cli.{command}"])
        out[f"cli.{command}_self_s"] = per_round(self_time[f"cli.{command}"])
    for phase in PHASES:
        out[f"mem.peak_after_{phase}_mb"] = rss_marks.get(phase, 0.0)
    return out
