"""Command-line pipeline driver.

Subcommands: ingest, synth, train, associate, evaluate, ablate, stats, case.
Every command is deterministic given its inputs and seed; wall-clock time is
written only to the run.log sidecar so primary outputs stay byte-identical
across reruns.  The NEXTLOC_OUT environment variable sets the default output
root (defaults to the current directory).
"""

import argparse
import dataclasses
import json
import os
import sys
import time

from . import association, evaluate
from .autodiff import OPTIMIZERS, NumericsError
from .config import (ConfigError, RunConfig, TrainSettings, coerce_into, config_hash,
                     load_run_config, parse_flat_file)
from .data import (FORMATS, DataError, SyntheticSpec, build_dataset, filter_inactive_users,
                   filter_rare_pois, generate_synthetic, load_dataset,
                   parse_checkin_file, save_dataset)
from .evaluate import VARIANTS, FusionStrategy
from .poi_net import PoiNet
from .user_net import UserNet

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _out_dir(arg, default_name):
    if arg:
        return arg
    return os.path.join(os.environ.get("NEXTLOC_OUT", "."), default_name)


#: The RunConfig keys each command reads, and so records in its run.json.
DATA_KEYS = ("format", "min_records", "min_poi_records", "split_ratio", "window", "slots")
TRAIN_KEYS = tuple(field.name for field in dataclasses.fields(TrainSettings))
EVAL_KEYS = ("variant", "fusion", "top_ks", "s_u_mode")
ABLATE_KEYS = ("fusion", "top_ks") + TRAIN_KEYS
#: The values each choice setting may take: the constants of the code that reads it.
CHOICES = {"format": FORMATS, "optimizer": OPTIMIZERS, "s_u_mode": evaluate.ROW_MODES,
           "variant": VARIANTS + ("all",)}


def _write_manifest(out_dir, command, config, seeds=(), keys=None):
    """run.json: the command, its config and seeds.  ``keys`` narrows a
    dataclass config to the keys the command reads, so a config file's other
    keys leave the manifest unchanged."""
    hashed = dataclasses.is_dataclass(config)
    if hashed:
        config = dataclasses.asdict(config)
    if keys is not None:
        config = {key: config[key] for key in keys}
    payload = {
        "command": command,
        "config": config,
        "config_sha256": config_hash(config) if hashed else None,
        "seeds": list(seeds),
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=list)
        f.write("\n")
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())} {command}\n")


def _config(args, keys, base=None) -> RunConfig:
    """Defaults, ``base``, ``--config``, then the command's flags named by
    ``keys`` (a key without a flag keeps the file's value), all checked."""
    return load_run_config(args.config, {key: getattr(args, key, None) for key in keys},
                           base, CHOICES)


def _seeds(text: str, flag: str, many: bool = True) -> list[int]:
    """The seeds ``flag`` gives (comma-separated when ``many``), checked
    before any input is read: non-negative integers."""
    try:
        seeds = [int(part) for part in (text.split(",") if many else [text])]
    except ValueError:
        seeds = [-1]
    if min(seeds) < 0:
        wanted = "non-negative integers" if many else "a non-negative integer"
        raise ConfigError(f"{flag} expects {wanted}, got {text!r}")
    return seeds


def _flag(key: str) -> str:
    """A setting's text flag for ``_config``: the key with dashes, ``--ks`` for top_ks."""
    return "--ks" if key == "top_ks" else "--" + key.replace("_", "-")


def _kept_names(names: list, id_map: dict[int, int]) -> list:
    """``names[old]`` of each id a filter's ``id_map`` (old -> new id) keeps, in new-id order."""
    return [names[old] for old in sorted(id_map, key=id_map.__getitem__)]


def cmd_ingest(args) -> int:
    cfg = _config(args, DATA_KEYS)
    parsed = parse_checkin_file(args.input, cfg.format)
    result = filter_inactive_users(parsed.records, cfg.min_records)
    # The parser's dense ids number the raw ids in first-seen order.
    user_raw = _kept_names(list(parsed.user_ids), result.user_map)
    poi_raw = _kept_names(list(parsed.poi_ids), result.poi_map)
    records = result.records
    if cfg.min_poi_records > 0:
        narrowed = filter_rare_pois(records, cfg.min_poi_records)
        user_raw = _kept_names(user_raw, narrowed.user_map)
        poi_raw = _kept_names(poi_raw, narrowed.poi_map)
        records = narrowed.records
    dataset = build_dataset(records, cfg.split_ratio, cfg.window, cfg.slots,
                            user_raw=user_raw, poi_raw=poi_raw)
    out = _out_dir(args.out, "dataset")
    save_dataset(dataset, out, keep=[args.input])
    _write_manifest(out, "ingest", cfg, keys=DATA_KEYS)
    n_train = int(dataset.by_user.train_counts.sum())
    n_test = len(dataset.events) - n_train
    print(f"users={dataset.n_users} pois={dataset.n_pois} events={len(dataset.events)} "
          f"train={n_train} test={n_test} malformed={parsed.malformed}")
    print(f"dataset written to {out}")
    return 0


def cmd_synth(args) -> int:
    seed, = _seeds(args.seed, "--seed", many=False)
    mapping = parse_flat_file(args.spec) if args.spec else {}
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    spec = coerce_into(SyntheticSpec, mapping)
    dataset = generate_synthetic(spec, seed)
    out = _out_dir(args.out, "synthetic")
    save_dataset(dataset, out)
    _write_manifest(out, "synth", spec, seeds=[seed])
    print(f"users={dataset.n_users} pois={dataset.n_pois} events={len(dataset.events)} "
          f"clone_pairs={len(dataset.meta.get('clone_pairs', []))} seed={seed}")
    print(f"dataset written to {out}")
    return 0


def cmd_train(args) -> int:
    seed, = _seeds(args.seed, "--seed", many=False)
    cfg = _config(args, TRAIN_KEYS)
    dataset = load_dataset(args.data)
    net, log = evaluate.train_net(args.net, dataset, cfg, seed)
    net.predict_score_matrix(dataset)   # finite parameters can still overflow the scores
    out = _out_dir(args.out, "model")
    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, f"{args.net}_net.ckpt")
    net.save(ckpt)
    with open(os.path.join(out, f"{args.net}_loss.txt"), "w", encoding="utf-8") as f:
        for value in log:
            f.write(f"{value!r}\n")
    _write_manifest(out, f"train:{args.net}", cfg, seeds=[seed], keys=TRAIN_KEYS)
    first = f"{log[0]:.6f}" if log else "n/a"
    last = f"{log[-1]:.6f}" if log else "n/a"
    print(f"trained {args.net} net: epochs={cfg.epochs} loss {first} -> {last}")
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_associate(args) -> int:
    if args.top_k is not None and args.top_k < 0:
        raise ConfigError(f"--top-k must be non-negative, got {args.top_k}")
    dataset = load_dataset(args.data)
    corr_u = association.user_similarity(dataset, same_day=args.user_same_day,
                                         top_k=args.top_k)
    corr_l = association.poi_similarity(dataset, normalize=args.poi_normalize,
                                        top_k=args.top_k)
    out = _out_dir(args.out, "similarity")
    os.makedirs(out, exist_ok=True)
    association.save_similarity(os.path.join(out, "corr_user.txt"), corr_u)
    association.save_similarity(os.path.join(out, "corr_poi.txt"), corr_l)
    _write_manifest(out, "associate", {"user_same_day": args.user_same_day,
                                       "poi_normalize": args.poi_normalize,
                                       "top_k": args.top_k})
    print(f"user matrix {corr_u.shape[0]}x{corr_u.shape[1]}, "
          f"poi matrix {corr_l.shape[0]}x{corr_l.shape[1]} written to {out}")
    return 0


def _load_net(cls, path, dataset):
    net = cls.load(path)
    evaluate.check_fits(dataset, net)
    return net


def cmd_evaluate(args) -> int:
    cfg = _config(args, EVAL_KEYS)
    variants = VARIANTS if cfg.variant == "all" else (cfg.variant,)
    for variant in variants:
        wiring = evaluate.WIRING[variant]
        for needed, flag, given in ((wiring.user_net, "--user-ckpt", args.user_ckpt),
                                    (wiring.poi_net, "--poi-ckpt", args.poi_ckpt)):
            if needed and not given:
                raise ConfigError(f"variant {variant!r} needs {flag}")
    fusion = FusionStrategy.parse(cfg.fusion)
    dataset = load_dataset(args.data)
    evaluate.check_request(dataset.n_users, dataset.n_pois, variants, cfg.top_ks, cfg.s_u_mode)
    user_net = _load_net(UserNet, args.user_ckpt, dataset) if args.user_ckpt else None
    poi_net = _load_net(PoiNet, args.poi_ckpt, dataset) if args.poi_ckpt else None
    results = evaluate.evaluate_variants(dataset, user_net, poi_net, variants, fusion,
                                         cfg.top_ks, s_u_mode=cfg.s_u_mode)
    out = _out_dir(args.out, "report")
    os.makedirs(out, exist_ok=True)
    for variant, result in results.items():
        report = evaluate.single_report(variant, fusion, cfg.top_ks, result)
        with open(os.path.join(out, f"report_{variant}.json"), "w", encoding="utf-8") as f:
            f.write(report.to_json())
        with open(os.path.join(out, f"report_{variant}.txt"), "w", encoding="utf-8") as f:
            f.write(report.text_table())
        print(report.text_table(), end="")
    _write_manifest(out, "evaluate", cfg, keys=EVAL_KEYS)
    return 0


def cmd_ablate(args) -> int:
    seeds = _seeds(args.seeds, "--seeds")
    cfg = _config(args, ABLATE_KEYS, evaluate.BATTERY_SETTINGS if args.showcase else None)
    fusion = FusionStrategy.parse(cfg.fusion)
    if args.showcase and args.data:
        raise ConfigError("--showcase runs on a synthetic spec, not --data")
    if args.spec:
        source = coerce_into(SyntheticSpec, parse_flat_file(args.spec))
    elif args.data:
        source = load_dataset(args.data)
    elif args.showcase:
        source = SyntheticSpec()
    else:
        raise ConfigError("ablate needs --data, --spec, or --showcase")
    protocol = evaluate.BATTERY_PROTOCOL if args.showcase else {}
    reports = evaluate.run_battery(source, VARIANTS, fusion, seeds, cfg, cfg.top_ks, **protocol)
    out = _out_dir(args.out, "ablation")
    os.makedirs(out, exist_ok=True)
    lines = []
    for variant, report in reports.items():
        with open(os.path.join(out, f"report_{variant}.json"), "w", encoding="utf-8") as f:
            f.write(report.to_json())
        lines.append(f"{variant:>20}  MRR={report.mrr:.4f}  "
                     + "  ".join(f"Acc@{k}={report.acc[k]:.4f}" for k in report.ks))
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(out, "summary.txt"), "w", encoding="utf-8") as f:
        f.write(summary)
    _write_manifest(out, "ablate", cfg, seeds=seeds, keys=ABLATE_KEYS)
    print(summary, end="")
    return 0


def cmd_stats(args) -> int:
    dataset = load_dataset(args.data)
    kinds = list(evaluate.STAT_KINDS) if args.which == "all" else [args.which]
    out = _out_dir(args.out, "stats")
    os.makedirs(out, exist_ok=True)
    for which in kinds:
        header, rows = evaluate.motivation_stats(dataset, which)
        path = os.path.join(out, f"{which}.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in row) + "\n")
        print(f"{which}: {len(rows)} rows -> {path}")
    _write_manifest(out, "stats", {"which": args.which})
    return 0


def cmd_case(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    dataset = load_dataset(args.data)
    if args.k > min(dataset.n_users, dataset.n_pois):
        raise ConfigError(f"--k {args.k} exceeds the {dataset.n_users} users or "
                          f"{dataset.n_pois} places")
    user_net = _load_net(UserNet, args.user_ckpt, dataset)
    poi_net = _load_net(PoiNet, args.poi_ckpt, dataset)
    user_index = {raw: i for i, raw in enumerate(dataset.user_raw)}
    poi_index = {raw: i for i, raw in enumerate(dataset.poi_raw)}
    if args.user not in user_index:
        raise DataError(f"unknown user id {args.user!r}")
    if args.poi not in poi_index:
        raise DataError(f"unknown poi id {args.poi!r}")
    report = evaluate.case_report(dataset, user_net, poi_net,
                                  user_index[args.user], poi_index[args.poi], k=args.k)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, f"case_{args.user}_{args.poi}.json"),
                  "w", encoding="utf-8") as f:
            f.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextloc",
        description="Bidirectional next-location prediction over check-in trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help, data=False, keys=()):
        """The subcommand ``func`` runs, with --out, a required --data if
        ``data``, and the setting flags of ``keys`` with --config."""
        p = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        p.set_defaults(func=func)
        if data:
            p.add_argument("--data", required=True)
        for key in keys:
            p.add_argument(_flag(key), dest=key)
        if keys:
            p.add_argument("--config")
        p.add_argument("--out")
        return p

    p = command(cmd_ingest, "parse a raw check-in file into a dataset directory", keys=DATA_KEYS)
    p.add_argument("--input", required=True)

    p = command(cmd_synth, "generate a planted-structure synthetic dataset")
    p.add_argument("--spec", help="flat key=value file of generator settings")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", default="0")

    p = command(cmd_train, "train one network on a dataset directory", True, TRAIN_KEYS)
    p.add_argument("--net", choices=("user", "poi"), required=True)
    p.add_argument("--seed", default="0")

    p = command(cmd_associate, "build and export both similarity matrices", True)
    p.add_argument("--user-same-day", action="store_true",
                   help="restrict user overlap to same-day co-visits (variant)")
    p.add_argument("--poi-normalize", choices=("global", "row"), default="global")
    p.add_argument("--top-k", type=int, default=None,
                   help="keep only each row's k largest off-diagonal entries")

    p = command(cmd_evaluate, "score a variant from trained checkpoints", True, EVAL_KEYS)
    p.add_argument("--user-ckpt")
    p.add_argument("--poi-ckpt")

    p = command(cmd_ablate, "run the full variant battery over seeds",
                keys=("fusion", "epochs", "lr"))
    p.add_argument("--data")
    p.add_argument("--spec", help="synthetic spec: fresh dataset per seed")
    p.add_argument("--showcase", action="store_true",
                   help="planted-structure battery protocol: offline rows, "
                        "same-day top-3 user links, battery training settings")
    p.add_argument("--seeds", default="0,1,2,3,4")

    p = command(cmd_stats, "export motivation statistics as CSV", True)
    p.add_argument("--which", default="all", choices=evaluate.STAT_KINDS + ("all",))

    p = command(cmd_case, "candidate lists and nearest neighbors for one case", True)
    p.add_argument("--user-ckpt", required=True)
    p.add_argument("--poi-ckpt", required=True)
    p.add_argument("--user", required=True, help="raw user id")
    p.add_argument("--poi", required=True, help="raw poi id")
    p.add_argument("--k", type=int, default=5)
    return parser


#: The exit code of each refusal, the first that matches: a DataError is a ValueError.
EXIT_CODES = ((ConfigError, EXIT_USAGE), (DataError, EXIT_DATA), (NumericsError, EXIT_NUMERIC),
              (ValueError, EXIT_USAGE), (OSError, EXIT_DATA))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as "-1e3" as an option, so a setting flag
    # and a following number become one "--beta=-1e3".
    flags = {_flag(key) for key in DATA_KEYS + TRAIN_KEYS + EVAL_KEYS}
    for i in range(len(argv) - 1, 0, -1):
        try:
            float(argv[i])
        except (TypeError, ValueError):
            continue
        if argv[i - 1] in flags:
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
