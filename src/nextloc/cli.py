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
from .autodiff import NumericsError
from .config import (ConfigError, RunConfig, coerce_into, config_hash,
                     load_run_config, parse_flat_file)
from .data import (DataError, SyntheticSpec, build_dataset, filter_inactive_users,
                   filter_rare_pois, generate_synthetic, load_dataset,
                   parse_checkin_file, save_dataset)
from .evaluate import VARIANTS, FusionStrategy, TrainSettings
from .poi_net import PoiNet
from .user_net import UserNet

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _out_dir(arg, default_name):
    if arg:
        return arg
    return os.path.join(os.environ.get("NEXTLOC_OUT", "."), default_name)


def _write_manifest(out_dir, command, config, seeds=()):
    payload = {
        "command": command,
        "config": dataclasses.asdict(config) if dataclasses.is_dataclass(config) else config,
        "config_sha256": config_hash(config) if dataclasses.is_dataclass(config) else None,
        "seeds": list(seeds),
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=list)
        f.write("\n")
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8") as f:
        f.write(f"{time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())} {command}\n")


def _train_settings(cfg: RunConfig) -> TrainSettings:
    return TrainSettings(dim=cfg.dim, slot_dim=cfg.slot_dim, alpha=cfg.alpha,
                         beta=cfg.beta, epochs=cfg.epochs, lr=cfg.lr,
                         optimizer=cfg.optimizer, batch_size=cfg.batch_size)


def cmd_ingest(args) -> int:
    cfg = load_run_config(args.config, {
        "format": args.format, "min_records": args.min_records,
        "min_poi_records": args.min_poi_records, "split_ratio": args.split_ratio,
        "window": args.window, "slots": args.slots,
    })
    parsed = parse_checkin_file(args.input, cfg.format)
    result = filter_inactive_users(parsed.records, cfg.min_records)
    raw_users = {old: raw for raw, old in parsed.user_ids.items()}
    raw_pois = {old: raw for raw, old in parsed.poi_ids.items()}
    user_raw = [raw_users[old] for old, _ in sorted(result.user_map.items(), key=lambda kv: kv[1])]
    poi_raw = [raw_pois[old] for old, _ in sorted(result.poi_map.items(), key=lambda kv: kv[1])]
    records = result.records
    if cfg.min_poi_records > 0:
        narrowed = filter_rare_pois(records, cfg.min_poi_records)
        user_raw = [user_raw[old] for old, _ in sorted(narrowed.user_map.items(), key=lambda kv: kv[1])]
        poi_raw = [poi_raw[old] for old, _ in sorted(narrowed.poi_map.items(), key=lambda kv: kv[1])]
        records = narrowed.records
    dataset = build_dataset(records, cfg.split_ratio, cfg.window, cfg.slots,
                            user_raw=user_raw, poi_raw=poi_raw)
    out = _out_dir(args.out, "dataset")
    save_dataset(dataset, out)
    _write_manifest(out, "ingest", cfg)
    n_train = sum(len(t) for t in dataset.train)
    n_test = sum(len(t) for t in dataset.test)
    print(f"users={dataset.n_users} pois={dataset.n_pois} events={len(dataset.records)} "
          f"train={n_train} test={n_test} malformed={parsed.malformed}")
    print(f"dataset written to {out}")
    return 0


def cmd_synth(args) -> int:
    mapping = parse_flat_file(args.spec) if args.spec else {}
    for item in args.set or []:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    spec = coerce_into(SyntheticSpec, mapping)
    dataset = generate_synthetic(spec, args.seed)
    out = _out_dir(args.out, "synthetic")
    save_dataset(dataset, out)
    _write_manifest(out, "synth", spec, seeds=[args.seed])
    print(f"users={dataset.n_users} pois={dataset.n_pois} events={len(dataset.records)} "
          f"clone_pairs={len(dataset.meta.get('clone_pairs', []))} seed={args.seed}")
    print(f"dataset written to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, {
        "dim": args.dim, "slot_dim": args.slot_dim, "alpha": args.alpha,
        "beta": args.beta, "epochs": args.epochs, "lr": args.lr,
        "optimizer": args.optimizer, "batch_size": args.batch_size,
    })
    dataset = load_dataset(args.data)
    out = _out_dir(args.out, "model")
    os.makedirs(out, exist_ok=True)
    if args.net == "user":
        net = UserNet(dataset.n_users, dataset.n_pois, cfg.dim,
                      alpha=cfg.alpha, beta=cfg.beta, seed=args.seed)
    else:
        net = PoiNet(dataset.n_users, dataset.n_pois, n_slots=dataset.slots,
                     dim=cfg.dim, slot_dim=cfg.slot_dim, seed=args.seed)
    log = net.train(dataset, cfg.epochs, seed=args.seed, lr=cfg.lr,
                    optimizer=cfg.optimizer, batch_size=cfg.batch_size) if cfg.epochs else []
    ckpt = os.path.join(out, f"{args.net}_net.ckpt")
    net.save(ckpt)
    with open(os.path.join(out, f"{args.net}_loss.txt"), "w", encoding="utf-8") as f:
        for value in log:
            f.write(f"{value!r}\n")
    _write_manifest(out, f"train:{args.net}", cfg, seeds=[args.seed])
    first = f"{log[0]:.6f}" if log else "n/a"
    last = f"{log[-1]:.6f}" if log else "n/a"
    print(f"trained {args.net} net: epochs={cfg.epochs} loss {first} -> {last}")
    print(f"checkpoint written to {ckpt}")
    return 0


def cmd_associate(args) -> int:
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
    cfg = load_run_config(args.config, {
        "variant": args.variant, "fusion": args.fusion, "top_ks": args.ks,
        "s_u_mode": args.s_u_mode, "s_l_mode": args.s_l_mode,
    })
    if cfg.variant not in VARIANTS + ("all",):
        raise ConfigError(f"unknown variant {cfg.variant!r}; "
                          f"expected one of {VARIANTS} or 'all'")
    variants = list(VARIANTS) if cfg.variant == "all" else [cfg.variant]
    wirings = [evaluate.WIRING[v] for v in variants]
    for variant, wiring in zip(variants, wirings):
        for needed, flag, given in ((wiring.user_net, "--user-ckpt", args.user_ckpt),
                                    (wiring.poi_net, "--poi-ckpt", args.poi_ckpt)):
            if needed and not given:
                raise ConfigError(f"variant {variant!r} needs {flag}")
    dataset = load_dataset(args.data)
    user_net = _load_net(UserNet, args.user_ckpt, dataset) if args.user_ckpt else None
    poi_net = _load_net(PoiNet, args.poi_ckpt, dataset) if args.poi_ckpt else None
    fusion = FusionStrategy.parse(cfg.fusion)
    # Built once and shared by every variant, as run_battery does.
    corr_u = (association.user_similarity(dataset)
              if any(w.user_adj for w in wirings) else None)
    corr_l = (association.poi_similarity(dataset)
              if any(w.poi_adj for w in wirings) else None)
    s_l = (poi_net.predict_score_matrix(dataset)
           if any(w.poi_net for w in wirings) else None)
    out = _out_dir(args.out, "report")
    os.makedirs(out, exist_ok=True)
    for variant in variants:
        result = evaluate.evaluate_with_nets(dataset, user_net, poi_net, variant,
                                             fusion, ks=cfg.top_ks, corr_u=corr_u,
                                             corr_l=corr_l, s_l=s_l,
                                             s_u_mode=cfg.s_u_mode, s_l_mode=cfg.s_l_mode)
        report = evaluate.single_report(variant, fusion, cfg.top_ks, result)
        with open(os.path.join(out, f"report_{variant}.json"), "w", encoding="utf-8") as f:
            f.write(report.to_json())
        with open(os.path.join(out, f"report_{variant}.txt"), "w", encoding="utf-8") as f:
            f.write(report.text_table())
        print(report.text_table(), end="")
    _write_manifest(out, "evaluate", cfg)
    return 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, {
        "fusion": args.fusion, "epochs": args.epochs, "lr": args.lr,
    })
    if args.spec:
        source = coerce_into(SyntheticSpec, parse_flat_file(args.spec))
    elif args.data:
        source = load_dataset(args.data)
    elif args.showcase:
        source = SyntheticSpec()
    else:
        raise ConfigError("ablate needs --data, --spec, or --showcase")
    seeds = [int(s) for s in args.seeds.split(",")]
    fusion = FusionStrategy.parse(cfg.fusion)
    if args.showcase:
        if not isinstance(source, SyntheticSpec):
            raise ConfigError("--showcase runs on a synthetic spec, not --data")
        tuned = (_train_settings(cfg)
                 if args.epochs is not None or args.lr is not None or args.config
                 else None)
        reports = evaluate.synthetic_battery(source, VARIANTS, fusion, seeds,
                                             tuned, ks=cfg.top_ks)
    else:
        reports = evaluate.run_battery(source, VARIANTS, fusion, seeds,
                                       _train_settings(cfg), ks=cfg.top_ks)
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
    _write_manifest(out, "ablate", cfg, seeds=seeds)
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
    dataset = load_dataset(args.data)
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

    p = sub.add_parser("ingest", help="parse a raw check-in file into a dataset directory")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("gowalla", "foursquare"), default=None)
    p.add_argument("--min-records", type=int, default=None)
    p.add_argument("--min-poi-records", type=int, default=None)
    p.add_argument("--split-ratio", type=float, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--slots", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a planted-structure synthetic dataset")
    p.add_argument("--spec", help="flat key=value file of generator settings")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one network on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--net", choices=("user", "poi"), required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--slot-dim", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("associate", help="build and export both similarity matrices")
    p.add_argument("--data", required=True)
    p.add_argument("--user-same-day", action="store_true",
                   help="restrict user overlap to same-day co-visits (variant)")
    p.add_argument("--poi-normalize", choices=("global", "row"), default="global")
    p.add_argument("--top-k", type=int, default=None,
                   help="keep only each row's k largest off-diagonal entries")
    p.add_argument("--out")
    p.set_defaults(func=cmd_associate)

    p = sub.add_parser("evaluate", help="score a variant from trained checkpoints")
    p.add_argument("--data", required=True)
    p.add_argument("--user-ckpt")
    p.add_argument("--poi-ckpt")
    p.add_argument("--variant", default=None, help="one of %s or 'all'" % (VARIANTS,))
    p.add_argument("--fusion", default=None)
    p.add_argument("--ks", default=None, help="comma list, default 1,5,10")
    p.add_argument("--s-u-mode", choices=("stepwise", "static"), default=None)
    p.add_argument("--s-l-mode", choices=("static", "stepwise"), default=None)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run the full variant battery over seeds")
    p.add_argument("--data")
    p.add_argument("--spec", help="synthetic spec: fresh dataset per seed")
    p.add_argument("--showcase", action="store_true",
                   help="planted-structure battery protocol: offline rows, "
                        "same-day top-3 user links, battery training settings")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--fusion", default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("stats", help="export motivation statistics as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--which", default="all",
                   choices=evaluate.STAT_KINDS + ("all",))
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("case", help="candidate lists and nearest neighbors for one case")
    p.add_argument("--data", required=True)
    p.add_argument("--user-ckpt", required=True)
    p.add_argument("--poi-ckpt", required=True)
    p.add_argument("--user", required=True, help="raw user id")
    p.add_argument("--poi", required=True, help="raw poi id")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_case)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
