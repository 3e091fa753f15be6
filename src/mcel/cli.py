"""Command-line harness.

Subcommands: similarity, train, gridsearch, noise-exp, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 runtime failure, 3 gradcheck
failure. Reports are JSON with sorted keys so identical seeds give
byte-identical payloads; wall-clock timing goes to a separate meta file.
"""

import argparse
import configparser
import csv
import json
import sys
import time
from pathlib import Path

from . import data as datamod
from . import lda as ldamod
from .errors import McelError
from .gradcheck import REL_TOL, run_all
from .harness import (
    DEFAULT_GRID,
    dumps_report,
    run_grid_search,
    run_noise_experiment,
    run_training,
    similarity_checksum,
    similarity_from_dataset,
)
from .losses import VARIANTS
from .net import TrainConfig, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_GRADCHECK = 3


class UsageError(Exception):
    pass


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip() != ""]


def add_dataset_flags(parser):
    parser.add_argument("--data-csv", metavar="PATH")
    parser.add_argument("--label-col", metavar="NAME")
    parser.add_argument("--data-idx", nargs=2, metavar=("IMAGES", "LABELS"))
    parser.add_argument(
        "--blobs", metavar="K,PER_CLASS,DIM,SPREAD",
        help="synthetic Gaussian blobs, e.g. 4,500,2,0.8",
    )
    parser.add_argument("--data-seed", type=int, default=0)


def load_dataset(args):
    sources = [args.data_csv, args.data_idx, args.blobs]
    if sum(s is not None for s in sources) != 1:
        raise UsageError("exactly one of --data-csv, --data-idx, --blobs is required")
    if args.data_csv is not None:
        if args.label_col is None:
            raise UsageError("--data-csv requires --label-col")
        dataset, _ = datamod.load_csv(args.data_csv, args.label_col)
        return dataset
    if args.data_idx is not None:
        return datamod.load_idx(args.data_idx[0], args.data_idx[1])
    try:
        k, per_class, dim, spread = args.blobs.split(",")
        k, per_class, dim, spread = int(k), int(per_class), int(dim), float(spread)
    except ValueError:
        raise UsageError(f"--blobs wants K,PER_CLASS,DIM,SPREAD, got {args.blobs!r}") from None
    return datamod.gen_blobs(k, per_class, dim, spread=spread, seed=args.data_seed)


def _boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# section -> key -> (default, parse); a key without a default may be left out
CONFIG_KEYS = {
    "train": {
        "learning_rate": ("0.1", float),
        "momentum": ("0.1", float),
        "weight_decay": ("0.001", float),
        "epochs": ("100", int),
        "batch_size": ("32", int),
        "lr_decay": ("0.0", float),
        "hidden": ("16", _int_list),
        "topk": ("5", int),
    },
    "loss": {
        "variant": ("ce", str),
        "epsilon": ("0.2", float),
        "epsilons": (None, _float_list),
    },
    "split": {
        "fractions": ("0.7,0.15,0.15", _float_list),
        "standardize": ("true", _boolean),
    },
}
WANTED = {float: "a number", int: "an integer", _float_list: "a list of numbers",
          _int_list: "a list of integers",
          _boolean: f"one of {', '.join(configparser.ConfigParser.BOOLEAN_STATES)}"}


def load_config(path=None):
    """The [train], [loss] and [split] sections, each value parsed."""
    parser = configparser.ConfigParser()
    parser.read_dict({section: {key: default for key, (default, _) in keys.items() if default}
                      for section, keys in CONFIG_KEYS.items()})
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise UsageError(f"config file {path}: {' '.join(str(exc).split())}") from None
        if not read:
            raise UsageError(f"config file {path} not found")
    # [DEFAULT] first: configparser copies its keys into every section
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if key not in CONFIG_KEYS.get(section, ()):
                raise UsageError(f"config file {path}: unknown key {key!r} in [{section}]")
    cfg = {section: {} for section in CONFIG_KEYS}
    for section, values in cfg.items():
        for key, value in parser[section].items():
            parse = CONFIG_KEYS[section][key][1]
            try:
                values[key] = parse(value)
            except ValueError:
                raise UsageError(f"config file {path}: [{section}] {key} = {value!r} "
                                 f"is not {WANTED[parse]}") from None
    if cfg["loss"]["variant"] not in VARIANTS:
        raise UsageError(
            f"unknown loss variant {cfg['loss']['variant']!r}; pick one of {tuple(VARIANTS)}"
        )
    topk = cfg["train"]["topk"]
    if topk < 1:
        raise UsageError(f"config file {path}: [train] topk must be >= 1, got {topk}")
    return cfg


def build_train_config(cfg, seed=0):
    loss = cfg["loss"]
    steps = ("learning_rate", "momentum", "weight_decay", "epochs", "batch_size", "lr_decay")
    return TrainConfig(
        **{key: cfg["train"][key] for key in steps}, seed=seed, variant=loss["variant"],
        epsilon=loss["epsilon"],
        epsilons=tuple(loss["epsilons"]) if "epsilons" in loss else None,
    )


def prepare_splits(dataset, cfg, seed):
    train, val, test = datamod.split(dataset, cfg["split"]["fractions"], seed)
    if cfg["split"]["standardize"]:
        train, val, test, _, _ = datamod.standardize(train, val, test)
    return train, val, test


def obtain_similarity(args, cfg, train):
    if getattr(args, "similarity", None):
        path = Path(args.similarity)
        if not path.exists():
            raise UsageError(f"similarity file {path} does not exist")
        return ldamod.load_similarity(path)
    if not VARIANTS[cfg["loss"]["variant"]].similarity:
        return None
    return similarity_from_dataset(
        train, num_components=getattr(args, "lda_components", None),
        ridge=getattr(args, "ridge", None),
    )


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out, wall_seconds):
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "wall_seconds": wall_seconds}
    (out / "meta.json").write_text(json.dumps(meta) + "\n")


def cmd_similarity(args):
    dataset = load_dataset(args)
    out = _outdir(args)
    sim = similarity_from_dataset(dataset, args.lda_components, args.ridge)
    sim_path = out / "similarity.txt"
    ldamod.save_similarity(sim, sim_path)
    with open(out / "similarity_heatmap.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "a_ij"])
        classes = range(sim.k)
        writer.writerows([i, j, repr(float(sim.a[i, j]))] for i in classes for j in classes)
    print(f"similarity matrix for k={sim.k} written to {sim_path}")
    print(f"asymmetry max|A-A^T| = {sim.asymmetry():.6g}")
    print(f"checksum = {similarity_checksum(sim)}")
    return EXIT_OK


def cmd_train(args):
    cfg = load_config(args.config)
    dataset = load_dataset(args)
    tc = build_train_config(cfg, args.seed)
    if tc.epsilons is not None and len(tc.epsilons) != dataset.k:
        raise UsageError(f"config file {args.config}: [loss] epsilons has "
                         f"{len(tc.epsilons)} values, the data has {dataset.k} classes")
    out = _outdir(args)
    train, val, test = prepare_splits(dataset, cfg, args.seed)
    sim = obtain_similarity(args, cfg, train)

    epochs_path = out / "epochs.jsonl"
    with open(epochs_path, "w") as stream:
        def on_epoch(record):
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()

        result = run_training(train, val, test, tc, cfg["train"]["hidden"], sim,
                              cfg["train"]["topk"], on_epoch)
    (out / "report.json").write_text(dumps_report(result.report))
    save_checkpoint(result.model, out / "model.ckpt")
    _write_meta(out, result.wall_seconds)
    print(
        f"best val acc {result.report['best_val_acc']:.4f} at epoch "
        f"{result.report['best_epoch']}; test top-1 {result.report['test_top1']:.4f}, "
        f"top-{result.report['topk']} {result.report['test_topk']:.4f}"
    )
    return EXIT_OK


def cmd_gridsearch(args):
    cfg = load_config(args.config)
    dataset = load_dataset(args)
    out = _outdir(args)
    hidden, topk = cfg["train"]["hidden"], cfg["train"]["topk"]
    base = build_train_config(cfg)
    epsilons = args.epsilons if args.epsilons else list(DEFAULT_GRID)
    seeds = args.seeds if args.seeds else [0]

    def make_splits(seed):
        train, val, test = prepare_splits(dataset, cfg, seed)
        sim = similarity_from_dataset(train, args.lda_components, args.ridge)
        return train, val, test, sim

    started = time.monotonic()
    result = run_grid_search(make_splits, base, hidden, epsilons, seeds, topk)
    (out / "grid.json").write_text(dumps_report(result))
    with open(out / "grid_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "mean_val_acc", "std_val_acc"])
        writer.writerows([row["epsilon"], repr(row["mean_val_acc"]), repr(row["std_val_acc"])]
                         for row in result["grid"])
    _write_meta(out, time.monotonic() - started)
    print(f"grid {epsilons} -> selected epsilon = {result['selected_epsilon']}")
    return EXIT_OK


def _default_pairs(k):
    return tuple((i, i + 1) for i in range(0, k - 1, 2))


def _parse_pairs(text):
    try:
        pairs = tuple(tuple(int(v) for v in part.split(":")) for part in text.split(","))
        if all(len(pair) == 2 for pair in pairs):
            return pairs
    except ValueError:
        pass
    raise UsageError(f"--pairs wants A:B,C:D, got {text!r}")


def cmd_noise_exp(args):
    cfg = load_config(args.config)
    dataset = load_dataset(args)
    out = _outdir(args)
    hidden, topk = cfg["train"]["hidden"], cfg["train"]["topk"]
    base = build_train_config(cfg)
    pairs = _parse_pairs(args.pairs) if args.pairs else _default_pairs(dataset.k)
    fractions = args.fractions if args.fractions else [0.3]
    seeds = args.seeds if args.seeds else [0]
    candidates = args.epsilon_candidates if args.epsilon_candidates else [0.2]

    started = time.monotonic()
    result = run_noise_experiment(
        dataset, pairs, fractions, seeds, base, hidden,
        epsilon_candidates=candidates, split_fractions=cfg["split"]["fractions"],
        topk=topk, lda_components=args.lda_components,
    )
    with open(out / "noise.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "seed", "variant", "epsilon", "test_top1"])
        writer.writerows([row["fraction"], row["seed"], row["variant"], row["epsilon"],
                          repr(row["test_top1"])] for row in result["rows"])
    for (fraction, seed), idx in result["masks"].items():
        mask_path = out / f"noise_mask_f{fraction}_s{seed}.txt"
        mask_path.write_text("".join(f"{int(i)}\n" for i in idx))
    payload = {"pairs": [list(p) for p in pairs], "rows": result["rows"]}
    (out / "noise.json").write_text(dumps_report(payload))
    _write_meta(out, time.monotonic() - started)
    print(f"noise experiment over fractions {fractions}, pairs {pairs}")
    return EXIT_OK


def cmd_gradcheck(args):
    for flag, value, least in (("--k", args.k, 2), ("--trials", args.trials, 1)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    corrupt = 1e-3 if args.corrupt else 0.0
    results = run_all(args.k, args.trials, args.seed, corrupt)
    failed = False
    for name, err in results.items():
        status = "ok" if err <= REL_TOL else "FAIL"
        failed = failed or err > REL_TOL
        print(f"{name:14s} max relative error {err:.3e}  [{status}]")
    return EXIT_GRADCHECK if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mcel",
        description="Mixed cross-entropy loss experiments with an LDA similarity prior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("similarity", help="build and save a class-similarity matrix")
    add_dataset_flags(p)
    p.add_argument("--lda-components", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("train", help="train and evaluate one model")
    add_dataset_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--similarity", default=None, metavar="PATH")
    p.add_argument("--lda-components", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="epsilon grid search")
    add_dataset_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--epsilons", type=_float_list, default=None)
    p.add_argument("--seeds", type=_int_list, default=None)
    p.add_argument("--lda-components", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("noise-exp", help="pairwise label-noise robustness comparison")
    add_dataset_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--fractions", type=_float_list, default=None)
    p.add_argument("--seeds", type=_int_list, default=None)
    p.add_argument("--pairs", default=None, metavar="A:B,C:D")
    p.add_argument("--epsilon-candidates", type=_float_list, default=None)
    p.add_argument("--lda-components", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_noise_exp)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except McelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        # bad values in flags or config that pass argparse/configparser
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
