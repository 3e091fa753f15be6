"""Command-line harness.

Subcommands: similarity, train, gridsearch, noise-exp, gradcheck.
Exit codes: 0 success, 1 bad flag, config value or path, 2 runtime or
allocation failure, 3 gradcheck failure. Reports are sorted-key JSON, so
identical seeds give byte-identical payloads; wall-clock time goes to meta.json.
"""

import argparse
import configparser
import csv
import json
import sys
import time
from functools import partial
from pathlib import Path

from . import data as datamod
from . import lda as ldamod
from .errors import DimensionError, McelError
from .gradcheck import REL_TOL, run_all
from .harness import (
    dumps_report,
    prepare_splits,
    run_grid_search,
    run_noise_experiment,
    run_training,
    similarity_checksum,
    similarity_from_dataset,
)
from .losses import VARIANTS, check_epsilons
from .net import TrainConfig, save_checkpoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_GRADCHECK = 3


class Parser(argparse.ArgumentParser):
    """Raises a bad flag as ValueError, which main turns into exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _at_least(least):
    """An integer parse that rejects a value below least."""
    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return parse


def _items(item):
    """The comma-list parse: 'a,b' -> (item('a'), item('b')). An empty list
    or an empty item fails as item('') does."""
    return lambda text: tuple(item(v) for v in text.split(","))


def _pair(text):
    a, b = text.split(":")
    return int(a), int(b)


def _blobs(text):
    k, per_class, dim, spread = text.split(",")
    return int(k), int(per_class), int(dim), float(spread)


def _distinct(values, what):
    """The rule of a list flag whose every value makes runs: none repeats."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{what} {value} repeats")


def _flag(form, parse, *rules):
    """An argparse type: parse(text), with a bad value worded by the form it
    wants (argument --pairs: wants A:B,C:D, got '0'), then each rule(value),
    whose ValueError is the flag's error as the rule words it."""
    def typed(text):
        try:
            value = parse(text)
        except (ValueError, KeyError):  # KeyError: a word BOOLEAN does not know
            raise argparse.ArgumentTypeError(f"wants {form}, got {text!r}") from None
        try:
            for rule in rules:
                rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return typed


NUMBER, INTEGER = _flag("a number", float), _flag("an integer", int)
NUMBERS = _flag("a list of numbers", _items(float))
INTEGERS = _flag("a list of integers", _items(int))
BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
BOOLEAN = _flag(f"one of {', '.join(BOOLEANS)}", lambda text: BOOLEANS[text.lower()])
SEED = _flag("an integer", _at_least(0))
SEEDS = _flag("a list of integers", _items(_at_least(0)), partial(_distinct, what="seed"))
RIDGE = _flag("a number", float, ldamod.check_ridge)


def add_dataset_flags(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--data-csv", metavar="PATH")
    source.add_argument("--data-idx", nargs=2, metavar=("IMAGES", "LABELS"))
    form = "K,PER_CLASS,DIM,SPREAD"
    source.add_argument("--blobs", type=_flag(form, _blobs), metavar=form,
                        help="synthetic Gaussian blobs, e.g. 4,500,2,0.8")
    parser.add_argument("--label-col", metavar="NAME")
    parser.add_argument("--data-seed", type=SEED, default=0)
    parser.add_argument("--lda-components", type=_flag("an integer", _at_least(1)))
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")


def load_dataset(args):
    if args.data_csv is not None:
        return datamod.load_csv(args.data_csv, args.label_col)[0]
    if args.data_idx is not None:
        return datamod.load_idx(*args.data_idx)
    k, per_class, dim, spread = args.blobs
    return datamod.gen_blobs(k, per_class, dim, spread=spread, seed=args.data_seed)


# section -> key -> parse. FIELDS maps a key to its TrainConfig field where
# the names differ; TrainConfig checks each value and gives the defaults.
CONFIG_KEYS = {
    "train": {
        "learning_rate": NUMBER, "momentum": NUMBER, "weight_decay": NUMBER, "epochs": INTEGER,
        "batch_size": INTEGER, "lr_decay": NUMBER, "hidden": INTEGERS, "topk": INTEGER,
    },
    "loss": {"variant": str, "epsilon": NUMBERS},
    "split": {"fractions": NUMBERS, "standardize": BOOLEAN},
}
FIELDS = {"hidden": "hidden_sizes", "fractions": "split_fractions"}


def load_config(path=None, seed=0):
    """The run's TrainConfig, from each value the file sets."""
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ValueError(f"config file {path}: {' '.join(str(exc).split())}") from None
        if not read:
            raise ValueError(f"config file {path} not found")
    values = {}
    # [DEFAULT] first: configparser copies its keys into every section
    for section in (parser.default_section, *parser.sections()):
        for key, text in parser[section].items():
            parse = CONFIG_KEYS.get(section, {}).get(key)
            if parse is None:
                raise ValueError(f"config file {path}: unknown key {key!r} in [{section}]")
            try:
                values[FIELDS.get(key, key)] = parse(text)
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"config file {path}: [{section}] {key}: {exc}") from None
    try:
        return TrainConfig(**values, seed=seed)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from None


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out, started):
    meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "wall_seconds": time.monotonic() - started}
    (out / "meta.json").write_text(json.dumps(meta) + "\n")


def _write_table(path, rows, header):
    """A CSV file of dict rows under the header, which names each row's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def cmd_similarity(args):
    cfg = load_config(args.config, args.seed)  # the prior train fits, on its train split
    train = prepare_splits(load_dataset(args), cfg)[0]
    sim = similarity_from_dataset(train, args.lda_components, args.ridge)
    out = _outdir(args)
    sim_path = out / "similarity.txt"
    sim_path.write_text(ldamod.format_similarity(sim), encoding="utf-8")
    cells = ({"i": i, "j": j, "a_ij": a_ij} for i, row in enumerate(sim.a.tolist())
             for j, a_ij in enumerate(row))
    _write_table(out / "similarity_heatmap.csv", cells, ["i", "j", "a_ij"])
    print(f"similarity matrix for k={sim.k} written to {sim_path}")
    print(f"checksum = {similarity_checksum(sim)}")
    return EXIT_OK


def cmd_train(args):
    tc = load_config(args.config, args.seed)
    if (given := args.similarity is not None) and not VARIANTS[tc.variant].similarity:
        raise ValueError(f"mcel train: argument --similarity: loss variant {tc.variant!r} "
                         "takes no similarity matrix")
    fits_lda = VARIANTS[tc.variant].similarity and not given  # on the train split
    for flag, value in (("--lda-components", args.lda_components), ("--ridge", args.ridge)):
        if value is not None and not fits_lda:
            raise ValueError(f"mcel train: argument {flag}: no LDA is fitted for loss variant "
                             f"{tc.variant!r}{' with --similarity' if given else ''}")
    dataset = load_dataset(args)
    if len(tc.epsilon) not in (1, dataset.k):
        raise ValueError(f"config file {args.config}: [loss] epsilon has "
                         f"{len(tc.epsilon)} values, the data has {dataset.k} classes")
    sim = ldamod.load_similarity(args.similarity) if given else None
    if sim is not None and sim.k != dataset.k:
        raise DimensionError(f"similarity matrix is {sim.k} x {sim.k}, "
                             f"the model has {dataset.k} classes")
    started = time.monotonic()
    train, val, test = prepare_splits(dataset, tc)
    if fits_lda:
        sim = similarity_from_dataset(train, args.lda_components, args.ridge)
    out = Path(args.out)

    def on_epoch(record):
        # the first finished epoch makes --out and clears an earlier run's
        # files; each epoch is on disk as it ends
        first = record["epoch"] == 0
        if first:
            _outdir(args)
            for name in ("report.json", "model.ckpt", "meta.json"):
                (out / name).unlink(missing_ok=True)
        with open(out / "epochs.jsonl", "w" if first else "a") as stream:
            stream.write(json.dumps(record, sort_keys=True) + "\n")

    report, model = run_training(train, val, test, tc, sim, on_epoch)
    _write_meta(out, started)
    save_checkpoint(model, out / "model.ckpt")
    (out / "report.json").write_text(dumps_report(report))  # last: it marks a finished run
    print(
        f"best val acc {report['best_val_acc']:.4f} at epoch {report['best_epoch']}; "
        f"test top-1 {report['test_top1']:.4f}, top-{report['topk']} {report['test_topk']:.4f}"
    )
    return EXIT_OK


def cmd_gridsearch(args):
    base = load_config(args.config)
    dataset = load_dataset(args)
    started = time.monotonic()
    result = run_grid_search(dataset, base, args.epsilons, args.seeds, args.lda_components,
                             args.ridge)
    out = _outdir(args)
    (out / "grid.json").write_text(dumps_report(result))
    _write_table(out / "grid_curve.csv", result["grid"],
                 ["epsilon", "mean_val_acc", "std_val_acc"])
    _write_meta(out, started)
    print(f"grid {list(args.epsilons)} -> selected epsilon = {result['selected_epsilon']}")
    return EXIT_OK


def cmd_noise_exp(args):
    base = load_config(args.config)
    dataset = load_dataset(args)
    started = time.monotonic()
    result = run_noise_experiment(dataset, args.pairs, args.fractions, args.seeds, base,
                                  args.epsilon_candidates, args.lda_components)
    out = _outdir(args)
    for stale in out.glob("noise_mask_f*_s*.txt"):  # an earlier run's cells
        stale.unlink()
    _write_table(out / "noise.csv", result["rows"],
                 ["fraction", "seed", "variant", "epsilon", "test_top1"])
    for (fraction, seed), idx in result["masks"].items():
        mask_path = out / f"noise_mask_f{fraction}_s{seed}.txt"
        mask_path.write_text("".join(f"{int(i)}\n" for i in idx))
    (out / "noise.json").write_text(dumps_report({k: result[k] for k in ("pairs", "rows")}))
    _write_meta(out, started)
    print(f"noise experiment over fractions {list(args.fractions)}, pairs {result['pairs']}")
    return EXIT_OK


def cmd_gradcheck(args):
    results = run_all(args.k, args.trials, args.seed)
    failed = False
    for name, err in results.items():
        ok = err <= REL_TOL  # false for a NaN error
        failed = failed or not ok
        print(f"{name:14s} max relative error {err:.3e}  [{'ok' if ok else 'FAIL'}]")
    return EXIT_GRADCHECK if failed else EXIT_OK


def build_parser():
    parser = Parser(
        prog="mcel",
        description="Mixed cross-entropy loss experiments with an LDA similarity prior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("similarity", help="build and save a class-similarity matrix")
    add_dataset_flags(p)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--ridge", type=RIDGE)
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("train", help="train and evaluate one model")
    add_dataset_flags(p)
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--similarity", default=None, metavar="PATH")
    p.add_argument("--ridge", type=RIDGE)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gridsearch", help="epsilon grid search")
    add_dataset_flags(p)
    p.add_argument("--epsilons", default=(0.0, 0.1, 0.2, 0.3, 0.4, 0.45), type=_flag(
        "a list of numbers", _items(float), partial(check_epsilons, what="grid epsilon")))
    p.add_argument("--seeds", type=SEEDS, default=(0,))
    p.add_argument("--ridge", type=RIDGE)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("noise-exp", help="pairwise label-noise robustness comparison")
    add_dataset_flags(p)
    p.add_argument("--fractions", default=(0.3,), type=_flag(
        "a list of numbers", _items(float), datamod.check_noise_fractions,
        partial(_distinct, what="noise fraction")))
    p.add_argument("--seeds", type=SEEDS, default=(0,))
    p.add_argument("--pairs", type=_flag("A:B,C:D", _items(_pair), datamod.check_pairs),
                   metavar="A:B,C:D", help="default 0:1,2:3,... over the data's classes")
    p.add_argument("--epsilon-candidates", default=(0.2,), type=_flag(
        "a list of numbers", _items(float), partial(check_epsilons, what="epsilon candidate")))
    p.set_defaults(func=cmd_noise_exp)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--k", type=_flag("an integer", _at_least(2)), default=5)
    p.add_argument("--trials", type=_flag("an integer", _at_least(1)), default=50)
    p.add_argument("--seed", type=SEED, default=0)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # argparse cannot make one flag require another
        if getattr(args, "data_csv", None) is not None and args.label_col is None:
            raise ValueError(f"mcel {args.command}: argument --label-col: required with --data-csv")
        return args.func(args)
    except (McelError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        # bad flags, values and paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
