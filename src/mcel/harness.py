"""Experiment drivers shared by the CLI: single training runs, the epsilon
grid search, and the pairwise label-noise comparison.

Every driver returns a plain-dict report that serializes deterministically
(sorted keys, repr floats); wall-clock timing lives outside the payload so
reruns with identical seeds are byte-identical.
"""

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import data as datamod
from . import lda as ldamod
from .losses import VARIANTS
from .net import Trainer, evaluate, init_model, top1

DEFAULT_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.45)


def dumps_report(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def similarity_checksum(sim):
    return hashlib.sha256(ldamod.format_similarity(sim).encode()).hexdigest()


def config_echo(cfg, hidden_sizes, topk):
    return {**asdict(cfg), "hidden_sizes": list(hidden_sizes), "topk": topk}


@dataclass
class RunResult:
    report: dict
    model: object
    wall_seconds: float


def run_training(train, val, test, cfg, hidden_sizes, sim=None, topk=5,
                 epoch_callback=None):
    """Train, keep the best-validation snapshot, evaluate it on test."""
    started = time.monotonic()
    model = init_model((train.dim, *hidden_sizes, train.k), cfg.seed)
    trainer = Trainer(model, cfg, sim)
    records = []
    best = {"epoch": -1, "val_acc": -1.0, "snapshot": None}
    for epoch in range(cfg.epochs):
        metrics = trainer.train_epoch(train)
        val_top1 = top1(model, val)[0]
        record = {
            "epoch": epoch,
            "train_loss": metrics["mean_loss"],
            "train_acc": metrics["accuracy"],
            "val_acc": val_top1,
        }
        records.append(record)
        if val_top1 > best["val_acc"]:
            best = {"epoch": epoch, "val_acc": val_top1, "snapshot": model.copy()}
        if epoch_callback is not None:
            epoch_callback(record)
    best_model = best["snapshot"]
    test_top1, test_topk, _ = evaluate(best_model, test, topk)
    report = {
        "config": config_echo(cfg, hidden_sizes, topk),
        "epochs": records,
        "best_epoch": best["epoch"],
        "best_val_acc": best["val_acc"],
        "test_top1": test_top1,
        "test_topk": test_topk,
        "topk": min(topk, train.k),
        "similarity_checksum": similarity_checksum(sim) if sim is not None else None,
    }
    mixing = VARIANTS[cfg.variant].learned_mixing
    if mixing is not None:
        # the final H, or the epsilons, which do not move
        eps = cfg.epsilons if cfg.epsilons is not None else (cfg.epsilon,) * train.k
        report["learned_mixing"] = (trainer.targets.tolist() if mixing == "targets"
                                    else [float(e) for e in eps])
        report["learned_similarity"] = trainer.sim.a.tolist()
    return RunResult(report, best_model, time.monotonic() - started)


def similarity_from_dataset(train, num_components=None, ridge=None):
    model = ldamod.fit_lda(train, num_components=num_components, ridge=ridge)
    return ldamod.build_similarity_matrix(model)


def _simple_config(base_cfg, seed, eps):
    """mcel at eps; at epsilon 0 its H is exactly I, so it trains as ce."""
    return replace(base_cfg, seed=seed, variant="mcel", epsilon=eps, epsilons=None)


def run_grid_search(make_splits, base_cfg, hidden_sizes, epsilons=DEFAULT_GRID,
                    seeds=(0,), topk=5):
    """One mcel training run per (epsilon, seed).

    make_splits(seed) must return (train, val, test, sim); it is called
    once per seed, and only one seed's splits are alive at a time. Runs are
    reported epsilon-major. Selection is the highest mean best-validation
    accuracy, ties toward smaller epsilon.
    """
    for eps in epsilons:
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"grid epsilon {eps} outside [0, 0.5)")
    runs = {}
    for j, seed in enumerate(seeds):
        train, val, test, sim = make_splits(seed)
        for i, eps in enumerate(epsilons):
            result = run_training(train, val, test, _simple_config(base_cfg, seed, eps),
                                  hidden_sizes, sim, topk)
            runs[i, j] = {"epsilon": eps, "seed": seed,
                          "val_acc": result.report["best_val_acc"],
                          "test_top1": result.report["test_top1"]}
        del train, val, test, sim
    rows = [runs[i, j] for i in range(len(epsilons)) for j in range(len(seeds))]
    curve = []
    for i, eps in enumerate(epsilons):
        accs = [runs[i, j]["val_acc"] for j in range(len(seeds))]
        curve.append(
            {
                "epsilon": eps,
                "mean_val_acc": float(np.mean(accs)),
                "std_val_acc": float(np.std(accs)),
            }
        )
    best = max(curve, key=lambda c: (c["mean_val_acc"], -c["epsilon"]))
    return {"grid": curve, "runs": rows, "selected_epsilon": best["epsilon"]}


def run_noise_experiment(dataset, pairs, fractions, seeds, base_cfg, hidden_sizes,
                         epsilon_candidates=(0.2,), split_fractions=(0.7, 0.15, 0.15),
                         topk=5, lda_components=None):
    """CE vs MCEL at each noise fraction; noise touches the train split only.

    For each seed the MCEL epsilon comes from the candidate list by clean
    validation accuracy (evaluated on the untouched validation split).
    Returns comparison rows plus the per-run noise masks (train-split row
    indices that were flipped).
    """
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"noise fraction {fraction} outside [0, 1]")
    for eps in epsilon_candidates:
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"epsilon candidate {eps} outside [0, 0.5)")
    rows = []
    masks = {}
    for fraction in fractions:
        for seed in seeds:
            train, val, test = datamod.split(dataset, split_fractions, seed)
            spec = datamod.NoiseSpec(pairs, fraction, seed)
            noisy_train, mask = datamod.inject_pairwise_noise(train, spec)
            masks[(fraction, seed)] = np.flatnonzero(mask)
            sim = similarity_from_dataset(noisy_train, lda_components)

            ce_cfg = _simple_config(base_cfg, seed, 0.0)
            ce_run = run_training(noisy_train, val, test, ce_cfg, hidden_sizes, sim, topk)
            rows.append(
                {"fraction": fraction, "seed": seed, "variant": "ce",
                 "epsilon": 0.0, "test_top1": ce_run.report["test_top1"]}
            )

            best = None
            for eps in epsilon_candidates:
                cfg = _simple_config(base_cfg, seed, eps)
                run = run_training(noisy_train, val, test, cfg, hidden_sizes, sim, topk)
                key = (run.report["best_val_acc"], -eps)
                if best is None or key > best[0]:
                    best = (key, eps, run)
            _, eps, run = best
            rows.append(
                {"fraction": fraction, "seed": seed, "variant": "mcel",
                 "epsilon": eps, "test_top1": run.report["test_top1"]}
            )
    return {"rows": rows, "masks": masks}
