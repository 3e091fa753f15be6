"""Experiment drivers shared by the CLI: single training runs, the epsilon
grid search, and the pairwise label-noise comparison.

Every driver returns a plain-dict report that serializes deterministically
(sorted keys, repr floats); wall-clock timing lives outside the payload so
reruns with identical seeds are byte-identical.
"""

import hashlib
import itertools
import json
from dataclasses import asdict, replace

import numpy as np

from . import data as datamod
from . import lda as ldamod
from .errors import TrainingDivergedError
from .losses import VARIANTS
from .net import Trainer, evaluate, init_model, top1


def dumps_report(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def similarity_checksum(sim):
    return hashlib.sha256(ldamod.format_similarity(sim).encode()).hexdigest()


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # divergence is raised
def run_training(train, val, test, cfg, sim=None, epoch_callback=None):
    """Train, keep the best-validation snapshot, evaluate it on test; returns
    (report, best model). A non-finite val or test output means divergence."""
    model = init_model((train.dim, *cfg.hidden_sizes, train.k), cfg.seed)
    trainer = Trainer(model, cfg, sim)
    last_batch = (train.n - 1) // cfg.batch_size
    records = []
    best = {"epoch": -1, "val_acc": -1.0, "snapshot": None}
    for epoch in range(cfg.epochs):
        metrics = trainer.train_epoch(train)
        val_top1, _, probs = top1(model, val)
        if not np.isfinite(probs).all():
            raise TrainingDivergedError(epoch, last_batch)
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
    test_top1, test_topk, _, probs = evaluate(best_model, test, cfg.topk)
    if not np.isfinite(probs).all():
        raise TrainingDivergedError(best["epoch"], last_batch)
    report = {
        "config": asdict(cfg),
        "epochs": records,
        "best_epoch": best["epoch"],
        "best_val_acc": best["val_acc"],
        "test_top1": test_top1,
        "test_topk": test_topk,
        "topk": min(cfg.topk, train.k),
        "similarity_checksum": similarity_checksum(sim) if sim is not None else None,
    }
    if VARIANTS[cfg.variant].moves:
        report["learned_mixing"] = np.broadcast_to(cfg.epsilon, train.k).tolist()
        report["learned_similarity"] = trainer.sim.a.tolist()
    return report, best_model


def similarity_from_dataset(train, num_components=None, ridge=None):
    means = ldamod.fit_lda(train, num_components=num_components, ridge=ridge)
    return ldamod.build_similarity_matrix(means)


def prepare_splits(dataset, cfg):
    """A run's train, validation and test splits, by cfg.split_fractions and
    cfg.seed, standardized by the train split's statistics if cfg.standardize."""
    train, val, test = datamod.split(dataset, cfg.split_fractions, cfg.seed)
    if cfg.standardize:
        train, val, test, _, _ = datamod.standardize(train, val, test)
    return train, val, test


def sweep(train, val, test, cfg, epsilons, lda_components=None, ridge=None):
    """mcel trained once per distinct epsilon, on the similarity of train's
    LDA: {epsilon: (best_val_acc, test_top1)}.

    At epsilon 0 H is exactly I, so that run trains as ce.
    """
    sim = similarity_from_dataset(train, lda_components, ridge)
    results = {}
    for eps in epsilons:
        if eps not in results:
            run_cfg = replace(cfg, variant="mcel", epsilon=(eps,))
            report, _ = run_training(train, val, test, run_cfg, sim)
            results[eps] = (report["best_val_acc"], report["test_top1"])
    return results


def select(accuracy):
    """The epsilon of highest accuracy; ties go to the smaller epsilon."""
    return max(accuracy, key=lambda eps: (accuracy[eps], -eps))


def run_grid_search(dataset, base_cfg, epsilons, seeds, lda_components=None, ridge=None):
    """One mcel training run per (distinct epsilon, seed).

    Each seed splits the data once, and only one seed's splits are alive at
    a time. Runs and the curve have one row per listed epsilon,
    epsilon-major. Selection is the highest mean best-validation accuracy.
    """
    per_seed = []
    for seed in seeds:
        cfg = replace(base_cfg, seed=seed)
        per_seed.append(sweep(*prepare_splits(dataset, cfg), cfg, epsilons, lda_components, ridge))
    rows = [{"epsilon": eps, "seed": seed, "val_acc": runs[eps][0], "test_top1": runs[eps][1]}
            for eps in epsilons for seed, runs in zip(seeds, per_seed)]
    accs = {eps: [runs[eps][0] for runs in per_seed] for eps in epsilons}
    curve = [{"epsilon": eps, "mean_val_acc": float(np.mean(accs[eps])),
              "std_val_acc": float(np.std(accs[eps]))} for eps in epsilons]
    selected = select({row["epsilon"]: row["mean_val_acc"] for row in curve})
    return {"grid": curve, "runs": rows, "selected_epsilon": selected}


def run_noise_experiment(dataset, pairs, fractions, seeds, base_cfg, epsilon_candidates,
                         lda_components=None):
    """CE vs MCEL at each noise fraction; noise touches the train split only.

    pairs None swaps 0:1, 2:3, ... over the data's classes. Each (fraction,
    seed) cell sweeps epsilon 0 and the candidates: the ce row is the
    epsilon-0 run, and the mcel row is the candidate selected by clean
    validation accuracy (on the untouched validation split). Returns the
    pairs, comparison rows and the per-run noise masks (train-split row
    indices that were flipped).
    """
    if pairs is None:
        pairs = tuple((i, i + 1) for i in range(0, dataset.k - 1, 2))
    datamod.check_pairs(pairs, dataset.k)
    rows = []
    masks = {}
    for fraction, seed in itertools.product(fractions, seeds):
        # raw features: bench/run.py finds each LDA input row in the CSV by its bytes
        cfg = replace(base_cfg, seed=seed, standardize=False)
        train, val, test = prepare_splits(dataset, cfg)
        noisy_train, mask = datamod.inject_pairwise_noise(train, pairs, fraction, seed)
        masks[(fraction, seed)] = np.flatnonzero(mask)
        runs = sweep(noisy_train, val, test, cfg, (0.0, *epsilon_candidates), lda_components)
        eps = select({e: runs[e][0] for e in epsilon_candidates})
        cell = {"fraction": fraction, "seed": seed}
        rows.append({**cell, "variant": "ce", "epsilon": 0.0, "test_top1": runs[0.0][1]})
        rows.append({**cell, "variant": "mcel", "epsilon": eps, "test_top1": runs[eps][1]})
    return {"pairs": pairs, "rows": rows, "masks": masks}
