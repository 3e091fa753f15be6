"""Spans around calls into mcel's public functions, and the per-layer
metrics derived from them.

The tracer swaps each traced function for a wrapper in every loaded mcel
module that binds it (``from .net import evaluate`` makes a second binding
in harness), and puts the originals back on exit. A span records its name,
start, end and parent span; self time is duration minus the children.
"""

import hashlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import mcel.cli  # noqa: F401  (loads every module the CLI binds names in)
from mcel import data, harness, lda, net

# span name -> (owner, attribute)
TRACED = {
    "data.load_csv": (data, "load_csv"),
    "data.load_idx": (data, "load_idx"),
    "data.split": (data, "split"),
    "data.standardize": (data, "standardize"),
    "data.inject_pairwise_noise": (data, "inject_pairwise_noise"),
    "lda.fit_lda": (lda, "fit_lda"),
    "lda.scatter_matrices": (lda, "scatter_matrices"),
    "lda.eig": (lda, "solve_generalized_symmetric_eig"),
    "lda.build_similarity_matrix": (lda, "build_similarity_matrix"),
    "harness.run_training": (harness, "run_training"),
    "harness.dumps_report": (harness, "dumps_report"),
    "net.train_epoch": (net.Trainer, "train_epoch"),
    "net.step_mixing": (net.Trainer, "_step_mixing"),
    "net.forward_batch": (net, "forward_batch"),
    "net.target_rows": (net, "_target_rows"),
    "net.backprop": (net, "backprop"),
    "net.check_finite": (net.MlpModel, "check_finite"),
    "net.evaluate": (net, "evaluate"),
    "net.copy": (net.MlpModel, "copy"),
    "net.save_checkpoint": (net, "save_checkpoint"),
}

# The layers each per-layer metric reads, summed (total or self time).
TOTALS = {
    "data.load_s": ["data.load_csv", "data.load_idx"],
    "data.prep_s": ["data.split", "data.standardize", "data.inject_pairwise_noise"],
    "lda.scatter_s": ["lda.scatter_matrices"],
    "lda.eig_s": ["lda.eig"],
    "lda.similarity_s": ["lda.build_similarity_matrix"],
    "net.epoch_s": ["net.train_epoch"],
    "net.targets_s": ["net.target_rows"],
    "net.backprop_s": ["net.backprop"],
    "net.guard_s": ["net.check_finite"],
    "net.mix_step_s": ["net.step_mixing"],
    "net.evaluate_s": ["net.evaluate"],
    "net.snapshot_s": ["net.copy"],
    "net.checkpoint_s": ["net.save_checkpoint"],
    "harness.report_s": ["harness.dumps_report"],
}
SELF = {
    "net.epoch_self_s": "net.train_epoch",
    "harness.run_self_s": "harness.run_training",
    "cli.self_s": "cli.main",
}
COUNTS = {
    "data.split_calls": "data.split",
    "lda.fit_calls": "lda.fit_lda",
    "net.runs": "harness.run_training",
    "net.evaluate_calls": "net.evaluate",
}
UNITS = {**dict.fromkeys(TOTALS, "s"), **dict.fromkeys(SELF, "s"),
         **dict.fromkeys(COUNTS, "count"),
         "net.forward_s": "s", "net.batches": "count", "lda.useful_fit_ratio": "ratio"}


def dataset_digest(ds):
    h = hashlib.sha1(np.ascontiguousarray(ds.features))  # hashed in place, not copied
    h.update(np.ascontiguousarray(ds.labels))
    return h.hexdigest()


class Tracer:
    """Context manager that records a span around every traced call."""

    def __init__(self, names=tuple(TRACED), hooks=None):
        self.names = names
        self.hooks = hooks or {}  # name -> hook(args, result), run after the span ends
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self._undo = []

    def span(self, name, fn):
        spans, stack, hook = self.spans, self._stack, self.hooks.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def __enter__(self):
        mods = [m for n, m in sys.modules.items() if n == "mcel" or n.startswith("mcel.")]
        for name in self.names:
            owner, attr = TRACED[name]
            orig = getattr(owner, attr)
            wrapped = self.span(name, orig)
            owners = [owner] if isinstance(owner, type) else [
                m for m in mods if getattr(m, attr, None) is orig]
            for o in owners:
                self._undo.append((o, attr, orig))
                setattr(o, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for o, attr, orig in reversed(self._undo):
            setattr(o, attr, orig)
        self._undo.clear()
        return False


def layer_metrics(spans, distinct_fits):
    """Per-layer metrics of one traced round, plus the self time of every
    span name (for the reference breakdown).

    `spans` must hold one root span named "cli.main" around the CLI call.
    """
    total = defaultdict(float)
    child = defaultdict(float)  # span index -> time covered by its children
    count = defaultdict(int)
    forward_train = 0.0
    batches = 0
    for name, start, end, parent in spans:
        total[name] += end - start
        count[name] += 1
        if parent >= 0:
            child[parent] += end - start
            if name == "net.forward_batch" and spans[parent][0] == "net.train_epoch":
                forward_train += end - start
                batches += 1
    selfs = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        selfs[name] += (end - start) - child[i]
    out = {m: sum(total[n] for n in ns) for m, ns in TOTALS.items()}
    out.update({m: selfs[n] for m, n in SELF.items()})
    out.update({m: count[n] for m, n in COUNTS.items()})
    out["net.forward_s"] = forward_train
    out["net.batches"] = batches
    out["lda.useful_fit_ratio"] = distinct_fits / count["lda.fit_lda"]
    return out, dict(selfs)
