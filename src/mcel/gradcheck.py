"""Finite-difference verification of the batch loss kernel.

For every CLI loss variant, the trainer's logit_grad is checked against
central differences with h = 1e-6 of its batch_values, on one batch. Used
both by the test suite and the `mcel gradcheck` CLI command.
"""

import numpy as np

from .data import check_size
from .lda import SimilarityMatrix
from .losses import VARIANTS, batch_values, build_targets, logit_grad, softmax

FD_STEP = 1e-6
REL_TOL = 1e-5
BATCH_SIZE = 4


def central_diff(fn, x, h=FD_STEP):
    """Central finite differences of fn at the float array x, one entry at a time."""
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        hi = fn(x)
        xflat[i] = orig - h
        lo = fn(x)
        xflat[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_similarity(rng, k):
    return SimilarityMatrix.from_scores(rng.random((k, k)) + 0.1)


def random_targets(variant, rng, k):
    """Target matrix H of one variant at a random similarity matrix and k
    random per-class epsilons; ce, whose H is I, draws no epsilons."""
    sim = random_similarity(rng, k)
    epsilon = rng.uniform(0.05, 0.45, size=k) if VARIANTS[variant].similarity else ()
    return build_targets(variant, k, sim, epsilon)


def check_variant(variant, k, trials, seed):
    """Worst relative FD error of logit_grad against batch_values over random batches."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        h = random_targets(variant, rng, k)
        targets = h[rng.integers(k, size=BATCH_SIZE)]
        logits = rng.normal(0, 2, size=(BATCH_SIZE, k))
        grad_logits = logit_grad(softmax(logits), targets)
        num = central_diff(lambda lg: batch_values(softmax(lg), targets, BATCH_SIZE)[0], logits)
        errors.append(max_rel_error(grad_logits, num))
    return float(np.max(errors))  # a NaN error stays NaN, which fails


def run_all(k, trials, seed):
    """Max relative finite-difference error per loss variant."""
    check_size(k, k)
    return {
        variant: check_variant(variant, k, trials, seed + i)
        for i, variant in enumerate(VARIANTS)
    }
