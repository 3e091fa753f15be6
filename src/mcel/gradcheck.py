"""Finite-difference verification of the batch loss kernel.

For every CLI loss variant, central differences with h = 1e-6 check the
gradients that losses.batch_loss returns for the logits and, for the
soft variants, for the trainable mixing parameters. The trainer steps on
the same function. Used both by the test suite and the `mcel gradcheck`
CLI command.
"""

import numpy as np

from .lda import SimilarityMatrix
from .losses import (
    VARIANTS, PenaltyWeights, batch_loss, initial_mixing, softmax, target_matrix,
)

FD_STEP = 1e-6
REL_TOL = 1e-5


def central_diff(fn, x, h=FD_STEP):
    """Central finite differences of a scalar function, one entry at a time."""
    x = np.asarray(x, dtype=float)
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
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_similarity(rng, k):
    a = rng.random((k, k)) + 0.1
    np.fill_diagonal(a, 0.0)
    a = a / a.sum(axis=1, keepdims=True)
    return SimilarityMatrix(k, a)


def random_case(variant, rng, k):
    """Random mixing state for one variant: (params, sim, margins, penalties).

    The state is the variant's initial_mixing at a random epsilon, or at
    random per-class epsilons for the sg variants. penalties is None for
    the fixed variants. The soft matrix variant gets a trained state
    instead: entries in (0, 1) whose rows need not sum to 1, and a
    different margin for each class.
    """
    sim = random_similarity(rng, k)
    epsilons = rng.uniform(0.05, 0.45, size=k) if variant.startswith("sg-") else None
    params, margins = initial_mixing(variant, k, sim, float(rng.uniform(0.05, 0.45)), epsilons)
    if variant == "gmcel-soft":
        params = rng.uniform(0.05, 0.95, size=(k, k))
        margins = rng.uniform(0.05, 0.3, size=k)
    penalties = None
    if variant.endswith("-soft"):
        penalties = PenaltyWeights(
            *(float(v) for v in rng.uniform(0, 2, size=4)), p=2.0
        )
    return params, sim, margins, penalties


def check_variant(variant, k, trials, seed, corrupt=0.0, batch_size=4):
    """Worst relative FD error of batch_loss's gradients over random batches."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params, sim, margins, penalties = random_case(variant, rng, k)
        labels = rng.integers(k, size=batch_size)
        logits = rng.normal(0, 2, size=(batch_size, k))

        def loss(lg, mix):
            targets = target_matrix(sim, mix)[labels]
            return batch_loss(softmax(lg), labels, targets, penalties, mix, sim, margins)

        _, grad_logits, grad_mixing = loss(logits, params)
        num = central_diff(lambda lg: loss(lg, params)[0], logits)
        worst = max(worst, max_rel_error(grad_logits + corrupt, num))
        if penalties is not None:
            num = central_diff(lambda mix: loss(logits, mix)[0], params.copy())
            worst = max(worst, max_rel_error(grad_mixing + corrupt, num))
    return worst


def run_all(k=5, trials=50, seed=0, corrupt=0.0):
    """Max relative finite-difference error per loss variant. The soft
    variants also probe every mixing parameter, so they run a fifth of the
    trials."""
    return {
        variant: check_variant(
            variant, k, max(1, trials // 5) if variant.endswith("-soft") else trials,
            seed + i, corrupt,
        )
        for i, variant in enumerate(VARIANTS)
    }
