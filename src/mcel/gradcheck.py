"""Finite-difference verification of the trainer's batch step.

For every CLI loss variant, net.batch_gradient, the gradient the trainer
steps on, is checked against central differences with h = 1e-8 of the
objective it differentiates, over a small net's params. Used both by the
test suite and the `mcel gradcheck` CLI command.
"""

import numpy as np

from .data import check_size
from .lda import SimilarityMatrix
from .losses import VARIANTS, batch_values, build_targets
from .net import batch_gradient, forward_batch, init_model

FD_STEP = 1e-6
NET_FD_STEP = 1e-8  # step_error's: a probe this short seldom crosses a ReLU kink
REL_TOL = 1e-5
BATCH_SIZE = 4


def central_diff(fn, x, h=FD_STEP):
    """Central finite differences of fn at the float array x, one entry at a
    time; x is bumped in place and ends as it began."""
    grad = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        hi = fn(x)
        x[i] = orig - h
        grad[i] = (hi - fn(x)) / (2.0 * h)
        x[i] = orig
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_similarity(rng, k):
    return SimilarityMatrix.from_scores(rng.random((k, k)) + 0.1)


def step_error(model, x, targets, weight_decay):
    """Worst relative error of batch_gradient against central differences of
    batch_values / n + weight_decay/2 * |W|^2 over model.params, which end as they began."""
    grads = model.copy()
    batch_gradient(model, x, targets, weight_decay, grads)
    def objective(_):  # central_diff bumps model.params in place
        penalty = weight_decay / 2 * np.dot(model.weight_params, model.weight_params)
        return batch_values(forward_batch(model, x)[0], targets, len(x))[0] / len(x) + penalty
    return max_rel_error(grads.params, central_diff(objective, model.params, NET_FD_STEP))


def check_variant(variant, k, trials, seed):
    """Worst step_error on a 3-4-k net over random batches, weight decays in
    [0, 0.1) and H on random similarities and per-class epsilons (ce: H = I)."""
    rng = np.random.default_rng(seed)
    model = init_model((3, 4, k), seed)
    errors = []
    for _ in range(trials):
        sim = random_similarity(rng, k)
        epsilon = rng.uniform(0.05, 0.45, size=k) if VARIANTS[variant].similarity else ()
        targets = build_targets(variant, k, sim, epsilon)[rng.integers(k, size=BATCH_SIZE)]
        x = rng.normal(size=(BATCH_SIZE, 3))  # no probability nears batch_values' 1e-12 clamp
        errors.append(step_error(model, x, targets, rng.uniform(0, 0.1)))
    return float(np.max(errors))  # a NaN error stays NaN, which fails


def run_all(k, trials, seed):
    """Max relative finite-difference error per loss variant."""
    check_size(k, k)
    return {
        variant: check_variant(variant, k, trials, seed + i)
        for i, variant in enumerate(VARIANTS)
    }
