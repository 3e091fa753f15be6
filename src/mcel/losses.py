"""The mixed cross-entropy loss family: one batch kernel for every variant.

Every variant trains against a target matrix H whose row y blends the
one-hot label y with class-similarity mass:
  * ce            - H = I
  * mcel          - one mixing weight epsilon, H[y] = eps * A[y] + (1 - eps) at y
  * sg-mcel       - one mixing weight per class
  * gmcel         - the H of mcel, named for the paper's mixture-matrix loss
  * *-soft        - sg-mcel and gmcel on a similarity A that the trainer
                    re-estimates from the model's correct predictions
                    after every epoch

build_targets gives a variant's H on a similarity matrix, and batch_loss
returns a batch's loss with its exact gradient for the logits. The trainer
steps on batch_loss and gradcheck verifies it.

Probabilities are clamped to [1e-12, 1] inside logs; all other arithmetic
is straight float64.
"""

import numpy as np

from .errors import DimensionError

PROB_CLAMP = 1e-12
VARIANTS = ("ce", "mcel", "sg-mcel", "gmcel", "sg-mcel-soft", "gmcel-soft")


def target_matrix(sim, eps):
    """Target matrix H: row y is eps_y * A[y] with 1 - eps_y on the diagonal."""
    k = sim.k
    if eps.shape != (k,):
        raise DimensionError(f"need {k} epsilons, got {eps.size}")
    h = eps[:, None] * sim.a
    h[np.arange(k), np.arange(k)] = 1.0 - eps
    return h


def build_targets(variant, k, sim, epsilon, epsilons=None):
    """Target matrix H of a `variant` run on the similarity matrix sim.

    ce trains on H = I. Every other variant trains on target_matrix(sim,
    eps), where eps holds k per-class epsilons in [0, 0.5): every one is
    epsilon, unless the sg variants get their own epsilons.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}; pick one of {VARIANTS}")
    if epsilons is not None and not variant.startswith("sg-"):
        raise ValueError(f"per-class epsilons need sg-mcel or sg-mcel-soft, not {variant!r}")
    if variant == "ce":
        return np.eye(k)
    if sim is None:
        raise ValueError(f"loss variant {variant!r} needs a similarity matrix")
    if sim.k != k:
        raise DimensionError(f"similarity matrix is {sim.k} x {sim.k}, the model has {k} classes")
    if not 0.0 <= epsilon < 0.5:
        raise ValueError(f"epsilon must be in [0, 0.5), got {epsilon}")
    eps = np.full(k, float(epsilon)) if epsilons is None else np.array(epsilons, dtype=float)
    if eps.shape != (k,):
        raise DimensionError(f"need {k} epsilons, got {eps.size}")
    if not np.all((eps >= 0.0) & (eps < 0.5)):
        raise ValueError("every epsilon must be in [0, 0.5)")
    return target_matrix(sim, eps)


def batch_loss(probs, targets):
    """Summed mixed cross-entropy of one batch and its exact logit gradient.

    probs is n x k softmax output and targets = H[labels], the rows of a
    target matrix H. Returns (value, grad_logits):

      value       = -sum(targets * log clamp(probs))
      grad_logits = probs * rowsum(targets) - targets, exact through the
                    softmax also when a target row does not sum to 1
    """
    terms = np.maximum(probs, PROB_CLAMP)  # a copy: neither argument is written
    np.log(terms, out=terms)
    terms *= targets
    grad = probs * np.add.reduce(targets, axis=1)[:, None]
    grad -= targets
    return -float(np.add.reduce(terms, axis=None)), grad


def softmax(logits):
    """Max-shifted softmax; safe for large logits."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted

