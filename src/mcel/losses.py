"""The mixed cross-entropy loss family: one batch kernel for every variant.

Every variant trains against a target matrix H whose row y blends the
one-hot label y with class-similarity mass:
  * ce            - H = I
  * mcel          - one mixing weight epsilon, H[y] = eps * A[y] + (1 - eps) at y
  * sg-mcel       - one mixing weight per class
  * gmcel         - a full mixture matrix E, H = E = target_matrix(A, eps)
  * *-soft        - sg-mcel and gmcel on a similarity A that the trainer
                    re-estimates from the model's correct predictions
                    after every epoch

initial_mixing gives a variant's mixing state on a similarity matrix,
target_matrix builds H from it, and batch_loss returns a batch's loss with
its exact gradient for the logits. The trainer steps on batch_loss and
gradcheck verifies it.

Probabilities are clamped to [1e-12, 1] inside logs; all other arithmetic
is straight float64.
"""

import numpy as np

from .errors import DimensionError

PROB_CLAMP = 1e-12
VARIANTS = ("ce", "mcel", "sg-mcel", "gmcel", "sg-mcel-soft", "gmcel-soft")


def target_matrix(sim, params):
    """Target matrix H: row y is the training target of label y.

    params is the mixing state a trainer holds. A vector of per-class
    epsilons gives H[y] = eps_y * A[y] with 1 - eps_y on the diagonal; a
    k x k mixture matrix E is H itself.
    """
    if params.ndim == 2:
        return params
    k = params.shape[0]
    if sim.k != k:
        raise DimensionError(f"need {sim.k} epsilons, got {k}")
    h = params[:, None] * sim.a
    h[np.arange(k), np.arange(k)] = 1.0 - params
    return h


def initial_mixing(variant, k, sim, epsilon, epsilons=None):
    """The mixing state of a `variant` run on the similarity matrix sim.

    ce trains on E = I. mcel, sg-mcel and sg-mcel-soft hold k per-class
    epsilons in [0, 0.5): every one is epsilon, unless the sg variants get
    their own epsilons. gmcel and gmcel-soft hold the mixture matrix E of
    the simple loss, E = target_matrix(sim, epsilon).
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
    return target_matrix(sim, eps) if variant.startswith("gmcel") else eps


def batch_loss(probs, targets):
    """Summed mixed cross-entropy of one batch and its exact logit gradient.

    probs is n x k softmax output and targets = target_matrix(sim,
    params)[labels]. Returns (value, grad_logits):

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

