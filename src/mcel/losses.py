"""The mixed cross-entropy loss family: one batch kernel for every variant.

Every variant trains against a target matrix H whose row y blends the
one-hot label y with class-similarity mass: H = I for ce, and
target_matrix(A, eps) for the rest. VARIANTS says what each name means.

check_loss checks a run's loss settings, and check_epsilons is the one
statement of the [0, 0.5) epsilon range. build_targets gives a variant's H
on a similarity matrix; like target_matrix, it trusts that the matrix has
the model's k and that there is one epsilon or k, which cli.cmd_train
checks. logit_grad, softmax - H[y] (every H row sums to 1 within 1e-12),
is the logit gradient of batch_values, which sums each epoch's loss; the
trainer's step, net.batch_gradient, runs it, and gradcheck verifies that step.

Probabilities are clamped to [1e-12, 1] inside logs; all other arithmetic
is straight float64.
"""

from collections import namedtuple

import numpy as np

PROB_CLAMP = 1e-12

# What each training means: whether it trains on a similarity A (ce does
# not) and re-estimates A after each epoch. Six names cover three trainings:
# sg-mcel and gmcel are names of mcel's row, gmcel-soft of sg-mcel-soft's.
Variant = namedtuple("Variant", "similarity moves")
MCEL, SOFT = Variant(True, False), Variant(True, True)
VARIANTS = {"ce": Variant(False, False), "mcel": MCEL, "sg-mcel": MCEL, "gmcel": MCEL,
            "sg-mcel-soft": SOFT, "gmcel-soft": SOFT}


def target_matrix(sim, eps):
    """Target matrix H: row y is eps_y * A[y] with 1 - eps_y on the diagonal."""
    k = sim.k
    h = eps[:, None] * sim.a
    h[np.arange(k), np.arange(k)] = 1.0 - eps
    return h


def check_epsilons(values, what):
    """Every epsilon must lie in [0, 0.5); the error names the first that does not."""
    for eps in values:
        if not 0.0 <= eps < 0.5:
            raise ValueError(f"{what} {eps} outside [0, 0.5)")


def check_loss(variant, epsilon):
    """The loss settings of a run: a known variant and one or more epsilons, each in range."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}; pick one of {tuple(VARIANTS)}")
    if np.ndim(epsilon) != 1 or len(epsilon) == 0:
        raise ValueError(f"epsilon must be a sequence of one number or more, got {epsilon!r}")
    check_epsilons(epsilon, "epsilon")


def build_targets(variant, k, sim, epsilon):
    """Target matrix H of a `variant` run on the similarity matrix sim.

    ce trains on H = I. Every other variant trains on target_matrix(sim,
    eps), where eps is epsilon broadcast to k: one value for every class,
    or one per class. Nothing is checked here: TrainConfig ran check_loss
    on the settings when it was made, and a similarity variant gets a sim
    of the model's k and one epsilon or k.
    """
    if not VARIANTS[variant].similarity:
        return np.eye(k)
    return target_matrix(sim, np.broadcast_to(epsilon, k))


def logit_grad(probs, targets):
    """probs - targets: the summed loss's exact logit gradient, as every H row sums to 1."""
    return probs - targets


def batch_values(probs, targets, size):
    """-sum(targets * log clamp(probs)) of each batch of `size` consecutive
    rows (the last may be shorter); probs is n x k softmax output and
    targets = H[labels], the rows of a target matrix H."""
    terms = np.maximum(probs, PROB_CLAMP)  # a copy: neither argument is written
    np.log(terms, out=terms)
    terms *= targets
    full = len(terms) // size * size  # each batch is summed as one contiguous run
    sums = np.add.reduce(terms[:full].reshape(-1, size * terms.shape[1]), axis=1)
    if full < len(terms):
        sums = np.append(sums, np.add.reduce(terms[full:], axis=None))
    return np.negative(sums, out=sums)


def softmax(logits, out=None):
    """Max-shifted softmax of a float array, safe for large logits; out is filled if given."""
    shifted = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(shifted, out=shifted)
    shifted /= np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted

