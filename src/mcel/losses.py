"""The mixed cross-entropy loss family: one batch kernel for every variant.

Every variant trains against a target matrix H whose row y blends the
one-hot label y with class-similarity mass:
  * ce            - H = I
  * mcel          - one mixing weight epsilon, H[y] = eps * A[y] + (1 - eps) at y
  * sg-mcel       - one mixing weight per class
  * gmcel         - a full mixture matrix E with per-class margins, H = E
  * *-soft        - the per-class or matrix mixing parameters are trained
                    too, under soft penalties

initial_mixing gives a variant's starting mixing state, target_matrix
builds H from it, and batch_loss returns a batch's loss with its
exact gradients for the logits and the trainable mixing parameters. The
trainer steps on batch_loss and gradcheck verifies it.

Probabilities are clamped to [1e-12, 1] inside logs; all other arithmetic
is straight float64.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

PROB_CLAMP = 1e-12
EPS_MARGIN = 1e-6  # how far trainable epsilons stay inside their open interval
VARIANTS = ("ce", "mcel", "sg-mcel", "gmcel", "sg-mcel-soft", "gmcel-soft")


@dataclass(frozen=True)
class PenaltyWeights:
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eta"):
            if getattr(self, name) < 0.0 or not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite and >= 0")
        if self.p < 1.0:
            raise ValueError("p must be >= 1")


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
    """The mixing state a run of `variant` starts from: (params, margins).

    ce trains on E = I. mcel, sg-mcel and sg-mcel-soft hold k per-class
    epsilons in [0, 0.5): every one is epsilon, unless the sg variants get
    their own epsilons. gmcel and gmcel-soft hold the mixture matrix E of
    the simple loss, E = target_matrix(sim, epsilon), with margins
    (0.5 - epsilon) / 2. margins is None except for the gmcel variants.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}; pick one of {VARIANTS}")
    if epsilons is not None and not variant.startswith("sg-"):
        raise ValueError(f"per-class epsilons need sg-mcel or sg-mcel-soft, not {variant!r}")
    if variant == "ce":
        return np.eye(k), None
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
    if variant.startswith("gmcel"):
        return target_matrix(sim, eps), np.full(k, (0.5 - epsilon) / 2.0)
    return eps, None


def batch_loss(probs, labels, targets, penalties=None, params=None, sim=None, margins=None):
    """Summed mixed cross-entropy of one batch and its exact gradients.

    probs is n x k softmax output and targets = target_matrix(sim,
    params)[labels]. Returns (value, grad_logits, grad_mixing):

      value       = -sum(targets * log clamp(probs)) + penalties
      grad_logits = probs * rowsum(targets) - targets, exact through the
                    softmax also when a target row does not sum to 1
      grad_mixing = d(value)/d(params); None for the fixed variants

    The fixed variants pass penalties=None and pay for nothing else. The
    soft variants pass their trainable params, the similarity matrix for
    per-class epsilons or the margins c for a mixture matrix E, and
    penalties weighted by PenaltyWeights (x = params, hi = 0.5 for
    epsilons and 1 for E):

      alpha * sum_i (rowsum(H)_i - 1)^2
      + beta * ||x - hi||_p^p + gamma * ||x||_p^p
      + eta * sum_i ((k-1) * (E[i,i] - c_i) - offdiag_row_sum_i)^2   (E only)
    """
    logp = np.log(np.maximum(probs, PROB_CLAMP))
    value = -float(np.sum(targets * logp))
    grad_logits = probs * targets.sum(axis=1)[:, None] - targets
    if penalties is None:
        return value, grad_logits, None

    w = penalties
    k = probs.shape[1]
    h = target_matrix(sim, params)
    # d(value)/dH: every sample adds its -log p to the row of its label
    cells = (labels[:, None] * k + np.arange(k)).ravel()
    grad_h = -np.bincount(cells, weights=logp.ravel(), minlength=k * k).reshape(k, k)
    row_sums = h.sum(axis=1)
    value += w.alpha * float(np.sum((row_sums - 1.0) ** 2))
    grad_h += w.alpha * 2.0 * (row_sums - 1.0)[:, None]
    if params.ndim == 2:
        grad = grad_h
        hi = 1.0
        diag = np.diag(params)
        margin_gap = (k - 1) * (diag - margins) - (row_sums - diag)
        value += w.eta * float(np.sum(margin_gap ** 2))
        grad -= w.eta * 2.0 * margin_gap[:, None]
        grad[np.arange(k), np.arange(k)] += w.eta * 2.0 * margin_gap * k
    else:
        # dH[y]/d eps_y is the similarity row with -1 on the diagonal
        dh = sim.a.copy()
        np.fill_diagonal(dh, -1.0)
        grad = np.sum(grad_h * dh, axis=1)
        hi = 0.5
    p = w.p
    value += w.beta * float(np.sum(np.abs(params - hi) ** p))
    grad += w.beta * p * np.abs(params - hi) ** (p - 1.0) * np.sign(params - hi)
    value += w.gamma * float(np.sum(np.abs(params) ** p))
    grad += w.gamma * p * np.abs(params) ** (p - 1.0) * np.sign(params)
    return value, grad_logits, grad


def softmax(logits):
    """Max-shifted softmax; safe for large logits."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=-1, keepdims=True)

