"""The mixed cross-entropy loss family: one batch kernel for every variant.

Every variant trains against a target matrix H whose row y blends the
one-hot label y with class-similarity mass:
  * ce            - H = I
  * mcel          - one mixing weight epsilon, H[y] = eps * A[y] + (1 - eps) at y
  * sg-mcel       - one mixing weight per class
  * gmcel         - a full mixture matrix E with per-class margins, H = E
  * *-soft        - the per-class or matrix mixing parameters are trained
                    too, under soft penalties

target_matrix builds H, and batch_loss returns a batch's loss with its
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
class SimpleMixing:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must be in [0, 0.5), got {self.epsilon}")


@dataclass(frozen=True)
class PerClassMixing:
    epsilons: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.ndim != 1:
            raise DimensionError("epsilons must be a vector")
        if np.any(eps < 0.0) or np.any(eps >= 0.5):
            raise ValueError("every epsilon must be in [0, 0.5)")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)


@dataclass(frozen=True)
class MatrixMixing:
    """Row-stochastic mixture matrix with diagonal dominance margins:
    E[i,i] > E[i,j] + margins[i] for all j != i."""

    e_matrix: np.ndarray
    margins: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.e_matrix, dtype=float)
        c = np.asarray(self.margins, dtype=float)
        k = e.shape[0]
        if e.shape != (k, k) or c.shape != (k,):
            raise DimensionError("need a k x k matrix and k margins")
        if np.any(c <= 0.0):
            raise ValueError("margins must be strictly positive")
        sums = e.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
        if bad.size:
            raise ValueError(f"row {int(bad[0])} of E sums to {sums[bad[0]]!r}")
        for i in range(k):
            for j in range(k):
                if i != j and e[i, i] <= e[i, j] + c[i]:
                    raise ValueError(
                        f"margin violated at ({i},{j}): "
                        f"E[{i},{i}]={e[i, i]!r} <= E[{i},{j}]+c = {e[i, j] + c[i]!r}"
                    )
        e.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "e_matrix", e)
        object.__setattr__(self, "margins", c)

    @property
    def k(self):
        return self.e_matrix.shape[0]


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


def mixing_from_simple(sim, epsilon):
    """The matrix-mixing encoding of the simple loss: off-diagonal
    eps*A[i,j], diagonal 1-eps, margins (0.5-eps)/2."""
    spec = SimpleMixing(epsilon)
    e = target_matrix(sim, np.full(sim.k, spec.epsilon))
    return MatrixMixing(e, np.full(sim.k, (0.5 - spec.epsilon) / 2.0))


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

