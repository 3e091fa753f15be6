"""Small fully-connected softmax classifier with manual backprop and
SGD+Momentum training.

Hidden layers are ReLU; the output layer is a max-shifted softmax. The
trainer runs any loss variant on its target matrix H from
losses.build_targets: the fixed variants just change the target rows, the
*-soft variants also re-estimate their similarity matrix from the correct
predictions of each epoch and rebuild H on it. Each batch steps on
batch_gradient, the one function gradcheck verifies.
"""

import itertools
import math
import struct
from dataclasses import InitVar, dataclass

import numpy as np

from .data import check_fractions, check_size
from .errors import TrainingDivergedError
from .lda import SimilarityMatrix
from .losses import VARIANTS, batch_values, build_targets, check_loss, logit_grad, softmax

CHECKPOINT_MAGIC = b"MCEL"
CHECKPOINT_VERSION = 1


@dataclass
class MlpModel:
    """An MLP whose parameters live in one flat vector, params: every weight,
    each (out, in), then every bias; without params, zeros after check_size
    on each weight shape and the whole vector. weights, biases and weight_params
    (the weights' span) are views of it; copy() is a snapshot training does not change."""
    layer_sizes: tuple
    params: np.ndarray = None
    biases: InitVar[list] = None  # given, params holds per-layer weights; both are copied in

    def __post_init__(self, biases):
        sizes = self.layer_sizes
        shapes = [*zip(sizes[1:], sizes), *((out,) for out in sizes[1:])]
        ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        n = len(sizes) - 1  # the weights come first
        layers = () if biases is None else [*self.params, *biases]
        if self.params is None or biases is not None:
            for shape in [*shapes[:n], ends[-1:]]:  # each weight, then the whole vector
                check_size(*shape)
            self.params = np.zeros(ends[-1])
        views = [self.params[a:b].reshape(s) for a, b, s in zip(ends, ends[1:], shapes)]
        for view, layer in zip(views, layers):
            view[...] = layer
        self.weights, self.biases = views[:n], views[n:]
        self.weight_params = self.params[:ends[n]]

    @property
    def num_classes(self):
        return self.layer_sizes[-1]

    def copy(self):
        return MlpModel(self.layer_sizes, self.params.copy())

    def check_finite(self):
        return np.isfinite(self.params).all()


@dataclass
class TrainConfig:
    """Every [train], [loss] and [split] setting of a run and its default;
    each value is checked when the config is made, before any work."""
    learning_rate: float = 0.1
    momentum: float = 0.1
    weight_decay: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    lr_decay: float = 0.0
    hidden_sizes: tuple = (16,)
    topk: int = 5
    seed: int = 0
    variant: str = "ce"  # one of losses.VARIANTS; *-soft variants move their similarity
    epsilon: tuple = (0.2,)  # one for every class, or one per class; ce ignores it
    split_fractions: tuple = (0.7, 0.15, 0.15)  # train, validation, test
    standardize: bool = True  # by the train split's mean and std

    def __post_init__(self):
        # 0 is admitted so a no-op step stays observable; each test fails a NaN
        for name in ("learning_rate", "weight_decay", "lr_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be in [0, inf), got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        for name in ("epochs", "batch_size", "topk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(size < 1 for size in self.hidden_sizes):
            sizes = ",".join(str(size) for size in self.hidden_sizes)
            raise ValueError(f"hidden layer sizes must be >= 1, got {sizes}")
        check_loss(self.variant, self.epsilon)
        check_fractions(self.split_fractions)


def init_model(layer_sizes, seed=0):
    """Seeded He-style init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    model = MlpModel(tuple(layer_sizes))
    for w in model.weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return model


def forward_batch(model, x, out=None):
    """Forward pass for an n x d batch; returns (probs, activations).

    activations[0] is the input, the rest are post-ReLU hidden outputs.
    x is a float array of a dataset's features, which LabeledDataset
    checked; it is not checked again. out receives the probabilities if given.
    """
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w.T  # a fresh array, so the bias and the ReLU go in place
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    logits = h @ model.weights[-1].T
    logits += model.biases[-1]
    return softmax(logits, out=out), acts


def backprop(model, acts, grad_logits, grads):
    """Parameter gradients given d(loss)/d(logits) for a batch.

    grads is a gradient MlpModel of model's layer sizes; its views are
    filled in place, every entry overwritten, and grads is returned.
    Gradients are sums over the batch (no averaging here).
    """
    delta = grad_logits
    for layer in reversed(range(len(model.weights))):
        np.matmul(delta.T, acts[layer], out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ model.weights[layer]
            delta *= acts[layer] > 0.0
    return grads


def batch_gradient(model, x, targets, weight_decay, grads, out=None):
    """Fill grads, a gradient MlpModel of model's layout, with the gradient of
    batch_values / len(x) + weight_decay/2 * |weight_params|^2: the step that
    gradcheck verifies. Returns the batch's probabilities, into out if given."""
    probs, acts = forward_batch(model, x, out=out)
    backprop(model, acts, logit_grad(probs, targets), grads)
    grads.params *= 1.0 / len(x)
    grads.weight_params += weight_decay * model.weight_params
    return probs


def _target_rows(h, ys, out):
    """Per-sample target rows: the rows of the target matrix H for labels ys.
    "clip" fills out directly ("raise" buffers); LabeledDataset keeps ys in [0, k)."""
    return h.take(ys, axis=0, out=out, mode="clip")


class Trainer:
    """Owns one model plus the optimizer state for a full training run.

    The momentum step runs over the model's flat params at once, and
    batch_gradient fills the params of a gradient MlpModel of the same layout."""

    def __init__(self, model, cfg, sim=None):
        self.model = model
        self.cfg = cfg
        self.sim = sim
        self.epoch = 0
        # the gradient buffer, in the model's layout; batch_gradient overwrites every entry
        self._grads = MlpModel(model.layer_sizes)
        self._vel = np.zeros_like(model.params)
        # the target matrix H; only _step_mixing rebuilds it
        self.targets = build_targets(cfg.variant, model.num_classes, sim, cfg.epsilon)

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # divergence is raised
    def train_epoch(self, data):
        """One seeded-shuffled pass; returns mean loss and train accuracy.

        A batch only steps: its probabilities and target rows go into epoch
        buffers, from which the epoch's end takes every batch's loss, the
        accuracy and the soft variants' class sums. The first non-finite
        batch loss, then a non-finite parameter (named at the last batch),
        raises TrainingDivergedError; a batch's loss depends only on the
        batches before it, so the pair is the one a per-batch check names.
        """
        cfg = self.cfg
        rng = np.random.default_rng((cfg.seed, self.epoch))
        order = rng.permutation(data.n)
        xs = data.features.take(order, axis=0)  # faster than fancy indexing
        ys_all = data.labels[order]
        h = self.targets
        k = self.model.num_classes
        probs, targets = np.empty((2, data.n, k))  # the epoch's buffers
        lr = cfg.learning_rate / (1.0 + cfg.lr_decay * self.epoch)
        params, vel, g = self.model.params, self._vel, self._grads.params
        wd, momentum, size = cfg.weight_decay, cfg.momentum, min(cfg.batch_size, data.n)
        for start in range(0, data.n, size):
            stop = start + size
            rows = _target_rows(h, ys_all[start:stop], out=targets[start:stop])
            batch_gradient(self.model, xs[start:stop], rows, wd, self._grads, out=probs[start:stop])
            vel *= momentum
            g *= lr
            vel -= g
            params += vel
        total_loss = 0.0
        for batch, value in enumerate(batch_values(probs, targets, size).tolist()):
            if not math.isfinite(value):
                raise TrainingDivergedError(self.epoch, batch)
            total_loss += value
        if not self.model.check_finite():
            raise TrainingDivergedError(self.epoch, batch)
        hit = probs.argmax(axis=1) == ys_all
        if VARIANTS[cfg.variant].moves:
            # the class sums of the correct softmax rows, added in sample order
            cells = (ys_all[hit, None] * k + np.arange(k)).ravel()
            self._step_mixing(np.bincount(cells, probs[hit].ravel(), k * k).reshape(k, k))
        self.epoch += 1
        return {
            "mean_loss": total_loss / data.n,
            "accuracy": np.count_nonzero(hit) / data.n,
        }

    def _step_mixing(self, sums):
        """Re-estimate the similarity matrix A from one epoch's sums.

        sums[y] is the summed softmax output of the training samples of
        class y that the model classified correctly. Row y of A becomes
        sums[y] as SimilarityMatrix.from_scores normalises it, its diagonal
        zeroed and the rest scaled to sum to 1; a row keeps its previous
        value if an off-diagonal entry is not > 0, which includes a class
        with no correct sample. The epsilons do not move; the target matrix
        H is rebuilt on the new A.
        """
        k = sums.shape[0]
        ok = np.all((sums > 0.0) | np.eye(k, dtype=bool), axis=1)[:, None]
        fresh = SimilarityMatrix.from_scores(np.where(ok, sums, 1.0)).a
        self.sim = SimilarityMatrix(np.where(ok, fresh, self.sim.a))
        self.targets = build_targets(self.cfg.variant, k, self.sim, self.cfg.epsilon)


def top1(model, data):
    """Top-1 accuracy, predictions and probabilities; ties go to the smaller class index."""
    probs, _ = forward_batch(model, data.features)
    pred = probs.argmax(axis=1)
    return float(np.mean(pred == data.labels)), pred, probs


def evaluate(model, data, topk):
    """Top-1/top-k accuracy, the confusion matrix and the probabilities.

    Top-k ties break toward the smaller class index; a topk over k counts all k.
    """
    top1_acc, pred, probs = top1(model, data)
    k = model.num_classes
    # stable argsort on -probs: equal probabilities keep ascending class order
    ranked = np.argsort(-probs, axis=1, kind="stable")
    in_topk = np.any(ranked[:, :topk] == data.labels[:, None], axis=1)
    topk_acc = float(np.mean(in_topk))
    confusion = np.bincount(data.labels * k + pred, minlength=k * k).reshape(k, k)
    return top1_acc, topk_acc, confusion, probs


def save_checkpoint(model, path):
    """Binary layout: magic 'MCEL', u32 version, u32 layer count, then per
    layer u32 rows, u32 cols, row-major little-endian f64 weights followed
    by rows f64 biases."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(model.weights)))
        for w, b in zip(model.weights, model.biases):
            rows, cols = w.shape
            fh.write(struct.pack("<II", rows, cols))
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
