import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mcel.data import LabeledDataset, gen_blobs
from mcel.errors import TrainingDivergedError
from mcel.gradcheck import random_similarity, step_error
from mcel.harness import run_training
from mcel.lda import SimilarityMatrix
from mcel.losses import (
    PROB_CLAMP, VARIANTS, batch_values, build_targets, logit_grad, softmax, target_matrix,
)
from mcel.net import (
    MlpModel,
    TrainConfig,
    Trainer,
    backprop,
    batch_gradient,
    evaluate,
    forward_batch,
    init_model,
    save_checkpoint,
)


class TestInit:
    def test_deterministic(self):
        a = init_model((2, 4, 3), seed=7)
        b = init_model((2, 4, 3), seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_shapes(self):
        model = init_model((2, 4, 3), seed=0)
        assert model.weights[0].shape == (4, 2)
        assert model.weights[1].shape == (3, 4)
        assert all(np.all(b == 0) for b in model.biases)

    def test_variance_scaling(self):
        fan_in = 50
        model = init_model((fan_in, 200, 2), seed=3)
        var = model.weights[0].var()
        assert abs(var - 1.0 / fan_in) <= 0.2 / fan_in

    def test_params_hold_every_weight_then_every_bias(self):
        model = init_model((3, 5, 4, 3), seed=0)
        assert np.array_equal(model.params, np.concatenate(
            [w.ravel() for w in model.weights] + [b.ravel() for b in model.biases]))
        model.weights[1][2, 3] = 7.0  # the views write through to params
        assert model.params[5 * 3 + 2 * 5 + 3] == 7.0
        assert not np.shares_memory(model.params, model.copy().params)

    def test_without_params_the_model_is_zeros_that_say_where_the_biases_start(self):
        model = MlpModel((3, 5, 4, 3))
        num_weights = 5 * 3 + 4 * 5 + 3 * 4
        assert np.array_equal(model.params, np.zeros(num_weights + 5 + 4 + 3))
        assert model.weight_params.size == num_weights
        model.weight_params[...] = 1.0  # a view: it writes every weight and no bias
        assert all(np.all(w == 1.0) for w in model.weights)
        assert all(np.all(b == 0.0) for b in model.biases)


class TestForward:
    def test_zero_weights_uniform(self):
        model = init_model((3, 4, 5), seed=0)
        for w in model.weights:
            w[:] = 0.0
        probs, _ = forward_batch(model, np.zeros(3)[None, :])
        assert np.allclose(probs[0], 0.2, atol=1e-15)

    def test_bias_shift_invariance(self):
        model = init_model((3, 4, 5), seed=1)
        x = np.array([0.3, -0.2, 1.0])
        probs, _ = forward_batch(model, x[None, :])
        model.biases[-1] += 42.0
        shifted, _ = forward_batch(model, x[None, :])
        assert np.max(np.abs(probs - shifted)) <= 1e-12

    def test_probs_valid(self):
        model = init_model((4, 8, 6), seed=2)
        probs, _ = forward_batch(model, np.ones(4)[None, :])
        assert np.all(probs > 0)
        assert abs(probs.sum() - 1.0) <= 1e-12

    def test_layer_by_layer_oracle(self):
        model = init_model((3, 5, 4), seed=5)
        x = np.random.default_rng(0).normal(size=3)
        probs, _ = forward_batch(model, x[None, :])
        h = np.maximum(model.weights[0] @ x + model.biases[0], 0.0)
        logits = model.weights[1] @ h + model.biases[1]
        expd = np.exp(logits - logits.max())
        assert np.max(np.abs(probs[0] - expd / expd.sum())) <= 1e-12

    def test_non_finite_rejected(self):
        # forward_batch does not scan its input: the dataset rejects it
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                LabeledDataset(np.array([[bad, 1.0], [0.0, 2.0]]), np.array([0, 1]), 2)


def composed_loss(model, x, ys, targets):
    probs, _ = forward_batch(model, x)
    return -float(np.sum(targets * np.log(np.maximum(probs, PROB_CLAMP))))


def mixture_targets(k, ys, rng):
    return rng.dirichlet(np.ones(k), size=k)[ys]  # any row-stochastic mixture matrix


class TestBackprop:
    def test_end_to_end_gradient(self):
        # the trainer's whole step, by the program's own check, without and with
        # weight decay, through two hidden layers, on targets no loss variant
        # builds (mcel gradcheck checks every variant's); fixed inputs
        rng = np.random.default_rng(3)
        model = init_model((2, 3, 4, 3), seed=11)
        x = rng.normal(size=(4, 2))
        targets = mixture_targets(3, rng.integers(3, size=4), rng)
        params = model.params.copy()
        for weight_decay in (0.0, 0.05):
            assert step_error(model, x, targets, weight_decay) <= 1e-5
        assert np.array_equal(model.params, params)


class TestArgumentsUnchanged:
    """The batch path works in place on its own temporaries only: the
    trainer reads probs after logit_grad and acts after forward_batch."""

    def test_batch_path_leaves_its_arguments_alone(self):
        rng = np.random.default_rng(21)
        model = init_model((3, 5, 4, 3), seed=21)
        params = model.params.copy()
        x = rng.normal(size=(6, 3))
        logits = rng.normal(size=(6, 3)) * 50.0
        targets = mixture_targets(3, rng.integers(3, size=6), rng)
        inputs = [x, logits, targets]
        before = [a.copy() for a in inputs]

        softmax(logits)
        probs, acts = forward_batch(model, x)
        kept = [probs.copy()] + [a.copy() for a in acts]
        grad_logits = logit_grad(probs, targets)
        grad_before = grad_logits.copy()
        grads = MlpModel(model.layer_sizes, np.full_like(model.params, np.nan))
        filled = backprop(model, acts, grad_logits, grads)

        assert all(np.array_equal(a, b) for a, b in zip(inputs, before))
        assert all(np.array_equal(a, b) for a, b in zip([probs] + acts, kept))
        assert np.array_equal(grad_logits, grad_before)
        assert np.array_equal(model.params, params)
        # grads is filled in place, every entry of it: the Trainer's buffer is np.empty_like
        assert filled is grads
        assert np.isfinite(grads.params).all()


class TestTrainer:
    def make_data(self, k=2, per_class=30, seed=0, spread=0.5):
        centers = np.array([[i * 6.0, 0.0] for i in range(k)])
        return gen_blobs(k, per_class, 2, centers=centers, spread=spread, seed=seed)

    def test_zero_lr_noop(self):
        data = self.make_data()
        model = init_model((2, 4, 2), seed=0)
        before = model.params.copy()
        cfg = TrainConfig(learning_rate=0.0, epochs=1, batch_size=8, seed=0)
        metrics = Trainer(model, cfg).train_epoch(data)
        assert np.array_equal(model.params, before)
        assert "mean_loss" in metrics and "accuracy" in metrics

    def test_separable_blobs_learned(self):
        data = self.make_data(per_class=50)
        model = init_model((2, 8, 2), seed=1)
        cfg = TrainConfig(learning_rate=0.1, epochs=50, batch_size=16, seed=1)
        trainer = Trainer(model, cfg)
        metrics = None
        for _ in range(50):
            metrics = trainer.train_epoch(data)
        assert metrics["accuracy"] >= 0.99

    def test_determinism(self):
        data = self.make_data(k=3)
        runs = []
        for _ in range(2):
            model = init_model((2, 6, 3), seed=4)
            cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=8, seed=4)
            trainer = Trainer(model, cfg)
            for _ in range(3):
                trainer.train_epoch(data)
            runs.append(model.params)
        assert np.array_equal(runs[0], runs[1])

    def test_single_step_decreases_loss(self):
        rng = np.random.default_rng(6)
        data = self.make_data(k=3, per_class=10, spread=1.5)
        model = init_model((2, 6, 3), seed=6)
        cfg = TrainConfig(
            learning_rate=1e-4, momentum=0.0, weight_decay=0.0,
            epochs=1, batch_size=data.n, seed=6,
        )
        targets = np.eye(3)[data.labels]
        before = composed_loss(model, data.features, data.labels, targets)
        Trainer(model, cfg).train_epoch(data)
        after = composed_loss(model, data.features, data.labels, targets)
        assert after < before

    def test_divergence_detected(self):
        data = self.make_data()
        model = init_model((2, 4, 2), seed=0)
        cfg = TrainConfig(
            learning_rate=1e200, weight_decay=1.0, epochs=1, batch_size=8, seed=0
        )
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            for _ in range(3):
                Trainer(model, cfg).train_epoch(data)

    def test_inf_weight_diverges_at_first_batch(self):
        data = self.make_data()
        model = init_model((2, 4, 2), seed=0)
        trainer = Trainer(model, TrainConfig(batch_size=8, seed=0))
        model.weights[-1][0, 0] = np.inf  # writes through to the trainer's parameters
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            trainer.train_epoch(data)
        assert (err.value.epoch, err.value.batch) == (0, 0)  # the loss check

    def test_overflowing_step_caught_at_epoch_end(self):
        # one batch per epoch: its loss is finite, the step after it is not
        data = self.make_data()
        model = init_model((2, 4, 2), seed=0)
        cfg = TrainConfig(learning_rate=0.05, batch_size=data.n, seed=0)
        trainer = Trainer(model, cfg)
        trainer.train_epoch(data)
        trainer.cfg = replace(cfg, learning_rate=1e308, weight_decay=1e10)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
            trainer.train_epoch(data)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert not model.check_finite()

    def test_epoch_end_check_names_the_last_batch(self):
        # a -inf hidden bias is a dead ReLU unit: it gets no gradient and no
        # decay, every loss stays finite, and only the end-of-epoch check sees it
        data = self.make_data()
        model = init_model((2, 4, 2), seed=0)
        trainer = Trainer(model, TrainConfig(batch_size=8, seed=0))
        model.biases[0][0] = -np.inf
        with pytest.raises(TrainingDivergedError) as err:
            trainer.train_epoch(data)
        assert (err.value.epoch, err.value.batch) == (0, (data.n - 1) // 8)

    def test_non_finite_test_outputs_name_the_best_epoch(self):
        # finite weights and validation outputs; the test rows' logits are
        # both +inf (seed 2), so their softmax is NaN
        train = gen_blobs(2, 20, 2, seed=0)
        test = LabeledDataset(np.full((2, 2), 1e308), np.array([0, 1]), 2)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning first
            with pytest.raises(TrainingDivergedError) as err:
                run_training(train, train, test, cfg)
        assert (err.value.epoch, err.value.batch) == (0, (train.n - 1) // 8)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_step_matches_reference_loop(self, variant):
        data = self.make_data(k=3, per_class=25, spread=1.5)  # n = 75, batch 8
        sim = random_similarity(np.random.default_rng(14), 3)
        cfg = TrainConfig(
            learning_rate=0.1, momentum=0.9, weight_decay=1e-2, batch_size=8,
            lr_decay=0.5, seed=14, variant=variant,
            epsilon=(0.1, 0.25, 0.4) if VARIANTS[variant].similarity else (0.2,),
        )
        model = init_model((2, 6, 5, 3), seed=14)
        expected = model.copy()
        expected_metrics, expected_sim = reference_epochs(expected, cfg, sim, data, 3)
        trainer = Trainer(model, cfg, sim)
        assert [trainer.train_epoch(data) for _ in range(3)] == expected_metrics
        assert np.array_equal(model.params, expected.params)
        assert np.array_equal(trainer.sim.a, expected_sim.a)
        assert np.array_equal(trainer.sim.a, sim.a) == (not VARIANTS[variant].moves)

    def test_each_batch_steps_on_batch_gradient(self, monkeypatch):
        # the step gradcheck verifies is the trainer's: one call per batch, same epoch
        data = self.make_data(k=3, per_class=25)  # n = 75, batch 8
        cfg = TrainConfig(momentum=0.9, weight_decay=1e-2, batch_size=8, seed=3, variant="mcel")
        sim = random_similarity(np.random.default_rng(3), 3)
        expected = init_model((2, 6, 3), seed=3)
        expected_metrics = Trainer(expected, cfg, sim).train_epoch(data)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape[0])
            return batch_gradient(*args, **kwargs)

        monkeypatch.setattr("mcel.net.batch_gradient", counted)
        model = init_model((2, 6, 3), seed=3)
        assert Trainer(model, cfg, sim).train_epoch(data) == expected_metrics
        assert len(calls) == math.ceil(data.n / cfg.batch_size) and sum(calls) == data.n
        assert np.array_equal(model.params, expected.params)

    def test_mid_epoch_divergence_names_the_first_bad_batch(self):
        # the trainer finishes the epoch before it raises; the reference
        # stops at its first non-finite batch loss
        data = self.make_data(k=3, per_class=25, spread=1.5)  # n = 75: batches 0-9
        sim = random_similarity(np.random.default_rng(15), 3)
        cfg = TrainConfig(learning_rate=1e50, batch_size=8, seed=15, variant="mcel")
        model = init_model((2, 6, 3), seed=15)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as expected:
                reference_epochs(model.copy(), cfg, sim, data, 1)
            with pytest.raises(TrainingDivergedError) as err:
                Trainer(model, cfg, sim).train_epoch(data)
        pair = (err.value.epoch, err.value.batch)
        assert pair == (expected.value.epoch, expected.value.batch)
        assert pair == (0, 4)  # neither the first nor the last batch

    def test_snapshot_survives_training(self, tmp_path):
        data = self.make_data(k=3)
        model = init_model((2, 6, 3), seed=2)
        trainer = Trainer(model, TrainConfig(learning_rate=0.05, batch_size=8, seed=2))
        trainer.train_epoch(data)
        snapshot = model.copy()
        at_snapshot = model.params.copy()
        save_checkpoint(model, tmp_path / "at_snapshot.ckpt")
        trainer.train_epoch(data)
        assert np.array_equal(snapshot.params, at_snapshot)
        assert not np.array_equal(model.params, at_snapshot)
        save_checkpoint(snapshot, tmp_path / "snapshot.ckpt")
        save_checkpoint(model, tmp_path / "model.ckpt")
        saved = (tmp_path / "at_snapshot.ckpt").read_bytes()
        assert (tmp_path / "snapshot.ckpt").read_bytes() == saved
        assert (tmp_path / "model.ckpt").read_bytes() != saved

    def test_relabel_equivariance(self):
        data = self.make_data(k=3, per_class=40, spread=1.0)
        sim = random_similarity(np.random.default_rng(8), 3)
        perm = np.array([2, 0, 1])
        perm_labels = perm[data.labels]
        data_p = LabeledDataset(data.features, perm_labels, 3)
        a_p = sim.a[np.ix_(np.argsort(perm), np.argsort(perm))]
        sim_p = SimilarityMatrix(a_p)

        def run(dataset, similarity, permute_head):
            model = init_model((2, 5, 3), seed=9)
            if permute_head:
                # output rows follow the class relabeling: W'[perm[c]] = W[c]
                inv = np.argsort(perm)
                model.weights[-1][:] = model.weights[-1][inv]
                model.biases[-1][:] = model.biases[-1][inv]
            cfg = TrainConfig(
                learning_rate=0.05, epochs=5, batch_size=10, seed=9,
                variant="mcel", epsilon=(0.2,),
            )
            trainer = Trainer(model, cfg, similarity)
            for _ in range(5):
                trainer.train_epoch(dataset)
            return evaluate(model, dataset, cfg.topk)[0]

        base_acc = run(data, sim, permute_head=False)
        perm_acc = run(data_p, sim_p, permute_head=True)
        assert base_acc == perm_acc

    def test_soft_epsilons_stay_in_range(self):
        # the epsilons keep their start; the similarity moves and stays valid
        data = self.make_data(k=3, per_class=30, spread=1.2)
        sim = random_similarity(np.random.default_rng(10), 3)
        model = init_model((2, 6, 3), seed=10)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=5, batch_size=10, seed=10,
            variant="sg-mcel-soft", epsilon=(0.2,),
        )
        trainer = Trainer(model, cfg, sim)
        for _ in range(5):
            trainer.train_epoch(data)
        assert np.array_equal(trainer.targets, target_matrix(trainer.sim, np.full(3, 0.2)))
        off = trainer.sim.a[~np.eye(3, dtype=bool)]
        assert np.all(off > 0.0) and np.all(off < 1.0)
        assert not np.array_equal(trainer.sim.a, sim.a)

    def test_soft_matrix_stays_in_range(self):
        data = self.make_data(k=3, per_class=30, spread=1.2)
        sim = random_similarity(np.random.default_rng(11), 3)
        model = init_model((2, 6, 3), seed=11)
        cfg = TrainConfig(
            learning_rate=0.05, epochs=4, batch_size=10, seed=11,
            variant="gmcel-soft", epsilon=(0.2,),
        )
        trainer = Trainer(model, cfg, sim)
        for _ in range(4):
            trainer.train_epoch(data)
        h = trainer.targets
        assert np.all(h > 0.0) and np.all(h < 1.0)
        assert np.array_equal(h, target_matrix(trainer.sim, np.full(3, 0.2)))

    @pytest.mark.parametrize("variant", [name for name, v in VARIANTS.items() if v.moves])
    def test_moved_targets_rows_sum_to_one(self, variant):
        # logit_grad is probs - targets only because this holds
        data = self.make_data(k=5, per_class=30, spread=2.0)
        cfg = TrainConfig(
            learning_rate=0.05, batch_size=16, seed=16, variant=variant,
            epsilon=(0.0, 0.1, 0.3, 0.45, 0.4999),
        )
        sim = random_similarity(np.random.default_rng(16), 5)
        trainer = Trainer(init_model((2, 8, 5), seed=16), cfg, sim)
        for _ in range(3):
            trainer.train_epoch(data)
            assert np.all(np.abs(trainer.targets.sum(axis=1) - 1.0) <= 1e-12)
        assert not np.array_equal(trainer.sim.a, sim.a)

    def test_soft_step_follows_kernel(self):
        # one full batch per epoch: each epoch's reported loss is the kernel's
        # value on the similarity the previous epoch left
        data = self.make_data(k=3, per_class=10, spread=1.2)
        sim = random_similarity(np.random.default_rng(12), 3)
        model = init_model((2, 6, 3), seed=12)
        eps = np.array([0.1, 0.2, 0.3])
        cfg = TrainConfig(
            learning_rate=0.01, momentum=0.0, weight_decay=0.0, epochs=2,
            batch_size=data.n, seed=12, variant="sg-mcel-soft", epsilon=tuple(eps),
        )
        trainer = Trainer(model, cfg, sim)
        for _ in range(2):
            probs, _ = forward_batch(model, data.features)
            value = batch_values(probs, target_matrix(trainer.sim, eps)[data.labels], data.n)[0]
            metrics = trainer.train_epoch(data)
            assert metrics["mean_loss"] == pytest.approx(value / data.n, rel=1e-12)
        assert not np.array_equal(trainer.sim.a, sim.a)

    def test_similarity_update_follows_correct_predictions(self):
        # logits are the features and the learning rate is 0, so the epoch's
        # predictions are softmax(features)
        features = np.array([
            [2.0, 0.5, -1.0, 0.0],  # class 0, correct
            [1.0, -0.5, 0.3, 0.8],  # class 0, correct
            [0.0, 3.0, 0.0, 0.0],  # class 0, wrong
            [2.0, 1.0, 0.0, 0.0],  # class 1, wrong: no correct sample
            [1.0, 0.0, 0.0, 0.0],  # class 1, wrong
            [0.0, -800.0, 5.0, 0.0],  # class 2, correct, p[1] underflows to 0
            [0.1, 0.2, 0.3, 1.5],  # class 3, correct
        ])
        labels = np.array([0, 0, 0, 1, 1, 2, 3])
        data = LabeledDataset(features, labels, 4)
        sim = random_similarity(np.random.default_rng(13), 4)
        cfg = TrainConfig(learning_rate=0.0, batch_size=3, seed=13,
                          variant="gmcel-soft", epsilon=(0.2,))
        trainer = Trainer(logit_model(4), cfg, sim)
        trainer.train_epoch(data)
        expected = sim.a.copy()
        for y, rows in ((0, [0, 1]), (3, [6])):
            mean = softmax(features[rows]).mean(axis=0)
            mean[y] = 0.0
            expected[y] = mean / mean.sum()
        assert np.allclose(trainer.sim.a, expected, rtol=1e-12, atol=0.0)
        assert np.array_equal(trainer.sim.a[[1, 2]], sim.a[[1, 2]])
        assert np.array_equal(trainer.targets, target_matrix(trainer.sim, np.full(4, 0.2)))


def reference_epochs(model, cfg, sim, data, epochs):
    """Train `model` in place with a plain per-layer loop: fancy-indexed
    batches, the target rows gathered for every batch, SGD+momentum with
    weight decay on the weights. A soft variant sums the correctly
    predicted softmax rows by class, one at a time in sample order, and
    moves A after the epoch.
    Raises TrainingDivergedError at the first non-finite batch loss.
    Returns each epoch's metrics and the final similarity matrix."""
    k = model.num_classes
    vel_w = [np.zeros_like(w) for w in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    metrics = []
    for epoch in range(epochs):
        h = build_targets(cfg.variant, k, sim, cfg.epsilon)
        order = np.random.default_rng((cfg.seed, epoch)).permutation(data.n)
        lr = cfg.learning_rate / (1.0 + cfg.lr_decay * epoch)
        total, correct = 0.0, 0
        sums = np.zeros((k, k))
        for batch, start in enumerate(range(0, data.n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            ys = data.labels[idx]
            probs, acts = forward_batch(model, data.features[idx])
            value = float(batch_values(probs, h[ys], len(probs))[0])
            grad_logits = logit_grad(probs, h[ys])
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, batch)
            total += value
            hit = np.argmax(probs, axis=1) == ys
            correct += int(np.sum(hit))
            for y, row in zip(ys[hit], probs[hit]):
                sums[y] += row
            grads = backprop(model, acts, grad_logits, MlpModel(model.layer_sizes))
            scale = 1.0 / idx.shape[0]
            for layer in range(len(model.weights)):
                g = grads.weights[layer] * scale + cfg.weight_decay * model.weights[layer]
                vel_w[layer] = cfg.momentum * vel_w[layer] - lr * g
                model.weights[layer] += vel_w[layer]
                gb = grads.biases[layer] * scale
                vel_b[layer] = cfg.momentum * vel_b[layer] - lr * gb
                model.biases[layer] += vel_b[layer]
        metrics.append({"mean_loss": total / data.n, "accuracy": correct / data.n})
        if VARIANTS[cfg.variant].moves:
            # README: row y of A becomes the off-diagonal part of sums[y],
            # normalised, unless an off-diagonal entry is not > 0
            a = sim.a.copy()
            for y, row in enumerate(sums):
                off = row.copy()
                off[y] = 0.0
                if np.all(np.delete(off, y) > 0.0):
                    a[y] = off / off.sum()
            sim = SimilarityMatrix(a)
    return metrics, sim


def logit_model(k):
    """Single-layer model whose logits equal its input features."""
    return MlpModel((k, k), np.concatenate([np.eye(k).ravel(), np.zeros(k)]))


class TestEvaluate:
    def test_perfect_predictor(self):
        k = 3
        feats = np.eye(k) * 10.0
        data = LabeledDataset(np.tile(feats, (4, 1)), np.tile(np.arange(k), 4), k)
        top1, topk, confusion, _ = evaluate(logit_model(k), data, topk=k)
        assert top1 == 1.0
        assert np.array_equal(confusion, np.eye(k, dtype=int) * 4)

    def test_topk_equals_k(self):
        k = 4
        rng = np.random.default_rng(0)
        data = LabeledDataset(rng.normal(size=(20, k)), rng.integers(k, size=20), k)
        at_k = evaluate(logit_model(k), data, topk=k)
        assert at_k[1] == 1.0
        past_k = evaluate(logit_model(k), data, topk=k + 3)  # a topk over k counts all k
        assert past_k[:2] == at_k[:2]
        assert all(np.array_equal(a, b) for a, b in zip(past_k[2:], at_k[2:]))

    def test_hand_counted_top2(self):
        # logits rank classes directly; true label in top-2 for rows 0,1,3
        feats = np.array(
            [
                [3.0, 2.0, 1.0],  # y=0 -> rank 1
                [2.0, 3.0, 1.0],  # y=0 -> rank 2
                [1.0, 2.0, 3.0],  # y=0 -> rank 3
                [3.0, 1.0, 2.0],  # y=2 -> rank 2
                [2.0, 3.0, 1.0],  # y=2 -> rank 3
            ]
        )
        labels = np.array([0, 0, 0, 2, 2])
        data = LabeledDataset(feats, labels, 3)
        top1, top2, _, _ = evaluate(logit_model(3), data, topk=2)
        assert top1 == pytest.approx(1 / 5)
        assert top2 == pytest.approx(3 / 5)

    def test_tie_breaks_toward_smaller_index(self):
        feats = np.array([[1.0, 1.0, 0.0]])
        data = LabeledDataset(feats, np.array([1]), 3)
        top1, _, confusion, _ = evaluate(logit_model(3), data, topk=1)
        assert top1 == 0.0  # tie between 0 and 1 resolves to class 0
        assert confusion[1, 0] == 1

    def test_per_epoch_val_acc_is_evaluates_top1_on_ties(self):
        # zero features and zero biases give every class the same probability
        k = 3
        val = LabeledDataset(np.zeros((7, 2)), np.array([0, 1, 2, 0, 1, 0, 2]), k)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, hidden_sizes=(4,))
        report, model = run_training(gen_blobs(k, 10, 2, seed=0), val, val, cfg)
        top1 = evaluate(model, val, cfg.topk)[0]
        assert top1 == 3 / 7  # every tie goes to class 0
        assert [r["val_acc"] for r in report["epochs"]] == [top1, top1]

    def test_confusion_matches_add_at_reference(self):
        k = 5
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(40, k))
        feats[:, 2] -= 100.0  # class 2 has samples but gets no prediction
        labels = rng.integers(k, size=40)
        assert np.any(labels == 2)
        confusion = evaluate(logit_model(k), LabeledDataset(feats, labels, k), topk=1)[2]
        expected = np.zeros((k, k), dtype=int)
        np.add.at(expected, (labels, np.argmax(feats, axis=1)), 1)
        assert confusion.dtype == expected.dtype
        assert np.array_equal(confusion, expected)
        assert not confusion[:, 2].any()


class TestCheckpoint:
    @pytest.mark.parametrize("sizes,seed", [((4, 7, 3), 13), ((2, 3), 0)], ids=["4-7-3", "2-3"])
    def test_layout(self, tmp_path, sizes, seed):
        """save_checkpoint's bytes, parsed by the layout the README states:
        'MCEL', u32 version, u32 layer count, then per layer u32 rows, u32
        cols, the row-major weights and the biases as little-endian f64."""
        model = init_model(sizes, seed=seed)
        for b in model.biases:  # non-zero, so a writer that drops them fails
            b += np.arange(1, b.size + 1) / 8
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        assert raw[:4] == b"MCEL"
        assert struct.unpack_from("<II", raw, 4) == (1, len(sizes) - 1)
        offset = 12
        for w, b in zip(model.weights, model.biases):
            rows, cols = struct.unpack_from("<II", raw, offset)
            assert (rows, cols) == w.shape
            weights = np.frombuffer(raw, "<f8", rows * cols, offset + 8)
            biases = np.frombuffer(raw, "<f8", rows, offset + 8 + weights.nbytes)
            assert weights.tobytes() == w.astype("<f8").tobytes()  # bit-equal
            assert biases.tobytes() == b.astype("<f8").tobytes()
            offset += 8 + weights.nbytes + biases.nbytes
        assert offset == len(raw)  # no trailing bytes
