import re
from pathlib import Path

import numpy as np
import pytest

import mcel
from mcel.gradcheck import central_diff, max_rel_error, random_similarity
from mcel.lda import SimilarityMatrix, load_similarity, uniform_similarity
from mcel.losses import (
    VARIANTS,
    batch_values,
    build_targets,
    check_loss,
    logit_grad,
    softmax,
    target_matrix,
)


def variants(fact, value=True):
    """The VARIANTS names whose `fact` is `value`."""
    return [name for name, facts in VARIANTS.items() if getattr(facts, fact) == value]


def two_class_sim():
    return SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def random_stochastic_targets(rng, k):
    """A random row-stochastic target matrix H with a dominant diagonal."""
    diag = rng.uniform(0.5, 0.8, size=k)
    e = np.empty((k, k))
    for i in range(k):
        off = rng.random(k - 1) + 0.05
        off = off / off.sum() * (1.0 - diag[i])
        e[i] = np.insert(off, i, diag[i])
    return e


def random_probs(rng, k, floor=1e-3):
    p = rng.random(k) + floor * k
    p = p / p.sum()
    return np.maximum(p, floor) / np.maximum(p, floor).sum()


def loss_of(probs, y, h):
    """Value and probs-row logit gradient of one sample on target matrix h."""
    probs = np.asarray(probs)[None, :]
    return float(batch_values(probs, h[[y]], 1)[0]), logit_grad(probs, h[[y]])[0]


def logit_fd_error(logits, y, h):
    """FD relative error of the kernel's logit gradient for one sample."""
    targets = h[[y]]
    grad = logit_grad(softmax(logits)[None, :], targets)
    num = central_diff(lambda lg: batch_values(softmax(lg)[None, :], targets, 1)[0], logits)
    return max_rel_error(grad[0], num)


class TestMixingSpecs:
    # TrainConfig runs check_loss; build_targets trusts the settings it is given
    def test_epsilon_range(self):
        sim = two_class_sim()
        for variant in variants("similarity"):
            with pytest.raises(ValueError):
                check_loss(variant, (0.5,))
            with pytest.raises(ValueError):
                check_loss(variant, (-0.01,))
            with pytest.raises(ValueError):
                check_loss(variant, (float("nan"),))
            check_loss(variant, (0.0,))  # cross-entropy limit is admitted
            build_targets(variant, 2, sim, (0.0,))

    def test_per_class_range(self):
        # every variant takes per-class epsilons in range (ce ignores them)
        for variant in VARIANTS:
            check_loss(variant, (0.1, 0.2))
            with pytest.raises(ValueError, match="epsilon 0.5 outside"):
                check_loss(variant, (0.1, 0.5))
            with pytest.raises(ValueError):
                check_loss(variant, (0.1, float("nan")))
            for bad in ((), 0.2):  # no epsilon; a number where one or more go
                with pytest.raises(ValueError, match="^epsilon must be"):
                    check_loss(variant, bad)

    def test_variant_states(self):
        # every variant's H: I for ce, the simple loss's H for the rest
        sim = random_similarity(np.random.default_rng(3), 4)
        for variant in variants("similarity", False):
            assert np.array_equal(build_targets(variant, 4, None, (0.2,)), np.eye(4))
        simple = target_matrix(sim, np.full(4, 0.2))
        for variant in variants("similarity"):
            assert np.array_equal(build_targets(variant, 4, sim, (0.2,)), simple)
        h = build_targets("sg-mcel", 4, sim, (0.1, 0.2, 0.3, 0.4))
        assert np.array_equal(h, target_matrix(sim, np.array([0.1, 0.2, 0.3, 0.4])))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            check_loss("focal", (0.2,))

    def test_only_losses_tests_variant_names(self):
        # what a variant name means is read from VARIANTS, never from the name
        pattern = re.compile(r'variant("\])?( ==|\.startswith|\.endswith)|else "ce"')
        hits = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(mcel.__file__).parent.glob("*.py")) if path.name != "losses.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)
        ]
        assert hits == []

    def test_only_losses_states_the_epsilon_range(self):
        # check_epsilons is the one statement of [0, 0.5)
        pattern = re.compile(r"[<>=]=?\s*0?\.5\b|\b0?\.5\s*[<>=]")
        hits = [
            f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(Path(mcel.__file__).parent.glob("*.py")) if path.name != "losses.py"
            for lineno, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)
        ]
        assert hits == []


class TestTargetMatrix:
    def test_epsilon_zero_is_identity(self):
        sim = random_similarity(np.random.default_rng(0), 4)
        h = target_matrix(sim, np.zeros(4))
        assert np.array_equal(h, np.eye(4))

    def test_direct_substitution(self):
        h = target_matrix(two_class_sim(), np.full(2, 0.4))
        assert np.allclose(h, [[0.6, 0.4], [0.4, 0.6]], atol=1e-15)

    @pytest.mark.parametrize("k", [3, 5, 10])
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_label_smoothing_equivalence(self, k, eps):
        h = target_matrix(uniform_similarity(k), np.full(k, eps))
        eps_prime = eps * k / (k - 1)
        smoothed = (1 - eps_prime) * np.eye(k) + eps_prime / k
        assert np.max(np.abs(h - smoothed)) <= 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for k in (2, 5, 9):
            sim = random_similarity(rng, k)
            for eps in (np.full(k, 0.3), rng.uniform(0, 0.49, k)):
                h = target_matrix(sim, eps)
                assert np.allclose(h.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_every_variant_target_row_sums_to_one(self, variant, tmp_path):
        # logit_grad is probs - targets only because this holds
        rng = np.random.default_rng(list(VARIANTS).index(variant))
        sims = [random_similarity(rng, k) for k in (2, 3, 7, 20)]
        for k in (3, 11):
            rows = rng.random((k, k)) + 1e-3
            np.fill_diagonal(rows, 0.0)
            rows *= (1.0 + 1e-10) / rows.sum(axis=1, keepdims=True)  # a 1e-10 residue
            path = tmp_path / f"sim{k}.txt"
            path.write_text(f"{k}\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n"
                                                for row in rows))
            sims.append(load_similarity(path))
        for sim in sims:
            for eps in ((0.0,), (0.4999,), rng.uniform(0.0, 0.5, sim.k)):
                h = build_targets(variant, sim.k, sim, eps)
                assert np.all(np.abs(h.sum(axis=1) - 1.0) <= 1e-12)


class TestMcelLoss:
    def test_perfect_prediction(self):
        probs = np.array([1.0 - 2e-9, 1e-9, 1e-9])
        sim = random_similarity(np.random.default_rng(0), 3)
        value, _ = loss_of(probs, 0, target_matrix(sim, np.zeros(3)))
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(1)
        sim = random_similarity(rng, 4)
        probs = random_probs(rng, 4)
        value, _ = loss_of(probs, 2, target_matrix(sim, np.zeros(4)))
        assert abs(value - (-np.log(probs[2]))) <= 1e-15

    def test_hand_instance_with_oracle(self):
        a = np.array([[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        sim = SimilarityMatrix(a)
        probs = np.array([0.7, 0.2, 0.1])
        eps = 0.3
        value, _ = loss_of(probs, 0, target_matrix(sim, np.full(3, eps)))
        expected = 0.0
        for i in range(3):
            w = (1 - eps) * (i == 0) + eps * a[0, i]
            expected -= w * np.log(probs[i])
        assert abs(value - expected) <= 1e-12
        assert logit_fd_error(np.log(probs), 0, target_matrix(sim, np.full(3, eps))) <= 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_affine_in_epsilon(self, seed):
        rng = np.random.default_rng(seed)
        sim = random_similarity(rng, 5)
        probs = random_probs(rng, 5)
        y = int(rng.integers(5))
        v0, v1, v2 = (loss_of(probs, y, target_matrix(sim, np.full(5, e)))[0]
                      for e in (0.1, 0.2, 0.3))
        assert abs(v2 - 2 * v1 + v0) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        k = 4
        sim = random_similarity(rng, k)
        probs = random_probs(rng, k)
        y = 1
        perm = np.array([3, 0, 2, 1])
        inv = np.argsort(perm)
        a_p = sim.a[np.ix_(inv, inv)]
        sim_p = SimilarityMatrix(a_p / a_p.sum(axis=1, keepdims=True))
        value, _ = loss_of(probs, y, target_matrix(sim, np.full(k, 0.3)))
        value_p, _ = loss_of(probs[inv], perm[y], target_matrix(sim_p, np.full(k, 0.3)))
        assert abs(value - value_p) <= 1e-12


class TestSgMcel:
    def test_equal_epsilons_match_simple(self):
        rng = np.random.default_rng(0)
        sim = random_similarity(rng, 5)
        probs = random_probs(rng, 5)
        for y in range(5):
            value, grad = loss_of(probs, y, target_matrix(sim, np.full(5, 0.3)))
            # the simple loss written out: (1-eps) * one-hot + eps * A[y]
            w = 0.3 * sim.a[y]
            w[y] = 0.7
            assert abs(value - -float(np.dot(w, np.log(probs)))) <= 1e-15
            assert np.max(np.abs(grad - (probs * w.sum() - w))) <= 1e-12

    def test_zero_vector_is_cross_entropy(self):
        rng = np.random.default_rng(1)
        sim = random_similarity(rng, 3)
        probs = random_probs(rng, 3)
        value, _ = loss_of(probs, 1, target_matrix(sim, np.zeros(3)))
        assert abs(value - (-np.log(probs[1]))) <= 1e-15

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        sim = random_similarity(rng, 5)
        logits = rng.normal(0, 2, 5)
        eps = rng.uniform(0.05, 0.45, 5)
        assert logit_fd_error(logits, 3, target_matrix(sim, eps)) <= 1e-6


class TestGmcel:
    def test_delta_rows_are_cross_entropy(self):
        k = 3
        rng = np.random.default_rng(0)
        probs = random_probs(rng, k)
        value, _ = loss_of(probs, 1, np.eye(k))
        assert abs(value - (-np.log(probs[1]))) <= 1e-15

    def test_simple_construction_equivalence(self):
        rng = np.random.default_rng(1)
        sim = random_similarity(rng, 4)
        eps = 0.25
        e = build_targets("gmcel", 4, sim, (eps,))
        probs = random_probs(rng, 4)
        for y in range(4):
            a, _ = loss_of(probs, y, e)
            b, _ = loss_of(probs, y, target_matrix(sim, np.full(4, eps)))
            assert abs(a - b) <= 1e-15

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        e = random_stochastic_targets(rng, 4)
        logits = rng.normal(0, 2, 4)
        assert logit_fd_error(logits, 2, e) <= 1e-6


class TestReductionChain:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_chain(self, k):
        rng = np.random.default_rng(k)
        for _ in range(50):
            sim = random_similarity(rng, k)
            probs = random_probs(rng, k)
            y = int(rng.integers(k))
            eps = float(rng.uniform(0.01, 0.49))
            base, _ = loss_of(probs, y, build_targets("gmcel", k, sim, (eps,)))
            per_class = rng.uniform(0.01, 0.49, k)
            per_class[y] = eps
            assert abs(loss_of(probs, y, target_matrix(sim, per_class))[0] - base) <= 1e-12
            assert abs(loss_of(probs, y, target_matrix(sim, np.full(k, eps)))[0] - base) <= 1e-12
            ce = -np.log(probs[y])
            assert abs(loss_of(probs, y, target_matrix(sim, np.zeros(k)))[0] - ce) <= 1e-12


def logit_gradient(logits, target_row):
    return logit_grad(softmax(logits)[None, :], target_row[None, :])[0]


class TestLogitGradient:
    def test_uniform_symmetry(self):
        k = 6
        g = logit_gradient(np.full(k, 1.7), np.full(k, 1.0 / k))
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_one_hot_identity(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=5)
        target = np.zeros(5)
        target[2] = 1.0
        g = logit_gradient(logits, target)
        assert np.allclose(g, softmax(logits) - target, atol=1e-15)

    def test_matches_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 3, size=10)
        target = random_probs(rng, 10)
        g = logit_gradient(logits, target)

        def value_of(lg):
            return -float(np.dot(target, np.log(softmax(lg))))

        num = central_diff(value_of, logits)
        assert max_rel_error(g, num) <= 1e-7

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 8))
            sim = random_similarity(rng, k)
            h = target_matrix(sim, np.full(k, float(rng.uniform(0, 0.49))))
            logits = rng.normal(size=k)
            g = logit_gradient(logits, h[int(rng.integers(k))])
            assert abs(g.sum()) <= 1e-12

    def test_large_logits_stable(self):
        g = logit_gradient(np.array([1e4, 0.0, -1e4]), np.array([0.2, 0.5, 0.3]))
        assert np.all(np.isfinite(g))
