"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline;
under plain pytest they appear in the captured-output section on failure.
"""

import json
import time

import numpy as np

from mcel.cli import main
from mcel.data import gen_blobs, split, standardize
from mcel.gradcheck import random_similarity, run_all
from mcel.harness import (
    dumps_report, run_noise_experiment, run_training, similarity_checksum, similarity_from_dataset,
)
from mcel.lda import (
    SimilarityMatrix, build_similarity_matrix, fit_lda, scatter_matrices,
    solve_generalized_symmetric_eig, uniform_similarity,
)
from mcel.losses import VARIANTS, batch_values, build_targets, logit_grad, softmax, target_matrix
from mcel.net import TrainConfig


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_reduction_suite():
    """Every richer loss collapses to its simpler base within 1e-12."""
    started = time.monotonic()
    worst = 0.0
    for k in (2, 5, 10):
        rng = np.random.default_rng(k)
        for _ in range(1000):
            probs = softmax(rng.normal(0, 2, size=(1, k)))
            y = rng.integers(k, size=1)
            sim = random_similarity(rng, k)
            eps = float(rng.uniform(0.05, 0.45))
            eps_vec = np.full(k, eps)
            e = build_targets("gmcel", k, sim, eps)

            def loss(h):
                return float(batch_values(probs, h[y], 1)[0]), logit_grad(probs, h[y])

            # the simple loss written out: (1-eps) * one-hot + eps * A[y]
            w = eps * sim.a[y[0]]
            w[y[0]] = 1.0 - eps
            base_value = -float(np.dot(w, np.log(probs[0])))
            base_grad = probs * w.sum() - w

            zero_eps = loss(target_matrix(sim, np.zeros(k)))
            worst = max(worst, abs(zero_eps[0] - -float(np.log(probs[0, y[0]]))))

            for h in (target_matrix(sim, eps_vec), e):
                value, grad = loss(h)
                worst = max(worst, abs(value - base_value),
                            float(np.max(np.abs(grad - base_grad))))
    elapsed = time.monotonic() - started
    report(
        "reduction suite",
        worst <= 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.3e} (tol 1e-12), {elapsed:.2f}s (budget 5s)",
    )


def test_gradient_suite():
    """The trainer's whole batch step, net.batch_gradient (logit gradient,
    backprop, 1/n scale and weight decay), matches central finite differences
    of its objective over the net's params within 1e-5, for every variant."""
    started = time.monotonic()
    results = run_all(k=5, trials=200, seed=0)
    elapsed = time.monotonic() - started
    worst = max(results.values())
    report(
        "gradient suite",
        worst <= 1e-5 and elapsed < 10.0,
        f"batch_gradient max relative error {worst:.3e} over {sorted(results)} "
        f"(tol 1e-5), {elapsed:.2f}s (budget 10s)",
    )


def test_similarity_matrix_suite():
    """Structural invariants plus the closed-form Fisher direction check."""
    started = time.monotonic()
    ok = True
    details = []
    for k in (3, 10):
        data = gen_blobs(k, 80, 5, seed=100 + k)
        means = fit_lda(data)
        sim = build_similarity_matrix(means)
        off = sim.a[~np.eye(k, dtype=bool)]
        ok = ok and np.all(np.diag(sim.a) == 0.0) and np.all(off > 0.0)
        row_err = float(np.max(np.abs(sim.a.sum(axis=1) - 1.0)))
        ok = ok and row_err <= 1e-12

        flip = np.where(np.arange(means.shape[1]) % 2 == 0, 1.0, -1.0)
        flip_err = float(np.max(np.abs(build_similarity_matrix(means * flip).a - sim.a)))
        ok = ok and flip_err <= 1e-10

        rng = np.random.default_rng(k)
        perm = rng.permutation(k)
        sim_p = build_similarity_matrix(means[np.argsort(perm)])
        perm_err = max(
            abs(sim_p.a[perm[i], perm[j]] - sim.a[i, j])
            for i in range(k)
            for j in range(k)
        )
        ok = ok and perm_err <= 1e-12
        details.append(
            f"k={k}: rows {row_err:.1e}, flip {flip_err:.1e}, perm {perm_err:.1e}"
        )

    two = gen_blobs(2, 300, 2, centers=np.array([[0.0, 0.0], [3.0, 1.0]]),
                    spread=0.7, seed=1)
    sw, sb, means = scatter_matrices(two)
    fisher = np.linalg.solve(sw, means[1] - means[0])
    vals, vecs = solve_generalized_symmetric_eig(sb, sw, 1e-6 * np.trace(sw) / two.dim)
    direction = vecs[:, 0]
    ok = ok and np.all(np.diff(vals) <= 1e-12)
    ok = ok and np.array_equal(fit_lda(two), np.array(means) @ vecs[:, :1])
    cosine = abs(np.dot(direction, fisher)) / (
        np.linalg.norm(direction) * np.linalg.norm(fisher)
    )
    ok = ok and cosine >= 0.999
    elapsed = time.monotonic() - started
    report(
        "similarity-matrix suite",
        ok and elapsed < 10.0,
        "; ".join(details) + f"; fisher |cos| {cosine:.6f}, "
        f"{elapsed:.2f}s (budget 10s)",
    )


def test_label_smoothing_equivalence():
    """Uniform similarity makes the mixed target a label-smoothing target."""
    worst = 0.0
    for k in (3, 5, 10):
        sim = uniform_similarity(k)
        for eps in (0.1, 0.3):
            h = target_matrix(sim, np.full(k, eps))
            eps_ls = eps * k / (k - 1)
            ls = (1.0 - eps_ls) * np.eye(k) + eps_ls / k * np.ones((k, k))
            worst = max(worst, float(np.max(np.abs(h - ls))))
    report(
        "label-smoothing equivalence",
        worst <= 1e-12,
        f"max deviation {worst:.3e} (tol 1e-12) over k in (3,5,10), "
        "eps in (0.1,0.3)",
    )


def test_end_to_end_training():
    """Both plain CE and the mixed loss solve well-separated 4-class blobs."""
    started = time.monotonic()
    centers = np.array([[3.0, 3.0], [3.0, -3.0], [-3.0, 3.0], [-3.0, -3.0]])
    dataset = gen_blobs(4, 500, 2, centers=centers, spread=1.0, seed=0)
    train, val, test = split(dataset, (0.7, 0.15, 0.15), seed=0)
    train, val, test, _, _ = standardize(train, val, test)
    sim = similarity_from_dataset(train)
    base = TrainConfig(learning_rate=0.1, momentum=0.1, weight_decay=1e-3,
                       epochs=200, batch_size=32, topk=2, seed=0)
    ce, _ = run_training(train, val, test, base)
    from dataclasses import replace
    mixed_cfg = replace(base, variant="mcel", epsilon=(0.2,))
    mixed, _ = run_training(train, val, test, mixed_cfg, sim)
    elapsed = time.monotonic() - started
    ok = ce["test_top1"] >= 0.95 and mixed["test_top1"] >= 0.95 and elapsed < 60.0
    report(
        "end-to-end training",
        ok,
        f"test top-1 ce {ce['test_top1']:.4f}, mixed "
        f"{mixed['test_top1']:.4f} (need >= 0.95); {elapsed:.1f}s (budget 60s)",
    )


def test_soft_variants_learn_a_similarity(tmp_path):
    """Each soft variant, which re-estimates its similarity every epoch,
    matches ce within 0.02 mean test top-1 over 3 seeds, and ends on a valid
    similarity that left its LDA start and stays off the bounds 0 and 1."""
    started = time.monotonic()
    details = []
    ok = True
    soft = [name for name, facts in VARIANTS.items() if facts.moves]
    for blobs in ("4,500,2,1.0", "10,300,8,2.5"):
        top1 = {}
        for variant in ("ce", *soft):
            cfg = tmp_path / f"{variant}.ini"
            cfg.write_text(f"[loss]\nvariant = {variant}\nepsilon = 0.2\n")
            top1[variant] = []
            for seed in range(3):
                out = tmp_path / blobs / variant / str(seed)
                assert main(["train", "--blobs", blobs, "--config", str(cfg),
                             "--seed", str(seed), "--out", str(out)]) == 0
                run = json.loads((out / "report.json").read_text())
                top1[variant].append(run["test_top1"])
                if not VARIANTS[variant].moves:
                    continue
                a = np.array(run["learned_similarity"])
                k = a.shape[0]
                final = SimilarityMatrix(a)
                off = a[~np.eye(k, dtype=bool)]
                ok = ok and (
                    similarity_checksum(final) != run["similarity_checksum"]
                    and bool(np.all((off > 0.0) & (off < 1.0)))
                    and run["learned_mixing"] == [0.2] * k
                )
        ce = float(np.mean(top1["ce"]))
        for variant in soft:
            mean = float(np.mean(top1[variant]))
            ok = ok and abs(mean - ce) <= 0.02
            details.append(f"{blobs} {variant} {mean:.4f} vs ce {ce:.4f}")
    elapsed = time.monotonic() - started
    report(
        "soft variants learn a similarity",
        ok and elapsed < 120.0,
        "; ".join(details) + " (need within 0.02); final A valid, moved off the "
        f"LDA start, off-diagonal in (0, 1): {ok}; {elapsed:.1f}s (budget 120s)",
    )


def test_noise_robustness():
    """With pairwise label swaps on the train split, the similarity-guided
    loss matches or beats plain CE across the fixed seed set."""
    started = time.monotonic()
    gap = 1.2
    centers = []
    for angle in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        cx, cy = 5.0 * np.cos(angle), 5.0 * np.sin(angle)
        centers.append([cx - gap / 2, cy])
        centers.append([cx + gap / 2, cy])
    dataset = gen_blobs(6, 200, 2, centers=np.array(centers), spread=0.7, seed=0)
    base = TrainConfig(learning_rate=0.1, momentum=0.1, weight_decay=1e-3,
                       epochs=120, batch_size=32, hidden_sizes=(8,), topk=2, seed=0,
                       split_fractions=(0.5, 0.25, 0.25))
    result = run_noise_experiment(
        dataset,
        pairs=((0, 1), (2, 3), (4, 5)),
        fractions=(0.3,),
        seeds=(0, 1, 2, 3, 4),
        base_cfg=base,
        epsilon_candidates=(0.2, 0.3, 0.4),
    )
    ce = [r["test_top1"] for r in result["rows"] if r["variant"] == "ce"]
    mixed = [r["test_top1"] for r in result["rows"] if r["variant"] == "mcel"]
    wins = sum(m > c for m, c in zip(mixed, ce))
    elapsed = time.monotonic() - started
    ok = (
        float(np.median(mixed)) >= float(np.median(ce))
        and wins >= 3
        and elapsed < 300.0
    )
    report(
        "noise robustness",
        ok,
        f"median mixed {np.median(mixed):.4f} vs ce {np.median(ce):.4f}, "
        f"wins {wins}/5 (need >= 3), {elapsed:.1f}s (budget 300s)",
    )


def test_determinism():
    """Identical seeds give byte-identical serialized reports."""
    dataset = gen_blobs(3, 80, 2, spread=0.8, seed=2)
    cfg = TrainConfig(learning_rate=0.1, momentum=0.1, weight_decay=1e-3,
                      epochs=15, batch_size=16, hidden_sizes=(8,), topk=2, seed=3,
                      variant="mcel", epsilon=(0.2,))
    payloads = []
    for _ in range(2):
        train, val, test = split(dataset, (0.7, 0.15, 0.15), seed=3)
        train, val, test, _, _ = standardize(train, val, test)
        sim = similarity_from_dataset(train)
        result, _ = run_training(train, val, test, cfg, sim)
        payloads.append(dumps_report(result).encode())
    ok = payloads[0] == payloads[1]
    report(
        "determinism",
        ok,
        f"rerun payloads identical: {ok} ({len(payloads[0])} bytes)",
    )
