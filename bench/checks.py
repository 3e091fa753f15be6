"""Correctness checks on the program's outputs, computed apart from it.

Each check raises CheckError on the first fault it finds. References are
the benchmark's own: LDA by ``scipy.linalg.eigh(sb, sw + ridge*I)``, the
grid curve recomputed from the grid's runs, label flips recovered from the
generated clean labels, and a numpy forward pass over the documented
checkpoint layout.
"""

import hashlib
import json
import math
import struct

import numpy as np

SIM_TOL = 1e-8
ROW_SUM_TOL = 1e-12
EPS_MARGIN = 1e-6  # trainable epsilons are clipped to [EPS_MARGIN, 0.5 - EPS_MARGIN]
FLIP_Z = 5.0  # binomial bound on flip counts, in standard deviations
# A model must keep a quarter of the nearest-centre classifier's gain over
# chance: enough to catch a model that learned nothing, with room for
# under-training and test-split sampling error on every seed.
FLOOR_SHARE = 0.25


class CheckError(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def top1_floor(nearest_centre_acc, k):
    chance = 1.0 / k
    return chance + FLOOR_SHARE * (nearest_centre_acc - chance)


def reference_similarity(x, y, k):
    """Fisher LDA similarity: the top min(k-1, d) generalized eigenvectors,
    unit-normalized, project the class means; then sigmoid(-(1 - cos)) rows
    normalized over the off-diagonal."""
    # imported here, not at the top: the program's process imports this
    # module for `digests`, and scipy.linalg there would count in its memory
    import scipy.linalg

    d = x.shape[1]
    counts = np.bincount(y, minlength=k)
    means = np.array([x[y == c].mean(axis=0) for c in range(k)])
    centred = x - means[y]
    sw = centred.T @ centred
    diff = means - x.mean(axis=0)
    sb = (diff.T * counts) @ diff
    ridge = 1e-6 * np.trace(sw) / d
    _, vecs = scipy.linalg.eigh(sb, sw + ridge * np.eye(d))
    vecs = vecs[:, ::-1][:, :min(k - 1, d)]
    vecs = vecs / np.linalg.norm(vecs, axis=0)
    proj = means @ vecs
    norms = np.linalg.norm(proj, axis=1)
    cos = (proj @ proj.T) / np.outer(norms, norms)
    s = 1.0 / (1.0 + np.exp(1.0 - cos))
    np.fill_diagonal(s, 0.0)
    return s / s.sum(axis=1, keepdims=True)


def check_similarity(a, x, y, k):
    a = np.asarray(a)
    require(a.shape == (k, k), f"similarity shape {a.shape}, expected {(k, k)}")
    require(np.all(np.diag(a) == 0.0), "similarity diagonal is not exactly zero")
    err = float(np.max(np.abs(a.sum(axis=1) - 1.0)))
    require(err <= ROW_SUM_TOL, f"similarity rows sum to 1 only within {err:.3g}")
    err = float(np.max(np.abs(a - reference_similarity(x, y, k))))
    require(err <= SIM_TOL, f"similarity differs from the scipy LDA reference by {err:.3g}")


def similarity_checksum(a):
    text = f"{a.shape[0]}\n" + "".join(
        " ".join(f"{v:.17g}" for v in row) + "\n" for row in a)
    return hashlib.sha256(text.encode()).hexdigest()


def check_grid(grid, epsilons, seeds):
    runs = grid["runs"]
    got = sorted((r["epsilon"], r["seed"]) for r in runs)
    require(got == sorted((e, s) for e in epsilons for s in seeds),
            f"grid runs cover {got}, expected every epsilon x seed once")
    require([row["epsilon"] for row in grid["grid"]] == list(epsilons),
            "grid curve epsilons differ from the requested grid")
    means = []
    for row in grid["grid"]:
        accs = [r["val_acc"] for r in runs if r["epsilon"] == row["epsilon"]]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        require(abs(row["mean_val_acc"] - mean) <= 1e-12 and abs(row["std_val_acc"] - std) <= 1e-12,
                f"grid curve at epsilon {row['epsilon']} differs from its runs")
        means.append(mean)
    best = max(means)
    selected = min(e for e, m in zip(epsilons, means) if m == best)
    require(grid["selected_epsilon"] == selected,
            f"selected_epsilon {grid['selected_epsilon']}, recomputed {selected}")


def check_curve_csv(text, grid):
    lines = text.splitlines()
    require(lines[0] == "epsilon,mean_val_acc,std_val_acc", "grid_curve.csv header")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    want = [[r["epsilon"], r["mean_val_acc"], r["std_val_acc"]] for r in grid["grid"]]
    require(rows == want, "grid_curve.csv differs from grid.json")


def check_noise_rows(payload, fractions, seeds, candidates):
    rows = payload["rows"]
    require(len(rows) == 2 * len(fractions) * len(seeds),
            f"noise.json has {len(rows)} rows, expected {2 * len(fractions) * len(seeds)}")
    for f in fractions:
        for s in seeds:
            cell = [r for r in rows if r["fraction"] == f and r["seed"] == s]
            kinds = sorted(r["variant"] for r in cell)
            require(kinds == ["ce", "mcel"], f"fraction {f} seed {s}: variants {kinds}")
            for r in cell:
                if r["variant"] == "ce":
                    require(r["epsilon"] == 0.0, "ce row with nonzero epsilon")
                else:
                    require(r["epsilon"] in candidates,
                            f"mcel epsilon {r['epsilon']} not among the candidates")


def check_flips(mask, noisy_labels, clean_labels, fraction, pairs):
    """`mask` is the program's list of flipped train rows; the labels are
    those of the train split it trained on and the generated clean ones."""
    partner = {}
    for a, b in pairs:
        partner[a], partner[b] = b, a
    flipped = np.flatnonzero(noisy_labels != clean_labels)
    require(np.array_equal(np.asarray(mask), flipped),
            "noise mask differs from the rows whose labels changed")
    for i in flipped:
        require(partner.get(int(clean_labels[i])) == int(noisy_labels[i]),
                f"row {int(i)} flipped outside its class pair")
    eligible = int(np.isin(clean_labels, list(partner)).sum())
    mean = fraction * eligible
    bound = FLIP_Z * math.sqrt(eligible * fraction * (1.0 - fraction)) + 1.0
    require(abs(flipped.size - mean) <= bound,
            f"{flipped.size} flips of {eligible} rows at fraction {fraction} "
            f"is outside {mean:.1f} +- {bound:.1f}")


def check_top1(values, floor):
    for v in values:
        require(v >= floor, f"test top-1 {v:.4f} below the floor {floor:.4f}")


def check_epochs(jsonl_text, report, epochs):
    require(jsonl_text.endswith("\n"), "epochs.jsonl does not end with a newline")
    lines = jsonl_text.splitlines()
    require(len(lines) == epochs, f"epochs.jsonl has {len(lines)} lines, expected {epochs}")
    records = [json.loads(line) for line in lines]
    require([r["epoch"] for r in records] == list(range(epochs)), "epochs.jsonl epoch order")
    require(records == report["epochs"], "epochs.jsonl differs from report.json")


def check_learned_epsilons(eps, k):
    require(len(eps) == k, f"{len(eps)} learned epsilons, expected {k}")
    for e in eps:
        require(EPS_MARGIN <= e <= 0.5 - EPS_MARGIN,
                f"learned epsilon {e!r} outside [{EPS_MARGIN}, {0.5 - EPS_MARGIN}]")


def parse_checkpoint(raw):
    """'MCEL', u32 version 1, u32 layers, then per layer u32 rows, u32 cols,
    rows*cols little-endian f64 weights and rows f64 biases."""
    require(raw[:4] == b"MCEL", "checkpoint magic")
    require(len(raw) >= 12, "checkpoint header truncated")
    version, layers = struct.unpack_from("<II", raw, 4)
    require(version == 1, f"checkpoint version {version}")
    pos = 12
    params = []
    for _ in range(layers):
        require(len(raw) >= pos + 8, "checkpoint layer header truncated")
        rows, cols = struct.unpack_from("<II", raw, pos)
        pos += 8
        size = 8 * (rows * cols + rows)
        require(len(raw) >= pos + size, "checkpoint layer truncated")
        w = np.frombuffer(raw, "<f8", rows * cols, pos).reshape(rows, cols)
        b = np.frombuffer(raw, "<f8", rows, pos + 8 * rows * cols)
        params.append((w, b))
        pos += size
    require(pos == len(raw), "checkpoint has trailing bytes")
    return params


def predict(params, x):
    h = x
    for w, b in params[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = params[-1]
    return np.argmax(h @ w.T + b, axis=1)


def check_checkpoint(raw, sizes, x, labels, floor):
    params = parse_checkpoint(raw)
    got = [params[0][0].shape[1]] + [w.shape[0] for w, _ in params]
    require(got == list(sizes), f"checkpoint layer sizes {got}, expected {list(sizes)}")
    acc = float(np.mean(predict(params, x) == labels))
    require(acc >= floor, f"checkpoint classifies the input at {acc:.4f}, below {floor:.4f}")


def digests(out):
    """sha256 of every output file but meta.json, which holds wall-clock time."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "meta.json"}


def check_same_payloads(first, second, what):
    diff = sorted(n for n in set(first) | set(second) if first.get(n) != second.get(n))
    require(not diff, f"{what}: payloads differ in {diff}")
