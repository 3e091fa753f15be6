"""Seeded inputs and CLI calls of the three benchmark workloads.

Each builder writes its input files and config into a directory and
returns a spec: the `mcel` argv (with "{out}" standing for the round's
output directory), how a fresh process loads the input, and the ground
truth the checks need. The program sees only the files.
"""

import json
import struct

import numpy as np

# Program-side seeds and sweep shapes are fixed; --seed varies the data.
NOISE = {"k": 6, "per_class": 150, "dim": 2, "box": 3.5, "pairs": "0:1,2:3,4:5",
         "fractions": [0.1, 0.3], "seeds": [0, 1, 2], "candidates": [0.2, 0.3, 0.4],
         "epochs": 40, "hidden": 16}
GRID = {"k": 10, "per_class": 150, "rows": 8, "cols": 8, "width": 35.0, "sigma": 60.0,
        "seeds": [0, 1, 2, 3, 4], "epsilons": [0.0, 0.2, 0.4],
        "epochs": 6, "hidden": 32}
SOFT = {"k": 10, "per_class": 1500, "dim": 32, "box": 0.9, "epochs": 8, "hidden": 64,
        "epsilon": 0.2}


def _config(path, epochs, hidden, variant="ce", epsilon=0.2):
    path.write_text(
        "[train]\n"
        f"epochs = {epochs}\nhidden = {hidden}\nbatch_size = 32\n"
        "[loss]\n"
        f"variant = {variant}\nepsilon = {epsilon}\n"
    )


def _blobs(rng, k, per_class, dim, box):
    """Unit-spread Gaussian blobs around centres drawn from [-box, box]^dim.

    Rows are shuffled, except that the first k rows hold one row of each
    class in class order, so that load_csv's first-appearance label mapping
    gives class c the index c.
    """
    centres = rng.uniform(-box, box, size=(k, dim))
    labels = np.repeat(np.arange(k), per_class)
    feats = centres[labels] + rng.standard_normal((labels.size, dim))
    order = rng.permutation(labels.size)
    firsts = [int(order[np.flatnonzero(labels[order] == c)[0]]) for c in range(k)]
    order = np.concatenate([firsts, order[~np.isin(order, firsts)]])
    return centres, feats[order], labels[order]


def _write_csv(path, feats, labels):
    names = [f"x{i}" for i in range(feats.shape[1])]
    with open(path, "w") as fh:
        fh.write(",".join(names + ["label"]) + "\n")
        for row, lab in zip(feats, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(lab)}\n")


def _write_idx(images_path, labels_path, pixels, labels, rows, cols):
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, pixels.shape[0], rows, cols))
        fh.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, labels.size))
        fh.write(labels.astype(np.uint8).tobytes())


def nearest_centre_accuracy(feats, labels, centres):
    d2 = ((feats[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == labels))


def noise_sweep(seed, root):
    c = NOISE
    centres, feats, labels = _blobs(np.random.default_rng(seed), c["k"], c["per_class"],
                                    c["dim"], c["box"])
    _write_csv(root / "noise.csv", feats, labels)
    _config(root / "noise.ini", c["epochs"], c["hidden"])
    argv = ["noise-exp", "--data-csv", str(root / "noise.csv"), "--label-col", "label",
            "--config", str(root / "noise.ini"), "--pairs", c["pairs"],
            "--fractions", ",".join(map(str, c["fractions"])),
            "--seeds", ",".join(map(str, c["seeds"])),
            "--epsilon-candidates", ",".join(map(str, c["candidates"])), "--out", "{out}"]
    return _spec("noise-sweep", root, argv, ["csv", str(root / "noise.csv"), "label"],
                 (centres, feats, labels))


def grid_wide(seed, root):
    c = GRID
    rng = np.random.default_rng(seed)
    d = c["rows"] * c["cols"]
    centres = 128.0 + rng.uniform(-c["width"], c["width"], size=(c["k"], d))
    labels = rng.permutation(np.repeat(np.arange(c["k"]), c["per_class"]))
    pixels = np.clip(np.rint(centres[labels] + c["sigma"] * rng.standard_normal((labels.size, d))),
                     0, 255)
    _write_idx(root / "images.idx", root / "labels.idx", pixels, labels, c["rows"], c["cols"])
    _config(root / "grid.ini", c["epochs"], c["hidden"])
    argv = ["gridsearch", "--data-idx", str(root / "images.idx"), str(root / "labels.idx"),
            "--config", str(root / "grid.ini"),
            "--epsilons", ",".join(map(str, c["epsilons"])),
            "--seeds", ",".join(map(str, c["seeds"])), "--out", "{out}"]
    return _spec("grid-wide", root, argv,
                 ["idx", str(root / "images.idx"), str(root / "labels.idx")],
                 (centres, pixels, labels))


def train_soft(seed, root):
    c = SOFT
    centres, feats, labels = _blobs(np.random.default_rng(seed), c["k"], c["per_class"],
                                    c["dim"], c["box"])
    _write_csv(root / "soft.csv", feats, labels)
    _config(root / "soft.ini", c["epochs"], c["hidden"], "sg-mcel-soft", c["epsilon"])
    argv = ["train", "--data-csv", str(root / "soft.csv"), "--label-col", "label",
            "--config", str(root / "soft.ini"), "--seed", "0", "--out", "{out}"]
    return _spec("train-soft", root, argv, ["csv", str(root / "soft.csv"), "label"],
                 (centres, feats, labels))


def _spec(name, root, argv, load, truth):
    centres, feats, labels = truth
    np.savez(root / "truth.npz", centres=centres, features=feats, labels=labels)
    return {
        "workload": name,
        "argv": argv,
        "load": load,
        "truth": str(root / "truth.npz"),
        "k": int(centres.shape[0]),
        "nearest_centre_acc": nearest_centre_accuracy(feats, labels, centres),
    }


BUILDERS = {"noise-sweep": noise_sweep, "grid-wide": grid_wide, "train-soft": train_soft}


def build(name, seed, root):
    root.mkdir(parents=True, exist_ok=True)
    spec = BUILDERS[name](seed, root)
    (root / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec
