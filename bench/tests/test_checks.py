"""Each check accepts the program's real output and rejects a corrupted copy.

Run with: python3 -m pytest bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer
from mcel import lda
from mcel.data import LabeledDataset
from mcel.net import MlpModel, save_checkpoint


def blobs(k=5, per_class=60, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-3, 3, size=(k, dim))
    y = np.repeat(np.arange(k), per_class)
    return centres[y] + rng.standard_normal((y.size, dim)), y


@pytest.mark.parametrize("dim", [2, 4, 12])
def test_similarity_matches_program_fit(dim):
    x, y = blobs(dim=dim)
    sim = lda.build_similarity_matrix(lda.fit_lda(LabeledDataset(x, y, 5)))
    checks.check_similarity(sim.a, x, y, 5)


def test_similarity_rejects_permuted_row():
    x, y = blobs()
    a = np.array(lda.build_similarity_matrix(lda.fit_lda(LabeledDataset(x, y, 5))).a)
    a[2, [0, 1, 3, 4]] = a[2, [1, 3, 4, 0]]  # row sums and zero diagonal survive
    with pytest.raises(checks.CheckError, match="reference"):
        checks.check_similarity(a, x, y, 5)


def test_similarity_rejects_nonzero_diagonal():
    x, y = blobs()
    a = checks.reference_similarity(x, y, 5)
    a[1, 1] = 1e-300
    with pytest.raises(checks.CheckError, match="diagonal"):
        checks.check_similarity(a, x, y, 5)


def grid_payload(accs):
    """A grid.json as harness.run_grid_search lays it out."""
    runs = [{"epsilon": e, "seed": s, "val_acc": accs[e][s], "test_top1": 0.9}
            for e in accs for s in range(len(accs[e]))]
    curve = [{"epsilon": e, "mean_val_acc": float(np.mean(v)), "std_val_acc": float(np.std(v))}
             for e, v in accs.items()]
    best = max(curve, key=lambda c: (c["mean_val_acc"], -c["epsilon"]))
    return {"grid": curve, "runs": runs, "selected_epsilon": best["epsilon"]}


def test_grid_accepts_recomputed_selection_and_ties_to_smaller_epsilon():
    grid = grid_payload({0.0: [0.7, 0.8], 0.1: [0.8, 0.9], 0.2: [0.9, 0.8]})
    assert grid["selected_epsilon"] == 0.1
    checks.check_grid(grid, [0.0, 0.1, 0.2], [0, 1])


def test_grid_rejects_wrong_selection():
    grid = grid_payload({0.0: [0.7, 0.8], 0.1: [0.8, 0.9], 0.2: [0.9, 0.8]})
    grid["selected_epsilon"] = 0.2  # ties with 0.1, which is smaller
    with pytest.raises(checks.CheckError, match="selected_epsilon"):
        checks.check_grid(grid, [0.0, 0.1, 0.2], [0, 1])


def test_grid_rejects_curve_that_differs_from_runs():
    grid = grid_payload({0.0: [0.7, 0.8], 0.1: [0.8, 0.9]})
    grid["grid"][0]["mean_val_acc"] += 1e-9
    with pytest.raises(checks.CheckError, match="curve"):
        checks.check_grid(grid, [0.0, 0.1], [0, 1])


def test_grid_rejects_missing_run():
    grid = grid_payload({0.0: [0.7, 0.8], 0.1: [0.8, 0.9]})
    del grid["runs"][-1]
    with pytest.raises(checks.CheckError, match="cover"):
        checks.check_grid(grid, [0.0, 0.1], [0, 1])


def test_curve_csv_must_mirror_grid():
    grid = grid_payload({0.0: [0.7, 0.8], 0.1: [0.8, 0.9]})
    rows = ["epsilon,mean_val_acc,std_val_acc"] + [
        f"{r['epsilon']},{r['mean_val_acc']!r},{r['std_val_acc']!r}" for r in grid["grid"]]
    checks.check_curve_csv("\n".join(rows) + "\n", grid)
    with pytest.raises(checks.CheckError):
        checks.check_curve_csv("\n".join(rows[:-1]) + "\n", grid)


def epochs_files(n=4):
    records = [{"epoch": i, "train_acc": 0.5, "train_loss": 1.0 / (i + 1), "val_acc": 0.6}
               for i in range(n)]
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return text, {"epochs": records}


def test_epochs_accepts_matching_report():
    text, report = epochs_files()
    checks.check_epochs(text, report, 4)


@pytest.mark.parametrize("cut", [1, 20])
def test_epochs_rejects_truncated_file(cut):
    text, report = epochs_files()
    with pytest.raises((checks.CheckError, ValueError)):
        checks.check_epochs(text[:-cut], report, 4)


def test_epochs_rejects_record_that_differs_from_report():
    text, report = epochs_files()
    report["epochs"][2]["val_acc"] = 0.7
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_epochs(text, report, 4)


def flipped(fraction=0.3, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    clean = rng.integers(0, 4, n)
    partner = np.array([1, 0, 3, 2])
    flip = rng.random(n) < fraction
    return clean, np.where(flip, partner[clean], clean), np.flatnonzero(flip)


def test_flips_accept_true_mask():
    clean, noisy, mask = flipped()
    checks.check_flips(list(mask), noisy, clean, 0.3, [(0, 1), (2, 3)])


def test_flips_reject_mask_missing_a_row():
    clean, noisy, mask = flipped()
    with pytest.raises(checks.CheckError, match="mask"):
        checks.check_flips(list(mask[1:]), noisy, clean, 0.3, [(0, 1), (2, 3)])


def test_flips_reject_flip_outside_pair():
    clean, noisy, mask = flipped()
    i = int(mask[0])
    noisy[i] = (clean[i] + 2) % 4
    with pytest.raises(checks.CheckError, match="pair"):
        checks.check_flips(list(mask), noisy, clean, 0.3, [(0, 1), (2, 3)])


def test_flips_reject_rate_far_from_fraction():
    clean, noisy, mask = flipped(fraction=0.3)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_flips(list(mask), noisy, clean, 0.1, [(0, 1), (2, 3)])


def test_noise_rows_reject_missing_variant_and_foreign_epsilon():
    rows = [{"fraction": 0.1, "seed": 0, "variant": "ce", "epsilon": 0.0, "test_top1": 0.9},
            {"fraction": 0.1, "seed": 0, "variant": "mcel", "epsilon": 0.2, "test_top1": 0.9}]
    checks.check_noise_rows({"rows": rows}, [0.1], [0], [0.2, 0.3])
    with pytest.raises(checks.CheckError, match="candidates"):
        checks.check_noise_rows({"rows": rows}, [0.1], [0], [0.3])
    with pytest.raises(checks.CheckError):
        checks.check_noise_rows({"rows": rows[:1]}, [0.1], [0], [0.2])


def test_top1_floor():
    floor = checks.top1_floor(0.9, 10)
    assert 0.1 < floor < 0.9
    checks.check_top1([0.8, floor], floor)
    with pytest.raises(checks.CheckError, match="below"):
        checks.check_top1([0.8, floor - 1e-9], floor)


@pytest.mark.parametrize("eps", [[1e-6, 0.2, 0.5 - 1e-6]])
def test_learned_epsilons_inside_clip_bounds(eps):
    checks.check_learned_epsilons(eps, 3)


@pytest.mark.parametrize("eps", [[0.0, 0.2, 0.3], [0.1, 0.5, 0.3], [0.1, 0.2]])
def test_learned_epsilons_reject_out_of_bounds_or_wrong_count(eps):
    with pytest.raises(checks.CheckError):
        checks.check_learned_epsilons(eps, 3)


def sign_model(swap=False):
    """Class 1 when x0 > 0: hidden units relu(x0), relu(-x0)."""
    w2 = np.array([[1.0, 0.0], [0.0, 1.0]]) if swap else np.array([[0.0, 1.0], [1.0, 0.0]])
    return MlpModel((2, 2, 2), [np.array([[1.0, 0.0], [-1.0, 0.0]]), w2],
                    [np.zeros(2), np.zeros(2)])


def checkpoint_bytes(tmp_path, model):
    save_checkpoint(model, tmp_path / "m.ckpt")
    return (tmp_path / "m.ckpt").read_bytes()


def test_checkpoint_forward_pass_classifies(tmp_path):
    x = np.random.default_rng(0).standard_normal((200, 2))
    labels = (x[:, 0] > 0).astype(int)
    checks.check_checkpoint(checkpoint_bytes(tmp_path, sign_model()), (2, 2, 2), x, labels, 0.99)


def test_checkpoint_rejects_wrong_weights_truncation_and_sizes(tmp_path):
    x = np.random.default_rng(0).standard_normal((200, 2))
    labels = (x[:, 0] > 0).astype(int)
    with pytest.raises(checks.CheckError, match="below"):
        checks.check_checkpoint(checkpoint_bytes(tmp_path, sign_model(swap=True)),
                                (2, 2, 2), x, labels, 0.5)
    raw = checkpoint_bytes(tmp_path, sign_model())
    with pytest.raises(checks.CheckError, match="truncated"):
        checks.check_checkpoint(raw[:-8], (2, 2, 2), x, labels, 0.5)
    with pytest.raises(checks.CheckError, match="sizes"):
        checks.check_checkpoint(raw, (2, 3, 2), x, labels, 0.5)


def test_same_payloads_rejects_changed_file(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "grid.json").write_text("{}\n")
        (tmp_path / name / "meta.json").write_text(f'{{"wall_seconds": "{name}"}}\n')
    first, second = checks.digests(tmp_path / "a"), checks.digests(tmp_path / "b")
    checks.check_same_payloads(first, second, "a vs b")  # meta.json is not a payload
    (tmp_path / "b" / "grid.json").write_text("{ }\n")
    with pytest.raises(checks.CheckError, match="grid.json"):
        checks.check_same_payloads(first, checks.digests(tmp_path / "b"), "a vs b")


def test_checks_module_leaves_scipy_linalg_unloaded():
    # the program's process imports checks; scipy.linalg there would count
    # in the memory measured for the program
    code = "import sys, checks; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(checks.__file__).parent,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_layer_self_times_partition_the_root_span():
    spans = [["cli.main", 0.0, 10.0, -1], ["harness.run_training", 1.0, 9.0, 0],
             ["net.train_epoch", 2.0, 6.0, 1], ["net.forward_batch", 2.5, 3.0, 2],
             ["net.evaluate", 6.0, 7.0, 1], ["net.forward_batch", 6.2, 6.6, 4],
             ["lda.fit_lda", 9.0, 9.5, 0]]
    metrics, selfs = tracer.layer_metrics(spans, distinct_fits=1)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["net.forward_s"] == pytest.approx(0.5)  # evaluate's forward excluded
    assert metrics["net.batches"] == 1
    assert metrics["net.epoch_self_s"] == pytest.approx(3.5)
    assert metrics["harness.run_self_s"] == pytest.approx(3.0)
    assert metrics["lda.useful_fit_ratio"] == 1.0
