import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcel
from mcel import harness
from mcel.cli import main
from mcel.data import gen_blobs, split
from mcel.harness import run_grid_search, run_noise_experiment, similarity_from_dataset
from mcel.lda import load_similarity
from mcel.losses import VARIANTS, build_targets
from mcel.net import TrainConfig, Trainer


SRC = str(Path(mcel.__file__).resolve().parents[1])


def run_cli(*argv):
    return main(list(argv))


def run_python(*argv):
    """Run a fresh interpreter with the package importable; returns the
    completed process with text stdout/stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestSimilarityCommand:
    def test_two_class_forced_normalization(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "similarity", "--blobs", "2,50,2,0.5", "--out", str(out)
        ) == 0
        sim = load_similarity(out / "similarity.txt")
        assert np.allclose(sim.a, [[0, 1], [1, 0]], atol=1e-15)
        heatmap = (out / "similarity_heatmap.csv").read_text().splitlines()
        assert heatmap[0] == "i,j,a_ij"
        assert len(heatmap) == 1 + 4

    def test_rerun_identical_output(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("similarity", "--blobs", "5,40,3,0.8", "--data-seed", "3",
                    "--out", str(out))
            outs.append((out / "similarity.txt").read_bytes())
        assert outs[0] == outs[1]

    def test_group_block_structure(self):
        # ten classes in two tight, far-apart center groups: within-group
        # similarity must dominate cross-group similarity
        rng = np.random.default_rng(0)
        centers = np.vstack(
            [
                np.array([6.0, 0.0]) + 0.5 * rng.standard_normal((5, 2)),
                np.array([-6.0, 0.0]) + 0.5 * rng.standard_normal((5, 2)),
            ]
        )
        data = gen_blobs(10, 100, 2, centers=centers, spread=0.4, seed=1)
        sim = similarity_from_dataset(data)
        group = np.array([0] * 5 + [1] * 5)
        within = [
            sim.a[i, j]
            for i in range(10)
            for j in range(10)
            if i != j and group[i] == group[j]
        ]
        across = [
            sim.a[i, j] for i in range(10) for j in range(10) if group[i] != group[j]
        ]
        assert min(within) > max(across)


CONFIG = """\
[train]
epochs = 20
hidden = 8
[loss]
variant = {variant}
epsilon = {epsilon}
"""


def write_config(tmp_path, variant="ce", epsilon=0.2, extra=""):
    path = tmp_path / "cfg.ini"
    path.write_text(CONFIG.format(variant=variant, epsilon=epsilon) + extra)
    return str(path)


def train_report(tmp_path, name, config, *extra):
    out = tmp_path / name
    code = run_cli(
        "train", "--blobs", "3,80,2,0.8", "--config", config,
        "--seed", "5", "--out", str(out), *extra,
    )
    assert code == 0
    return out


class TestTrainCommand:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "mcel", 0.2)
        a = train_report(tmp_path, "a", cfg)
        b = train_report(tmp_path, "b", cfg)
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "epochs.jsonl").read_bytes() == (b / "epochs.jsonl").read_bytes()

    def test_soft_run_reports_learned_epsilons(self, tmp_path):
        # the epsilons keep their start; the similarity is re-estimated
        out = train_report(tmp_path, "soft", write_config(tmp_path, "sg-mcel-soft", 0.2))
        report = json.loads((out / "report.json").read_text())
        assert report["learned_mixing"] == [0.2, 0.2, 0.2]
        a = np.array(report["learned_similarity"])
        assert a.shape == (3, 3) and np.all(np.diag(a) == 0.0)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_report_structure(self, tmp_path):
        out = train_report(tmp_path, "r", write_config(tmp_path, "mcel", 0.3))
        report = json.loads((out / "report.json").read_text())
        assert len(report["epochs"]) == report["config"]["epochs"]
        best = report["best_epoch"]
        vals = [r["val_acc"] for r in report["epochs"]]
        assert report["epochs"][best]["val_acc"] == max(vals)
        assert report["similarity_checksum"]
        assert (out / "model.ckpt").exists()
        assert (out / "meta.json").exists()

    def test_config_echo_names_the_variant(self, tmp_path):
        cfg = write_config(tmp_path, "sg-mcel", 0.2, "epsilons = 0.1,0.2,0.3\n")
        report = json.loads((train_report(tmp_path, "e", cfg) / "report.json").read_text())
        config = report["config"]
        assert config["variant"] == "sg-mcel" and config["epsilon"] == 0.2
        assert config["epsilons"] == [0.1, 0.2, 0.3]
        assert set(config) == {
            "batch_size", "epochs", "epsilon", "epsilons", "hidden_sizes", "learning_rate",
            "lr_decay", "momentum", "seed", "topk", "variant", "weight_decay",
        }

    def test_epsilons_set_the_soft_start(self, tmp_path):
        # with no mixing step (lr 0) the learned epsilons are the start
        path = tmp_path / "soft.ini"
        path.write_text(
            "[train]\nepochs = 2\nlearning_rate = 0.0\n"
            "[loss]\nvariant = sg-mcel-soft\nepsilons = 0.1,0.2,0.3\n"
        )
        report = json.loads((train_report(tmp_path, "s", str(path)) / "report.json").read_text())
        assert report["learned_mixing"] == [0.1, 0.2, 0.3]

    def test_epsilon_zero_matches_plain_ce(self, tmp_path):
        # mcel at epsilon 0 builds exactly the H of ce (I), so both train the
        # same model: equal parameters, epoch metrics and report results
        ce_out = train_report(tmp_path, "ce", write_config(tmp_path, "ce"))
        ce = json.loads((ce_out / "report.json").read_text())
        mcel_out = train_report(tmp_path, "m0", write_config(tmp_path, "mcel", 0.0))
        m0 = json.loads((mcel_out / "report.json").read_text())
        for key in ("epochs", "best_epoch", "best_val_acc", "test_top1", "test_topk"):
            assert ce[key] == m0[key]
        for name in ("model.ckpt", "epochs.jsonl"):
            assert (ce_out / name).read_bytes() == (mcel_out / name).read_bytes()
        sim = similarity_from_dataset(gen_blobs(3, 80, 2, spread=0.8, seed=0))
        h = build_targets("mcel", 3, sim, 0.0)
        assert np.array_equal(h, build_targets("ce", 3, None, 0.0))

    def test_gmcel_variants_train_as_their_vector_twins(self, tmp_path):
        # gmcel builds the H of mcel, and gmcel-soft that of sg-mcel-soft, so
        # each pair trains the same model; only the reported mixing differs
        def outputs(variant):
            config = tmp_path / f"{variant}.ini"
            config.write_text(CONFIG.format(variant=variant, epsilon=0.2))
            out = train_report(tmp_path, variant, str(config))
            report = json.loads((out / "report.json").read_text())
            files = [(out / name).read_bytes() for name in ("model.ckpt", "epochs.jsonl")]
            return files, report.get("learned_similarity")

        for matrix, vector in (("gmcel", "mcel"), ("gmcel-soft", "sg-mcel-soft")):
            assert outputs(matrix) == outputs(vector), matrix

    def test_missing_similarity_file_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "mcel", 0.2)
        code = run_cli(
            "train", "--blobs", "3,30,2,0.8", "--config", cfg,
            "--similarity", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_unknown_variant_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[loss]\nvariant = focal\n")
        code = run_cli(
            "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_no_dataset_is_usage_error(self, tmp_path):
        assert run_cli("train", "--out", str(tmp_path / "x")) == 1


class TestBadValues:
    def assert_clean_usage_error(self, proc):
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_too_few_samples(self, tmp_path):
        proc = run_python(
            "-m", "mcel.cli", "similarity", "--blobs", "3,1,2,1.0",
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert "more samples than classes" in proc.stderr

    def test_zero_batch_size(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nbatch_size = 0\n")
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)

    def test_non_integer_epochs(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = abc\n")
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert f"config file {path}: [train] epochs = 'abc' is not an integer" in proc.stderr

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nepochs = 2\n[train]\nepochs = 3\n")
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert "bad.ini" in proc.stderr

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        for section, key in (("train", "learning_rat"), ("loss", "alpah"), ("loss", "alpha"),
                             ("DEFAULT", "epochs")):
            path.write_text(f"[{section}]\n{key} = 5\n")
            proc = run_python(
                "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
                "--out", str(tmp_path / "x"),
            )
            self.assert_clean_usage_error(proc)
            assert f"unknown key '{key}' in [{section}]" in proc.stderr

    def test_epsilons_need_an_sg_variant(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[loss]\nvariant = gmcel\nepsilons = 0.1,0.2,0.3\n")
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert "per-class epsilons" in proc.stderr

    @pytest.mark.parametrize("command", ["train", "gridsearch", "noise-exp"])
    @pytest.mark.parametrize("fractions,part", [("0.85,0.15,0", 2), ("0.85,0,0.15", 1)])
    def test_zero_split_fraction(self, tmp_path, command, fractions, part):
        path = tmp_path / "bad.ini"
        path.write_text(f"[train]\nepochs = 2\n[split]\nfractions = {fractions}\n")
        proc = run_python(
            "-m", "mcel.cli", command, "--blobs", "4,30,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert f"split part {part} received zero samples" in proc.stderr


    def assert_usage_error_in_process(self, capsys, *argv):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        return err

    @pytest.fixture
    def no_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("trained before the bad value was rejected")
        monkeypatch.setattr(Trainer, "train_epoch", fail)

    @pytest.mark.parametrize("command", ["train", "gridsearch", "noise-exp"])
    @pytest.mark.parametrize("topk", ["0", "-1"])
    def test_topk_below_one(self, tmp_path, capsys, no_training, command, topk):
        path = tmp_path / "bad.ini"
        path.write_text(f"[train]\ntopk = {topk}\n")
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", "4,30,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert f"topk must be >= 1, got {topk}" in err

    @pytest.mark.parametrize("section,key,value,wanted", [
        ("train", "topk", "x", "an integer"),
        ("train", "epochs", "2.5", "an integer"),
        ("train", "learning_rate", "fast", "a number"),
        ("train", "hidden", "16,x", "a list of integers"),
        ("loss", "epsilon", "big", "a number"),
        ("loss", "epsilons", "0.1,one", "a list of numbers"),
        ("split", "fractions", "0.7,0.15,a", "a list of numbers"),
    ])
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, no_training,
                                              section, key, value, wanted):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        err = self.assert_usage_error_in_process(
            capsys, "train", "--blobs", "4,30,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert err == f"error: config file {path}: [{section}] {key} = {value!r} is not {wanted}\n"

    def test_standardize_takes_configparser_booleans(self, tmp_path, capsys):
        def checkpoint(value):
            path = tmp_path / "std.ini"
            path.write_text(f"[train]\nepochs = 2\n[split]\nstandardize = {value}\n")
            out = tmp_path / value
            assert run_cli("train", "--blobs", "3,30,2,0.8", "--data-seed", "1",
                           "--config", str(path), "--out", str(out)) == 0
            return (out / "model.ckpt").read_bytes()

        on, off = checkpoint("true"), checkpoint("false")
        assert on != off
        assert [checkpoint(v) for v in ("on", "Yes", "1")] == [on] * 3
        assert [checkpoint(v) for v in ("off", "No", "0")] == [off] * 3
        for value in ("ture", "maybe", "2"):
            path = tmp_path / "bad.ini"
            path.write_text(f"[split]\nstandardize = {value}\n")
            err = self.assert_usage_error_in_process(
                capsys, "train", "--blobs", "3,30,2,0.8", "--config", str(path),
                "--out", str(tmp_path / "x"),
            )
            assert "[split] standardize" in err and repr(value) in err

    @pytest.fixture
    def no_lda(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("fit the LDA before the bad value was rejected")
        monkeypatch.setattr("mcel.cli.similarity_from_dataset", fail)

    @pytest.mark.parametrize("config,message", [
        ("[loss]\nvariant = sg-mcel\nepsilons = 0.1,0.2\n",
         "[loss] epsilons has 2 values, the data has 4 classes"),
        ("[train]\nbatch_size = 0\n[loss]\nvariant = mcel\n",
         "epochs and batch_size must be >= 1"),
    ], ids=["epsilons-count", "batch-size"])
    def test_train_config_errors_come_before_the_lda_fit(self, tmp_path, capsys, no_lda,
                                                          config, message):
        path = tmp_path / "bad.ini"
        path.write_text(config)
        err = self.assert_usage_error_in_process(
            capsys, "train", "--blobs", "4,40,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert message in err

    @pytest.mark.parametrize("command,flag,value,form", [
        ("noise-exp", "--pairs", "0", "A:B,C:D"),
        ("noise-exp", "--pairs", "0:1:2", "A:B,C:D"),
        ("noise-exp", "--pairs", "a:b", "A:B,C:D"),
        ("noise-exp", "--pairs", "0:1,", "A:B,C:D"),
        ("train", "--blobs", "4,x,2,1.0", "K,PER_CLASS,DIM,SPREAD"),
        ("train", "--blobs", "4,40,2", "K,PER_CLASS,DIM,SPREAD"),
    ])
    def test_malformed_flag_names_the_flag(self, tmp_path, capsys, no_training,
                                           command, flag, value, form):
        blobs = () if flag == "--blobs" else ("--blobs", "4,30,2,1.0")
        err = self.assert_usage_error_in_process(
            capsys, command, *blobs, flag, value, "--out", str(tmp_path / "x"),
        )
        assert err == f"error: {flag} wants {form}, got {value!r}\n"

    def test_epsilon_candidates_checked_before_training(self, tmp_path, capsys, no_training):
        err = self.assert_usage_error_in_process(
            capsys, "noise-exp", "--blobs", "4,30,2,1.0", "--epsilon-candidates", "0.2,0.7",
            "--out", str(tmp_path / "x"),
        )
        assert "epsilon candidate 0.7 outside [0, 0.5)" in err


class TestRuntimeExitCodes:
    def test_truncated_idx_is_runtime_error(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 4, 2, 2) + bytes(10))
        lab.write_bytes(struct.pack(">II", 0x801, 4) + bytes([0, 1, 0, 1]))
        proc = run_python(
            "-m", "mcel.cli", "similarity", "--data-idx", str(img), str(lab),
            "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and "truncated" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def assert_clean_data_error(self, proc):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_diverged_training_prints_one_line(self, tmp_path):
        # no RuntimeWarning from the overflowing epoch ahead of the error
        path = tmp_path / "diverge.ini"
        path.write_text("[train]\nlearning_rate = 1e10\nbatch_size = 8\n")
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "4,100,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_data_error(proc)
        assert proc.stderr.startswith("error: training diverged at epoch 0, batch ")

    @pytest.mark.parametrize("text,line", [
        # the empty line sends the body to the csv module
        ("x,label\n1," + "a" * 140_000 + "\n\n2,b\n", 2),
        ("x" * 140_000 + ",label\n1,a\n2,b\n", 1),
    ], ids=["body", "header"])
    def test_cell_over_the_csv_field_limit_is_a_data_error(self, tmp_path, text, line):
        path = tmp_path / "big.csv"
        path.write_text(text)
        proc = run_python(
            "-m", "mcel.cli", "similarity", "--data-csv", str(path), "--label-col", "label",
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_data_error(proc)
        assert f"{path}: line {line}: field larger than field limit" in proc.stderr

    def test_corrupted_gradcheck_exits_3(self):
        proc = run_python("-m", "mcel.cli", "gradcheck", "--trials", "3", "--corrupt")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout.count("[FAIL]") == len(VARIANTS)

    def test_gradcheck_prints_one_line_per_variant(self):
        proc = run_python("-m", "mcel.cli", "gradcheck", "--trials", "5")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == list(VARIANTS)
        assert all(line.endswith("[ok]") for line in lines)


def test_cli_import_loads_no_scipy():
    proc = run_python(
        "-c",
        "import sys, mcel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestGridSearch:
    def test_default_grid_contract(self, tmp_path):
        out = tmp_path / "grid"
        cfg = write_config(tmp_path)
        code = run_cli(
            "gridsearch", "--blobs", "3,60,2,0.8", "--config", cfg,
            "--seeds", "0", "--out", str(out),
        )
        assert code == 0
        grid = json.loads((out / "grid.json").read_text())
        assert [row["epsilon"] for row in grid["grid"]] == [
            0.0, 0.1, 0.2, 0.3, 0.4, 0.45
        ]
        best = max(
            grid["grid"], key=lambda r: (r["mean_val_acc"], -r["epsilon"])
        )
        assert grid["selected_epsilon"] == best["epsilon"]

    def test_single_cell_degenerates_to_train(self, tmp_path):
        out = tmp_path / "grid1"
        cfg = write_config(tmp_path)
        code = run_cli(
            "gridsearch", "--blobs", "3,60,2,0.8", "--config", cfg,
            "--epsilons", "0.2", "--seeds", "7", "--out", str(out),
        )
        assert code == 0
        grid = json.loads((out / "grid.json").read_text())
        assert len(grid["runs"]) == 1
        assert grid["selected_epsilon"] == 0.2

    def test_splits_once_per_seed(self):
        dataset = gen_blobs(3, 40, 2, spread=0.8, seed=1)
        calls = []

        def make_splits(seed):
            calls.append(seed)
            train, val, test = split(dataset, (0.7, 0.15, 0.15), seed)
            return train, val, test, similarity_from_dataset(train)

        base = TrainConfig(epochs=2, batch_size=16)
        result = run_grid_search(make_splits, base, (4,), (0.0, 0.2, 0.4), (5, 6), topk=2)
        assert calls == [5, 6]
        assert [(r["epsilon"], r["seed"]) for r in result["runs"]] == [
            (e, s) for e in (0.0, 0.2, 0.4) for s in (5, 6)
        ]


@pytest.fixture
def trainings(monkeypatch):
    """The epsilon of each harness.run_training call, in call order."""
    calls = []

    def counted(train, val, test, cfg, *args, **kwargs):
        calls.append(cfg.epsilon)
        return run_training(train, val, test, cfg, *args, **kwargs)

    run_training = harness.run_training
    monkeypatch.setattr(harness, "run_training", counted)
    return calls


class TestSweep:
    """gridsearch and noise-exp train each distinct epsilon once per seed."""

    def test_grid_trains_a_repeated_epsilon_once(self, trainings):
        dataset = gen_blobs(3, 40, 2, spread=0.8, seed=1)

        def make_splits(seed):
            train, val, test = split(dataset, (0.7, 0.15, 0.15), seed)
            return train, val, test, similarity_from_dataset(train)

        base = TrainConfig(epochs=2, batch_size=16)
        result = run_grid_search(make_splits, base, (4,), (0.2, 0.0, 0.2), (5, 6), topk=2)
        assert trainings == [0.2, 0.0] * 2
        assert [row["epsilon"] for row in result["grid"]] == [0.2, 0.0, 0.2]
        assert result["grid"][0] == result["grid"][2]
        assert [(r["epsilon"], r["seed"]) for r in result["runs"]] == [
            (e, s) for e in (0.2, 0.0, 0.2) for s in (5, 6)
        ]

    @pytest.mark.parametrize("candidates", [(0.0, 0.2), (0.0,), (0.2, 0.2), (0.2, 0.3, 0.4)])
    def test_noise_ce_is_the_epsilon_zero_run(self, trainings, candidates):
        dataset = gen_blobs(4, 40, 2, spread=1.0, seed=0)
        fractions, seeds = (0.1, 0.3), (0, 1)
        result = run_noise_experiment(
            dataset, ((0, 1), (2, 3)), fractions, seeds, TrainConfig(epochs=3, batch_size=16),
            (4,), epsilon_candidates=candidates, topk=2,
        )
        per_cell = len({0.0, *candidates})
        assert len(trainings) == len(fractions) * len(seeds) * per_cell
        rows = result["rows"]
        assert [r["variant"] for r in rows] == ["ce", "mcel"] * len(fractions) * len(seeds)
        for ce, mcel in zip(rows[::2], rows[1::2]):
            assert ce["epsilon"] == 0.0 and mcel["epsilon"] in candidates
            if mcel["epsilon"] == 0.0:
                assert ce["test_top1"] == mcel["test_top1"]


class TestNoiseExperiment:
    def test_mask_contains_only_train_rows(self, tmp_path):
        out = tmp_path / "noise"
        cfg = write_config(tmp_path)
        code = run_cli(
            "noise-exp", "--blobs", "4,60,2,0.8", "--config", cfg,
            "--fractions", "0.3", "--seeds", "0", "--out", str(out),
        )
        assert code == 0
        mask = [int(v) for v in (out / "noise_mask_f0.3_s0.txt").read_text().split()]
        n_train = int(round(0.7 * 240))
        assert mask and all(0 <= i < n_train for i in mask)
        rows = (out / "noise.csv").read_text().splitlines()
        assert rows[0] == "fraction,seed,variant,epsilon,test_top1"
        assert len(rows) == 3  # header + ce + mcel

    def test_full_swap_collapses_accuracy(self, tmp_path):
        out = tmp_path / "collapse"
        cfg = write_config(tmp_path)
        code = run_cli(
            "noise-exp", "--blobs", "2,120,2,0.5", "--config", cfg,
            "--fractions", "1.0", "--seeds", "0", "--pairs", "0:1",
            "--out", str(out),
        )
        assert code == 0
        rows = (out / "noise.csv").read_text().splitlines()[1:]
        for row in rows:
            acc = float(row.split(",")[-1])
            assert acc < 0.5 + 0.1


class TestGradcheckCommand:
    def test_default_passes(self, capsys):
        assert run_cli("gradcheck", "--trials", "10") == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_minimal_k(self):
        assert run_cli("gradcheck", "--k", "2", "--trials", "5") == 0

    def test_corrupted_gradient_detected(self):
        assert run_cli("gradcheck", "--trials", "3", "--corrupt") == 3

    @pytest.mark.parametrize("flag,value,least", [
        ("--k", "1", 2), ("--k", "0", 2), ("--trials", "0", 1), ("--trials", "-2", 1),
    ])
    def test_arguments_that_check_nothing(self, capsys, monkeypatch, flag, value, least):
        def fail(*args):
            raise AssertionError("checked a gradient before the bad value was rejected")
        monkeypatch.setattr("mcel.cli.run_all", fail)
        assert run_cli("gradcheck", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= {least}, got {value}\n"
