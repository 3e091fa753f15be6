import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcel
from mcel import gradcheck, harness
from mcel.cli import CONFIG_KEYS, FIELDS, load_config, main
from mcel.data import gen_blobs, split
from mcel.errors import TrainingDivergedError
from mcel.harness import run_grid_search, run_noise_experiment, similarity_from_dataset
from mcel.lda import load_similarity
from mcel.losses import VARIANTS, build_targets, logit_grad
from mcel.net import TrainConfig, Trainer, batch_gradient


SRC = str(Path(mcel.__file__).resolve().parents[1])
CORRUPT_GRADCHECK = """
import sys
from mcel import cli, net
logit_grad = net.logit_grad
net.logit_grad = lambda probs, targets: logit_grad(probs, targets) + 1e-3
sys.exit(cli.main(["gradcheck", "--trials", "3"]))
"""


def run_cli(*argv):
    return main(list(argv))


def run_python(*argv, **env):
    """Run a fresh interpreter with the package importable and env added to
    its environment; returns the completed process with text stdout/stderr."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
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

    def test_prints_the_path_and_the_checksum(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("similarity", "--blobs", "6,100,4,1.0", "--out", str(out)) == 0
        # the checksum is similarity_checksum's: the sha256 of the written file
        digest = hashlib.sha256((out / "similarity.txt").read_bytes()).hexdigest()
        assert capsys.readouterr().out.splitlines() == [
            f"similarity matrix for k=6 written to {out / 'similarity.txt'}",
            f"checksum = {digest}",
        ]

    def test_train_reports_the_printed_checksum(self, tmp_path, capsys):
        # train --similarity trains on the matrix as similarity wrote it
        out = tmp_path / "sim"
        assert run_cli("similarity", "--blobs", "4,100,3,1.5", "--out", str(out)) == 0
        printed = capsys.readouterr().out.splitlines()[-1].removeprefix("checksum = ")
        config = tmp_path / "cfg.ini"
        config.write_text("[train]\nepochs = 1\n[loss]\nvariant = mcel\n")
        assert run_cli("train", "--blobs", "4,100,3,1.5", "--config", str(config),
                       "--similarity", str(out / "similarity.txt"),
                       "--out", str(tmp_path / "train")) == 0
        report = json.loads((tmp_path / "train" / "report.json").read_text())
        assert report["similarity_checksum"] == printed

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
        cfg = write_config(tmp_path, "sg-mcel", "0.1,0.2,0.3")
        report = json.loads((train_report(tmp_path, "e", cfg) / "report.json").read_text())
        config = report["config"]
        assert config["variant"] == "sg-mcel" and config["epsilon"] == [0.1, 0.2, 0.3]
        assert set(config) == {
            "batch_size", "epochs", "epsilon", "hidden_sizes", "learning_rate",
            "lr_decay", "momentum", "seed", "split_fractions", "standardize", "topk",
            "variant", "weight_decay",
        }
        assert config["split_fractions"] == [0.7, 0.15, 0.15] and config["standardize"] is True

    def test_epsilons_set_the_soft_start(self, tmp_path):
        # with no mixing step (lr 0) the learned epsilons are the start
        path = tmp_path / "soft.ini"
        path.write_text(
            "[train]\nepochs = 2\nlearning_rate = 0.0\n"
            "[loss]\nvariant = sg-mcel-soft\nepsilon = 0.1,0.2,0.3\n"
        )
        report = json.loads((train_report(tmp_path, "s", str(path)) / "report.json").read_text())
        assert report["learned_mixing"] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("variant,epsilons", [
        ("ce", None), ("mcel", None), ("sg-mcel", None), ("gmcel", None),
        ("sg-mcel-soft", None), ("sg-mcel-soft", (0.1, 0.2, 0.3, 0.4)), ("gmcel-soft", None),
        ("gmcel-soft", (0.1, 0.2, 0.3, 0.4)), ("mcel", (0.1, 0.2, 0.3, 0.4)),
    ])
    def test_learned_mixing_follows_from_per_class(self, tmp_path, variant, epsilons):
        # config.epsilon is the list the file gives; every variant whose A
        # moves reports its per-class epsilons, config.epsilon broadcast to
        # k, in report.json's bytes
        epsilons = epsilons or (0.2,)
        path = tmp_path / "cfg.ini"
        path.write_text(f"[train]\nepochs = 5\n[loss]\nvariant = {variant}\n"
                        f"epsilon = {','.join(map(str, epsilons))}\n")
        out = tmp_path / "out"
        assert run_cli("train", "--blobs", "4,150,2,1.0", "--config", str(path),
                       "--seed", "3", "--out", str(out)) == 0
        text = (out / "report.json").read_text()
        report = json.loads(text)
        facts = VARIANTS[variant]
        assert ("learned_mixing" in report) == ("learned_similarity" in report) == facts.moves
        assert report["config"]["epsilon"] == list(epsilons) and "epsilons" not in report["config"]
        if not facts.moves:
            return
        want = np.broadcast_to(report["config"]["epsilon"], 4).tolist()
        assert f'"learned_mixing":{json.dumps(want, separators=(",", ":"))},' in text

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
        h = build_targets("mcel", 3, sim, (0.0,))
        assert np.array_equal(h, build_targets("ce", 3, None, (0.0,)))

    def test_gmcel_variants_train_as_their_vector_twins(self, tmp_path):
        # sg-mcel and gmcel are the VARIANTS row of mcel, gmcel-soft that of
        # sg-mcel-soft, so each pair gives the same files, and the same report
        # but its name, per-class epsilons included
        def outputs(variant, epsilon):
            config = tmp_path / "cfg.ini"
            config.write_text(CONFIG.format(variant=variant, epsilon=epsilon))
            out = tmp_path / f"{variant}{len(epsilon)}"
            assert run_cli("train", "--blobs", "4,80,2,0.8", "--config", str(config),
                           "--seed", "5", "--out", str(out)) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"].pop("variant") == variant
            files = [(out / name).read_bytes() for name in ("model.ckpt", "epochs.jsonl")]
            return files, report

        per_class = "0.1,0.2,0.3,0.4"
        for name, row, epsilon in (("gmcel", "mcel", "0.2"), ("gmcel", "mcel", per_class),
                                   ("sg-mcel", "mcel", "0.2"), ("sg-mcel", "mcel", per_class),
                                   ("gmcel-soft", "sg-mcel-soft", "0.2"),
                                   ("gmcel-soft", "sg-mcel-soft", per_class)):
            assert outputs(name, epsilon) == outputs(row, epsilon), (name, epsilon)

    def test_gmcel_names_are_rows_of_their_vector_twins(self):
        assert VARIANTS["gmcel"] is VARIANTS["mcel"]
        assert VARIANTS["sg-mcel"] is VARIANTS["mcel"]
        assert VARIANTS["gmcel-soft"] is VARIANTS["sg-mcel-soft"]
        assert len({id(row) for row in VARIANTS.values()}) == 3

    def test_missing_similarity_file_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "mcel", 0.2)
        code = run_cli(
            "train", "--blobs", "3,30,2,0.8", "--config", cfg,
            "--similarity", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_variant_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[loss]\nvariant = focal\n")
        code = run_cli(
            "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_similarity_of_another_k_leaves_no_out(self, tmp_path, capsys, monkeypatch):
        # the file's k is checked against the data before the split
        def fail(*args, **kwargs):
            raise AssertionError("split before the similarity file was rejected")
        monkeypatch.setattr("mcel.data.split", fail)
        sim = tmp_path / "sim.txt"
        sim.write_text("3\n0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n")
        code = run_cli(
            "train", "--blobs", "4,40,2,1.0", "--config", write_config(tmp_path, "mcel"),
            "--similarity", str(sim), "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: similarity matrix is 3 x 3, the model has 4 classes\n")
        assert not (tmp_path / "x").exists()

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
        assert f"config file {path}: [train] epochs: wants an integer, got 'abc'" in proc.stderr

    @pytest.mark.parametrize("text,line", [
        ("[loss]\nvariant = mc%el\n", "unknown loss variant 'mc%el'; pick one of ("),
        ("[train]\nepochs = %(x)s\n", "[train] epochs: wants an integer, got '%(x)s'"),
    ], ids=["percent", "interpolation"])
    def test_values_are_read_as_written(self, tmp_path, text, line):
        # no configparser interpolation, whose errors would escape as a traceback
        path = tmp_path / "bad.ini"
        path.write_text(text)
        proc = run_python(
            "-m", "mcel.cli", "train", "--blobs", "3,30,2,0.8", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_usage_error(proc)
        assert proc.stderr.startswith(f"error: config file {path}: {line}")

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

    def test_gmcel_takes_epsilons(self, tmp_path):
        # every similarity variant takes per-class epsilons
        path = tmp_path / "cfg.ini"
        path.write_text("[train]\nepochs = 2\n[loss]\nvariant = gmcel\nepsilon = 0.1,0.2,0.3\n")
        out = tmp_path / "x"
        assert run_cli("train", "--blobs", "3,30,2,0.8", "--config", str(path),
                       "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["config"]["epsilon"] == [
            0.1, 0.2, 0.3]

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
        assert not (tmp_path / "x").exists()


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
        ("train", "hidden", "", "a list of integers"),
        ("train", "hidden", "8,,8", "a list of integers"),
        ("loss", "epsilon", "big", "a list of numbers"),
        ("loss", "epsilon", "0.1,one", "a list of numbers"),
        ("loss", "epsilon", "0.1,,0.2", "a list of numbers"),
        ("split", "fractions", "0.7,0.15,a", "a list of numbers"),
        ("split", "fractions", "0.7,0.15,0.15,", "a list of numbers"),
    ])
    def test_non_numeric_value_names_its_key(self, tmp_path, capsys, no_training,
                                              section, key, value, wanted):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        err = self.assert_usage_error_in_process(
            capsys, "train", "--blobs", "4,30,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert err == f"error: config file {path}: [{section}] {key}: wants {wanted}, got {value!r}\n"

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
        # train and gridsearch fit through the cli's name, noise-exp through harness's
        monkeypatch.setattr("mcel.cli.similarity_from_dataset", fail)
        monkeypatch.setattr("mcel.harness.similarity_from_dataset", fail)

    # (id, config, message); gridsearch and noise-exp ignore [loss] epsilon
    # but still reject an invalid one. The count of epsilons is checked
    # against the data, by train only.
    CONFIG_ERRORS = [
        ("epsilons-count", "[loss]\nvariant = sg-mcel\nepsilon = 0.1,0.2\n",
         "[loss] epsilon has 2 values, the data has 4 classes"),
        ("epsilons-key", "[loss]\nvariant = sg-mcel\nepsilons = 0.1,0.2,0.3,0.4\n",
         "unknown key 'epsilons' in [loss]"),
        ("batch-size", "[train]\nbatch_size = 0\n[loss]\nvariant = mcel\n",
         "batch_size must be >= 1, got 0"),
        ("epsilon", "[loss]\nvariant = mcel\nepsilon = 0.7\n", "epsilon 0.7 outside [0, 0.5)"),
        ("epsilons-value", "[loss]\nvariant = sg-mcel\nepsilon = 0.1,0.2,0.6,0.3\n",
         "epsilon 0.6 outside [0, 0.5)"),
        ("hidden", "[train]\nhidden = 0\n", "hidden layer sizes must be >= 1, got 0"),
        ("momentum", "[train]\nmomentum = 1.5\n", "momentum must be in [0, 1)"),
        # a NaN or infinite rate fails its check, not the training's first batch
        *[(f"{key.replace('_', '-')}-{value}", f"[train]\n{key} = {value}\n",
           f"{key} must be in [0, inf), got {value}")
          for key, value in (("learning_rate", "nan"), ("learning_rate", "inf"),
                             ("weight_decay", "nan"), ("weight_decay", "inf"),
                             ("lr_decay", "nan"), ("lr_decay", "inf"))],
        ("lr-decay-negative", "[train]\nlr_decay = -0.5\n",
         "lr_decay must be in [0, inf), got -0.5"),
    ]

    @pytest.mark.parametrize("command,config,message", [
        pytest.param(command, config, message,
                     id=case if command == "train" else f"{case}-{command}")
        for case, config, message in CONFIG_ERRORS
        for command in ("train", "gridsearch", "noise-exp")
        if case != "epsilons-count" or command == "train"
    ])
    def test_train_config_errors_come_before_the_lda_fit(self, tmp_path, capsys, no_lda,
                                                          no_training, command, config,
                                                          message):
        path = tmp_path / "bad.ini"
        path.write_text(config)
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", "4,40,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert err == f"error: config file {path}: {message}\n"

    @pytest.mark.parametrize("command", ["train", "gridsearch", "noise-exp"])
    def test_a_class_missing_from_the_train_split(self, tmp_path, capsys, no_lda, no_training,
                                                  command):
        # 20 rows at a train share of 0.05 leave one train row, of one class
        path = tmp_path / "frac.ini"
        path.write_text("[split]\nfractions = 0.05,0.5,0.45\n")
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", "5,4,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert err == "error: class 0 has no samples in the train split\n"
        assert not (tmp_path / "x").exists()

    # (command, list flag, form, a list with a gap)
    LIST_FLAGS = [
        ("gridsearch", "--epsilons", "a list of numbers", "0.1,,0.2"),
        ("gridsearch", "--seeds", "a list of integers", "0,,1"),
        ("noise-exp", "--fractions", "a list of numbers", "0.1,"),
        ("noise-exp", "--seeds", "a list of integers", ",0"),
        ("noise-exp", "--epsilon-candidates", "a list of numbers", "0.2, ,0.3"),
    ]

    @pytest.mark.parametrize("command,flag,value,form", [
        ("noise-exp", "--pairs", "0", "A:B,C:D"),
        ("noise-exp", "--pairs", "0:1:2", "A:B,C:D"),
        ("noise-exp", "--pairs", "a:b", "A:B,C:D"),
        ("noise-exp", "--pairs", "0:1,", "A:B,C:D"),
        ("noise-exp", "--pairs", "x", "A:B,C:D"),
        ("noise-exp", "--pairs", "", "A:B,C:D"),
        ("train", "--blobs", "4,x,2,1.0", "K,PER_CLASS,DIM,SPREAD"),
        ("train", "--blobs", "4,40,2", "K,PER_CLASS,DIM,SPREAD"),
        ("gridsearch", "--epsilons", "x", "a list of numbers"),
        ("train", "--seed", "x", "an integer"),
        *[(command, flag, value, form) for command, flag, form, gap in LIST_FLAGS
          for value in ("", gap)],
    ])
    def test_malformed_flag_names_the_flag(self, tmp_path, capsys, monkeypatch,
                                           command, flag, value, form):
        # rejected by the parser: nothing loads, splits or is written
        def fail(*args, **kwargs):
            raise AssertionError("read the data before the bad flag was rejected")
        monkeypatch.setattr("mcel.data.gen_blobs", fail)
        monkeypatch.setattr("mcel.data.split", fail)
        blobs = () if flag == "--blobs" else ("--blobs", "4,30,2,1.0")
        err = self.assert_usage_error_in_process(
            capsys, command, *blobs, flag, value, "--out", str(tmp_path / "x"),
        )
        assert err == f"error: mcel {command}: argument {flag}: wants {form}, got {value!r}\n"
        assert not (tmp_path / "x").exists()

    def test_epsilon_candidates_checked_before_training(self, tmp_path, capsys, no_training):
        err = self.assert_usage_error_in_process(
            capsys, "noise-exp", "--blobs", "4,30,2,1.0", "--epsilon-candidates", "0.2,0.7",
            "--out", str(tmp_path / "x"),
        )
        assert "epsilon candidate 0.7 outside [0, 0.5)" in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--fractions", "0.3,1.5", "noise fraction 1.5 outside [0, 1]"),
        ("--pairs", "0:1,1:2", "class 1 appears in more than one pair"),
        ("--pairs", "0:7", "pair (0,7) references a class outside [0,4)"),
    ])
    def test_noise_settings_checked_before_any_split(self, tmp_path, capsys, monkeypatch,
                                                     flag, value, message):
        def fail(*args, **kwargs):
            raise AssertionError("split the data before the bad value was rejected")
        monkeypatch.setattr("mcel.data.split", fail)
        err = self.assert_usage_error_in_process(
            capsys, "noise-exp", "--blobs", "4,30,2,1.0", flag, value,
            "--out", str(tmp_path / "x"),
        )
        # the parser checks all but the class range, which needs the data's k
        where = "" if value == "0:7" else f"mcel noise-exp: argument {flag}: "
        assert err == f"error: {where}{message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["train", "gridsearch", "noise-exp"])
    @pytest.mark.parametrize("fractions,shares", [
        ("0.5,0.5,0.5", "0.5,0.5,0.5"), ("0.7,0.3", "0.7,0.3"),
        ("nan,0.5,0.5", "nan,0.5,0.5"), ("1,0,nan", "1.0,0.0,nan"),
    ])
    def test_bad_split_fractions_come_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      command, fractions, shares):
        def fail(*args, **kwargs):
            raise AssertionError("read or split the data before the bad value was rejected")
        monkeypatch.setattr("mcel.data.gen_blobs", fail)
        monkeypatch.setattr("mcel.data.split", fail)
        path = tmp_path / "bad.ini"
        path.write_text(f"[split]\nfractions = {fractions}\n")
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", "4,30,2,1.0", "--config", str(path),
            "--out", str(tmp_path / "x"),
        )
        assert err == (f"error: config file {path}: split fractions must be three numbers "
                       f">= 0 that sum to 1, got {shares}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["similarity", "gridsearch", "noise-exp"])
    def test_too_many_lda_components_leave_no_out(self, tmp_path, capsys, no_training,
                                                  command):
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", "4,40,2,1.0", "--lda-components", "9",
            "--out", str(tmp_path / "x"),
        )
        assert err == "error: num_components must be in [1, 2], got 9\n"
        assert not (tmp_path / "x").exists()

    def test_one_class_data_leaves_no_out(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("a,b,label\n0.0,1.0,x\n1.0,0.5,x\n2.0,0.0,x\n")
        err = self.assert_usage_error_in_process(
            capsys, "similarity", "--data-csv", str(path), "--label-col", "label",
            "--out", str(tmp_path / "x"),
        )
        assert err == "error: LDA needs at least 2 classes, got 1\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,blobs", [
        pytest.param(command, blobs, id=command + suffix) for command in ("similarity", "train")
        for blobs, suffix in (("3,10,0,1.0", ""), ("3,10,2,nan", "-nan-spread"),
                              ("3,10,2,inf", "-inf-spread"))
    ])
    def test_blobs_without_a_feature_leave_no_out(self, tmp_path, capsys, command, blobs):
        err = self.assert_usage_error_in_process(
            capsys, command, "--blobs", blobs, "--out", str(tmp_path / "x"),
        )
        assert err == "error: need k >= 2, per_class >= 1, dim >= 1, finite spread > 0\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["similarity", "train"])
    def test_csv_without_a_feature_column_leaves_no_out(self, tmp_path, capsys, command):
        path = tmp_path / "labels.csv"
        path.write_text("label\n0\n1\n2\n0\n")
        out = tmp_path / "x"
        code = run_cli(command, "--data-csv", str(path), "--label-col", "label",
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: no feature column besides 'label'\n")
        assert not out.exists()

    # (command, flags, the line after "error: "); "{tmp}" is the test's
    # directory, which holds a config file with a bad value
    VALUE_ERRORS = [
        ("gridsearch", ["--epsilons", "0.7"],
         "mcel gridsearch: argument --epsilons: grid epsilon 0.7 outside [0, 0.5)"),
        ("noise-exp", ["--fractions", "1.5"],
         "mcel noise-exp: argument --fractions: noise fraction 1.5 outside [0, 1]"),
        ("noise-exp", ["--epsilon-candidates", "0.7"],
         "mcel noise-exp: argument --epsilon-candidates: epsilon candidate 0.7 outside [0, 0.5)"),
        ("similarity", ["--ridge", "nan"],
         "mcel similarity: argument --ridge: ridge must be in [0, inf), got nan"),
        ("train", ["--ridge", "x"], "mcel train: argument --ridge: wants a number, got 'x'"),
        ("similarity", ["--lda-components", "0"],
         "mcel similarity: argument --lda-components: must be >= 1, got 0"),
        ("gridsearch", ["--lda-components", "x"],
         "mcel gridsearch: argument --lda-components: wants an integer, got 'x'"),
        ("similarity", ["--data-csv", "{tmp}/x.csv"],
         "mcel similarity: argument --label-col: required with --data-csv"),
        ("train", ["--data-csv", "{tmp}/x.csv", "--config", "{tmp}/bad.ini"],
         "mcel train: argument --label-col: required with --data-csv"),
        # each seed and noise fraction makes runs, so a repeat would count them twice
        ("gridsearch", ["--seeds", "0,0,1"], "mcel gridsearch: argument --seeds: seed 0 repeats"),
        ("noise-exp", ["--seeds", "1,0,1"], "mcel noise-exp: argument --seeds: seed 1 repeats"),
        ("noise-exp", ["--fractions", "0.1,0.3,0.1"],
         "mcel noise-exp: argument --fractions: noise fraction 0.1 repeats"),
        ("noise-exp", ["--pairs", "0:0"],
         "mcel noise-exp: argument --pairs: pair (0,0) repeats a class"),
    ]

    @pytest.mark.parametrize("command,flags,line", VALUE_ERRORS)
    def test_bad_value_needing_no_data_leaves_no_out(self, tmp_path, capsys, monkeypatch,
                                                     command, flags, line):
        def fail(*args, **kwargs):
            raise AssertionError("read or split the data before the bad value was rejected")
        for name in ("gen_blobs", "load_csv", "split"):
            monkeypatch.setattr(f"mcel.data.{name}", fail)
        (tmp_path / "bad.ini").write_text("[train]\nepochs = abc\n")
        flags = [flag.replace("{tmp}", str(tmp_path)) for flag in flags]
        source = () if "--data-csv" in flags else ("--blobs", "4,30,2,1.0")
        err = self.assert_usage_error_in_process(
            capsys, command, *source, *flags, "--out", str(tmp_path / "x"),
        )
        assert err == f"error: {line}\n"
        assert not (tmp_path / "x").exists()


BLOBS = ("--blobs", "4,40,2,1.0")
# one epoch whose step leaves finite weights (max |w| 6.7e199) on --blobs 4,100,2,1.0
DIVERGE_AT_VALIDATION = "[train]\nepochs = 1\nlearning_rate = 1e200\nbatch_size = 1000\n"


class TestOneExitPath:
    """main turns every bad flag, path or value into exit 1 and one line."""

    # (id, argv, the text the line must hold); "{tmp}" is the test's directory
    # and "{tmp}/file" an existing file
    BAD_INPUT = [
        ("malformed-flag", ["gridsearch", *BLOBS, "--epsilons", "x"],
         "mcel gridsearch: argument --epsilons"),
        ("unknown-flag", ["train", *BLOBS, "--bogus"], "unrecognized arguments: --bogus"),
        ("no-source", ["train"],
         "mcel train: one of the arguments --data-csv --data-idx --blobs is required"),
        ("two-sources", ["similarity", *BLOBS, "--data-csv", "{tmp}/file"],
         "mcel similarity: argument --data-csv: not allowed with argument --blobs"),
        ("no-command", [], "required: command"),
        ("missing-csv", ["similarity", "--data-csv", "{tmp}/missing.csv", "--label-col", "y"],
         "{tmp}/missing.csv"),
        ("missing-idx", ["similarity", "--data-idx", "{tmp}/img.idx", "{tmp}/lab.idx"],
         "{tmp}/img.idx"),
        ("similarity-dir", ["train", *BLOBS, "--similarity", "{tmp}", "--config",
                            "{tmp}/mcel.ini"], "Is a directory"),
        # a valid 3 x 3 file for 4-class data, which ce would load and report
        ("similarity-unused", ["train", *BLOBS, "--similarity", "{tmp}/sim3.txt"],
         "mcel train: argument --similarity: loss variant 'ce' takes no similarity matrix"),
        ("csv-dir", ["similarity", "--data-csv", "{tmp}", "--label-col", "y"],
         "Is a directory"),
        ("out-file", ["similarity", *BLOBS, "--out", "{tmp}/file"], "{tmp}/file"),
        ("train-seed", ["train", *BLOBS, "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
        ("data-seed", ["similarity", *BLOBS, "--data-seed", "-1"],
         "argument --data-seed: must be >= 0, got -1"),
        ("grid-seeds", ["gridsearch", *BLOBS, "--seeds", "0,-1"],
         "argument --seeds: must be >= 0, got -1"),
        ("noise-seeds", ["noise-exp", *BLOBS, "--seeds", "-2"],
         "argument --seeds: must be >= 0, got -2"),
        ("gradcheck-seed", ["gradcheck", "--seed", "-1"],
         "argument --seed: must be >= 0, got -1"),
        ("ridge-nan", ["similarity", *BLOBS, "--ridge", "nan"],
         "argument --ridge: ridge must be in [0, inf), got nan"),
        ("ridge-inf", ["gridsearch", *BLOBS, "--ridge", "inf"],
         "argument --ridge: ridge must be in [0, inf), got inf"),
        ("missing-config", ["train", *BLOBS, "--config", "{tmp}/missing.ini"],
         "config file {tmp}/missing.ini not found"),
        ("config-without-a-header", ["train", *BLOBS, "--config", "{tmp}/noheader.ini"],
         "config file {tmp}/noheader.ini: File contains no section headers. "
         "file: '{tmp}/noheader.ini', line: 1 '[train\\n'"),
    ]

    @staticmethod
    def argv(tmp_path, argv):
        (tmp_path / "file").write_text("")
        (tmp_path / "mcel.ini").write_text("[loss]\nvariant = mcel\n")
        (tmp_path / "noheader.ini").write_text("[train\nepochs = 2\n")
        (tmp_path / "sim3.txt").write_text("3\n0 0.5 0.5\n0.5 0 0.5\n0.5 0.5 0\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        if argv and argv[0] != "gradcheck" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        return argv

    @pytest.mark.parametrize("argv,message", [
        pytest.param(argv, message, id=case) for case, argv, message in BAD_INPUT
    ])
    def test_bad_input_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch,
                                             argv, message):
        def fail(*args, **kwargs):
            raise AssertionError("loaded data before the bad flag was rejected")
        if "argument --" in message:
            monkeypatch.setattr("mcel.data.gen_blobs", fail)
        assert run_cli(*self.argv(tmp_path, argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert message.replace("{tmp}", str(tmp_path)) in captured.err
        assert not (tmp_path / "out").exists()

    def test_bad_path_in_a_fresh_interpreter(self, tmp_path):
        missing = tmp_path / "missing.csv"
        proc = run_python("-m", "mcel.cli", *self.argv(
            tmp_path, ["similarity", "--data-csv", str(missing), "--label-col", "y"]))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and str(missing) in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_infinite_ridge_in_a_fresh_interpreter(self, tmp_path):
        # no RuntimeWarning from the solve ahead of the error
        proc = run_python("-m", "mcel.cli", *self.argv(
            tmp_path, ["similarity", *BLOBS, "--ridge", "inf"]))
        assert proc.returncode == 1
        assert proc.stderr == ("error: mcel similarity: argument --ridge: "
                               "ridge must be in [0, inf), got inf\n")

    @pytest.mark.parametrize("command", [
        [], ["similarity"], ["train"], ["gridsearch"], ["noise-exp"], ["gradcheck"],
    ])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "-h")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['mcel', *command])} ")


class TestOneRunConfig:
    """TrainConfig states each [train]/[loss]/[split] default; the cli only parses."""

    def test_config_keys_are_the_train_config_fields(self):
        keys = [key for section in CONFIG_KEYS.values() for key in section]
        named = [FIELDS.get(key, key) for key in keys]
        assert sorted(named) == sorted(f.name for f in fields(TrainConfig) if f.name != "seed")

    def test_no_config_file_gives_the_train_config_defaults(self):
        assert load_config() == TrainConfig()
        assert load_config(seed=3) == TrainConfig(seed=3)


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

    @pytest.mark.parametrize("command, flags, names", [
        ("train", [], ["epochs.jsonl", "model.ckpt"]),
        ("gridsearch", ["--epsilons", "0,0.2", "--seeds", "0,1"], ["grid.json", "grid_curve.csv"]),
    ], ids=["train", "gridsearch"])
    def test_a_batch_past_the_train_rows_is_the_whole_split(self, tmp_path, command, flags,
                                                             names):
        # --blobs 3,30,2 leaves 63 train rows; a batch_size of 2**62 once
        # trained epoch 0 and then asked numpy for 2**62 * k columns
        outputs = []
        for size in (63, 64, 2**62):
            config = tmp_path / f"batch{size}.ini"
            config.write_text(f"[train]\nepochs = 3\nbatch_size = {size}\n")
            out = tmp_path / str(size)
            assert run_cli(command, "--blobs", "3,30,2,1.0", "--config", str(config),
                           *flags, "--out", str(out)) == 0
            outputs.append([(out / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1] == outputs[2]

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

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_non_finite_validation_outputs_diverge(self, tmp_path, command):
        # the one epoch ends with finite parameters whose validation logits
        # overflow; every NaN row would otherwise be read as class 0
        path = tmp_path / "diverge.ini"
        path.write_text(DIVERGE_AT_VALIDATION)
        out = tmp_path / "x"
        proc = run_python(
            "-m", "mcel.cli", command, "--blobs", "4,100,2,1.0", "--config", str(path),
            "--out", str(out),
        )
        self.assert_clean_data_error(proc)
        assert proc.stderr == "error: training diverged at epoch 0, batch 0\n"
        assert not out.exists()

    def test_training_that_diverges_later_keeps_its_finished_epochs(self, tmp_path, capsys,
                                                                     monkeypatch):
        train_epoch = Trainer.train_epoch

        def diverge_at_epoch_2(trainer, data):
            if trainer.epoch == 2:
                raise TrainingDivergedError(2, 0)
            return train_epoch(trainer, data)
        monkeypatch.setattr(Trainer, "train_epoch", diverge_at_epoch_2)
        out = tmp_path / "x"
        assert run_cli("train", *BLOBS, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: training diverged at epoch 2, batch 0\n"
        records = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1]
        assert sorted(p.name for p in out.iterdir()) == ["epochs.jsonl"]

    def test_rerun_that_diverges_later_clears_the_finished_run(self, tmp_path, capsys,
                                                                monkeypatch):
        # the rerun's first epoch deletes the earlier run's files, so no
        # report.json claims a run that did not finish
        cfg = write_config(tmp_path)
        out = tmp_path / "x"
        assert run_cli("train", *BLOBS, "--config", cfg, "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "epochs.jsonl", "meta.json", "model.ckpt", "report.json"]
        train_epoch = Trainer.train_epoch

        def diverge_at_epoch_2(trainer, data):
            if trainer.epoch == 2:
                raise TrainingDivergedError(2, 0)
            return train_epoch(trainer, data)
        monkeypatch.setattr(Trainer, "train_epoch", diverge_at_epoch_2)
        assert run_cli("train", *BLOBS, "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: training diverged at epoch 2, batch 0\n"
        records = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in records] == [0, 1]
        assert sorted(p.name for p in out.iterdir()) == ["epochs.jsonl"]

    def test_failed_checkpoint_write_leaves_no_report(self, tmp_path, capsys, monkeypatch):
        # report.json is written last: it marks a finished run
        def refuse(model, path):
            raise OSError(f"cannot write {path.name}")
        monkeypatch.setattr("mcel.cli.save_checkpoint", refuse)
        out = tmp_path / "x"
        assert run_cli("train", *BLOBS, "--config", write_config(tmp_path),
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: cannot write model.ckpt\n"
        assert not (out / "report.json").exists()

    def test_allocation_failure_prints_one_line(self, tmp_path, capsys, monkeypatch):
        # no real huge allocation: how much a machine overcommits differs
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.46 TiB for an array")
        monkeypatch.setattr("mcel.harness.init_model", refuse)
        out = tmp_path / "x"
        assert run_cli("train", *BLOBS, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 1.46 TiB for an array\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "similarity"])
    def test_blobs_count_past_a_c_long_prints_one_line(self, tmp_path, command):
        # the size is checked before numpy is asked for anything
        out = tmp_path / "x"
        proc = run_python("-m", "mcel.cli", command,
                          "--blobs", "3,100000000000000000000000000,2,1.0", "--out", str(out))
        self.assert_clean_data_error(proc)
        assert proc.stderr == ("error: a 300000000000000000000000000 x 2 array is too large "
                               "for numpy\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,hidden,shape", [
        (["similarity", "--blobs", "3,4611686018427387904,2,1.0"], None,
         "13835058055282163712 x 2"),
        (["similarity", "--blobs", "4611686018427387904,2,2,1.0"], None,
         "9223372036854775808 x 2"),
        (["similarity", "--blobs", "3,2,4611686018427387904,1.0"], None,
         "6 x 4611686018427387904"),
        (["similarity", "--blobs", "100000000000000000000000000,30,2,1.0"], None,
         "3000000000000000000000000000 x 2"),
        (["train", "--blobs", "3,100000000000000000000000000,2,1.0"], None,
         "300000000000000000000000000 x 2"),
        (["train", "--blobs", "3,30,2,1.0"], 2**62, f"{2**62} x 2"),
        (["train", "--blobs", "3,30,2,1.0"], 10**30, f"{10**30} x 2"),
        # each layer fits numpy, the whole parameter vector does not
        (["train", "--blobs", "2,30,2,1.0"], 2**58, f"{2**58 * 2 * 2 + 2**58 + 2}"),
        (["gradcheck", "--k", "100000000000000000000000000"], None,
         "100000000000000000000000000 x 100000000000000000000000000"),
    ], ids=["blobs-rows", "blobs-k", "blobs-dim", "blobs-k-past-c-long",
            "blobs-count-past-c-long", "hidden", "hidden-past-c-long", "hidden-params",
            "gradcheck-k"])
    def test_a_size_too_large_for_numpy_names_the_shape(self, tmp_path, argv, hidden, shape):
        # each of these once wrapped, or ended in numpy's own words with exit 1
        out = tmp_path / "x"
        if argv[0] != "gradcheck":
            argv = [*argv, "--out", str(out)]
        if hidden is not None:
            config = tmp_path / "big.ini"
            config.write_text(f"[train]\nhidden = {hidden}\n")
            argv = [*argv, "--config", str(config)]
        proc = run_python("-m", "mcel.cli", *argv)
        self.assert_clean_data_error(proc)
        assert proc.stderr == f"error: a {shape} array is too large for numpy\n"
        assert not out.exists()

    def test_blobs_spread_that_overflows_prints_one_line(self, tmp_path):
        proc = run_python("-m", "mcel.cli", "train", "--blobs", "3,10,2,1e308",
                          "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert proc.stderr == "error: features contain non-finite values\n"

    def test_scatter_near_the_float64_limit(self, tmp_path):
        # finite scatter matrices whose Frobenius norm passes 1.8e308: no
        # RuntimeWarning from the eigensolve or the similarity build
        rng = np.random.default_rng(0)
        rows = []
        for c in range(3):
            block = rng.standard_normal((40, 3)) * 3e152
            block[:, c] += 9e152
            rows += [",".join(repr(float(v)) for v in row) + f",{c}" for row in block]
        path = tmp_path / "big.csv"
        path.write_text("a,b,c,label\n" + "\n".join(rows) + "\n")
        out = tmp_path / "x"
        proc = run_python("-m", "mcel.cli", "similarity", "--data-csv", str(path),
                          "--label-col", "label", "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert load_similarity(out / "similarity.txt").k == 3

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

    STD_OVERFLOW = ("feature column 'f0': the values overflow float64 "
                    "in the mean or standard deviation")
    SCATTER_OVERFLOW = "the features overflow float64 in the LDA scatter matrices"

    @pytest.mark.parametrize("command,message", [
        pytest.param(command, message, id=command) for command, message in (
            ("train", STD_OVERFLOW), ("gridsearch", STD_OVERFLOW),
            ("similarity", SCATTER_OVERFLOW), ("noise-exp", SCATTER_OVERFLOW))
    ])
    def test_features_whose_squares_overflow(self, tmp_path, command, message):
        # finite features whose squares overflow float64: no RuntimeWarning, no
        # training on the zeros an infinite std would give
        rng = np.random.default_rng(0)
        rows = [f"{x},{y},{z},{c}" for c in range(3)
                for x, y, z in rng.standard_normal((40, 3)) * 1e200]
        path = tmp_path / "huge.csv"
        path.write_text("f0,f1,f2,label\n" + "\n".join(rows) + "\n")
        proc = run_python(
            "-m", "mcel.cli", command, "--data-csv", str(path), "--label-col", "label",
            "--out", str(tmp_path / "x"),
        )
        self.assert_clean_data_error(proc)
        assert proc.stderr == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_corrupted_gradcheck_exits_3(self):
        # a logit gradient off by 1e-3 in every entry, in a fresh interpreter
        proc = run_python("-c", CORRUPT_GRADCHECK)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stdout.count("[FAIL]") == len(VARIANTS)

    def test_gradcheck_prints_one_line_per_variant(self):
        proc = run_python("-m", "mcel.cli", "gradcheck", "--trials", "5")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == list(VARIANTS)
        assert all(line.endswith("[ok]") for line in lines)


TRAIN_VALUES = st.fixed_dictionaries({
    "learning_rate": st.sampled_from(
        [0.0, 1e-3, 1.0, 1e10, 1e100, 1e200, 1e308, math.inf, math.nan]),
    "momentum": st.floats(0.0, 1.0),
    "weight_decay": st.sampled_from([0.0, 1e-3, 1.0, 1e10, 1e308, math.inf]),
    "batch_size": st.integers(1, 10**6),
    "epochs": st.integers(1, 3),
    "hidden": st.integers(1, 32),
})
LOSS_VALUES = st.fixed_dictionaries({
    "variant": st.sampled_from(list(VARIANTS)),
    "epsilon": st.sampled_from([0.0, 0.2, 0.45, 0.5, math.nan, "0.1,0.2,0.3,0.4", "0.1,0.2"]),
})
# the defaults the drawn keys replace, for the examples
DEFAULT_TRAIN = {"learning_rate": 0.1, "momentum": 0.1, "weight_decay": 1e-3,
                 "batch_size": 32, "epochs": 100, "hidden": 16}
DEFAULT_LOSS = {"variant": "ce", "epsilon": 0.2}


class TestOneLinePerRun:
    """Whatever the [train] and [loss] values, a run exits 0 in silence or
    ends in one error line: no numpy warning and no traceback first."""

    @settings(max_examples=60, deadline=None)
    @given(train=TRAIN_VALUES, loss=LOSS_VALUES)
    @example(train={**DEFAULT_TRAIN, "epochs": 1, "learning_rate": 1e200, "batch_size": 1000},
             loss=DEFAULT_LOSS)
    @example(train={**DEFAULT_TRAIN, "epochs": 3, "learning_rate": 1e200, "batch_size": 1000},
             loss=DEFAULT_LOSS)
    def test_train(self, train, loss):
        config = ["[train]", *(f"{key} = {value}" for key, value in train.items()),
                  "[loss]", *(f"{key} = {value}" for key, value in loss.items())]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.ini"
            path.write_text("\n".join(config) + "\n")
            argv = ["train", "--blobs", "4,30,2,1.0", "--config", str(path),
                    "--out", str(Path(tmp) / "out")]
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                    redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(argv)
        assert code in (0, 1, 2)
        assert [str(w.message) for w in caught] == []  # each a stderr line of its own
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command,flags", [
    ("train", []), ("gridsearch", ["--epsilons", "0.0,0.2"]), ("noise-exp", []),
])
def test_wall_seconds_starts_before_the_first_split(tmp_path, monkeypatch, command, flags):
    # meta.json's wall_seconds spans the same work in every command
    events = []
    real_split = mcel.data.split
    monkeypatch.setattr("mcel.data.split",
                        lambda *args: events.append("split") or real_split(*args))
    clock = SimpleNamespace(monotonic=lambda: events.append("clock") or 0.0,
                            strftime=time.strftime)
    monkeypatch.setattr("mcel.cli.time", clock)  # the cli's clock only
    config = tmp_path / "short.ini"
    config.write_text("[train]\nepochs = 1\n")
    assert run_cli(command, "--blobs", "4,30,2,1.0", *flags, "--config", str(config),
                   "--out", str(tmp_path / "out")) == 0
    assert events[:2] == ["clock", "split"]
    assert events[-1] == "clock"  # read once more as meta.json is written


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

    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 64 features: each class's scatter product is past OpenBLAS's threading
        # threshold (m * n * k >= 262,144), so two threads split it; the
        # similarity matrix's bits come from the projection and cosine matmuls
        config = tmp_path / "cfg.ini"
        config.write_text("[train]\nepochs = 2\n")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            for argv in (["gridsearch", "--config", str(config)], ["similarity"]):
                proc = run_python("-m", "mcel.cli", *argv, "--blobs", "10,150,64,3.0",
                                  "--out", str(out / argv[0]), **env)
                assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in (
                "gridsearch/grid.json", "gridsearch/grid_curve.csv", "similarity/similarity.txt")])
        assert outputs[0] == outputs[1]

    def test_splits_once_per_seed(self, monkeypatch):
        dataset = gen_blobs(3, 40, 2, spread=0.8, seed=1)
        calls = []

        def counted(data, fractions, seed):
            calls.append((fractions, seed))
            return split(data, fractions, seed)

        monkeypatch.setattr("mcel.data.split", counted)
        base = TrainConfig(epochs=2, batch_size=16, hidden_sizes=(4,), topk=2,
                           split_fractions=(0.6, 0.2, 0.2))
        result = run_grid_search(dataset, base, (0.0, 0.2, 0.4), (5, 6))
        assert calls == [((0.6, 0.2, 0.2), 5), ((0.6, 0.2, 0.2), 6)]
        assert [(r["epsilon"], r["seed"]) for r in result["runs"]] == [
            (e, s) for e in (0.0, 0.2, 0.4) for s in (5, 6)
        ]

    @pytest.mark.parametrize("standardize", [True, False])
    def test_standardizes_as_configured(self, monkeypatch, standardize):
        calls = []

        def counted(*splits):
            calls.append(len(splits))
            return (*splits, 0.0, 1.0)

        monkeypatch.setattr("mcel.data.standardize", counted)
        base = TrainConfig(epochs=1, batch_size=16, hidden_sizes=(4,), topk=2,
                           standardize=standardize)
        run_grid_search(gen_blobs(3, 40, 2, seed=1), base, (0.0,), (5, 6))
        assert calls == [3, 3] * standardize


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
        base = TrainConfig(epochs=2, batch_size=16, hidden_sizes=(4,), topk=2)
        result = run_grid_search(dataset, base, (0.2, 0.0, 0.2), (5, 6))
        assert trainings == [(0.2,), (0.0,)] * 2
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
            dataset, ((0, 1), (2, 3)), fractions, seeds,
            TrainConfig(epochs=3, batch_size=16, hidden_sizes=(4,), topk=2),
            epsilon_candidates=candidates,
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
    def test_never_standardizes(self, monkeypatch):
        def fail(*args):
            raise AssertionError("standardized a noise-exp split")
        monkeypatch.setattr("mcel.data.standardize", fail)
        base = TrainConfig(epochs=1, batch_size=16, hidden_sizes=(4,), topk=2, standardize=True)
        result = run_noise_experiment(gen_blobs(4, 30, 2, seed=0), None, (0.1,), (0,), base, (0.2,))
        assert [row["variant"] for row in result["rows"]] == ["ce", "mcel"]

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

    def test_rerun_leaves_only_its_own_masks(self, tmp_path):
        # a rerun with fewer seeds deletes the masks of the cells it did not run
        out = tmp_path / "noise"
        for seeds in ("0,1,2", "0"):
            assert run_cli("noise-exp", "--blobs", "4,60,2,0.8", "--seeds", seeds,
                           "--out", str(out)) == 0
        rows = json.loads((out / "noise.json").read_text())["rows"]
        cells = {f"noise_mask_f{row['fraction']}_s{row['seed']}.txt" for row in rows}
        assert cells == {"noise_mask_f0.3_s0.txt"}
        assert {p.name for p in out.glob("noise_mask_*")} == cells

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

    def test_no_batch_reaches_the_log_clamp(self):
        # rows of scale 2 gave this seed's fourth ce batch a probability below
        # 1e-12, where batch_values is flat and the step's gradient is not
        assert run_cli("gradcheck", "--seed", "26", "--trials", "4") == 0

    def test_corrupted_gradient_detected(self, monkeypatch):
        def corrupted(probs, targets):
            return logit_grad(probs, targets) + 1e-3
        monkeypatch.setattr("mcel.net.logit_grad", corrupted)
        assert run_cli("gradcheck", "--trials", "3") == 3

    @pytest.mark.parametrize("fault", ["no weight decay", "no 1/n"])
    def test_faulty_step_detected(self, capsys, monkeypatch, fault):
        def faulty(model, x, targets, weight_decay, grads, out=None):
            probs = batch_gradient(model, x, targets, 0.0, grads, out)
            if fault == "no 1/n":  # the batch's sum, not its mean, then the decay
                grads.params *= len(x)
                grads.weight_params += weight_decay * model.weight_params
            return probs
        monkeypatch.setattr("mcel.gradcheck.batch_gradient", faulty)
        assert run_cli("gradcheck", "--trials", "3") == 3
        assert capsys.readouterr().out.count("[FAIL]") == len(VARIANTS)

    def test_nan_gradient_fails(self, capsys, monkeypatch):
        # max(0.0, nan) is 0.0, so a NaN error must not pass through max
        def nan_gradient(probs, targets):
            return logit_grad(probs, targets) * np.nan
        monkeypatch.setattr("mcel.net.logit_grad", nan_gradient)
        assert all(np.isnan(err) for err in gradcheck.run_all(3, 2, 0).values())
        assert run_cli("gradcheck", "--trials", "3") == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(VARIANTS)
        assert all(line.endswith("max relative error nan  [FAIL]") for line in lines)

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
        assert captured.err == (f"error: mcel gradcheck: argument {flag}: "
                                f"must be >= {least}, got {value}\n")
