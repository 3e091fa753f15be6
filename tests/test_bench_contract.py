"""The benchmark's tracer (bench/tracer.py) wraps program functions by
name and counts training batches from the spans of net.forward_batch.
These tests keep a refactor from renaming a traced function away or
folding it into the training loop, which would empty a per-layer metric
without an error. The benchmark's output checks (bench/checks.py) read
fields of the program's reports; a test here runs the same checks on a
fresh report, so a change to the report fails here first. The workloads
(bench/workloads.py) drive the CLI with fixed argv shapes and config
files; a test here parses each argv and loads each config. The tests
read bench/ and change nothing in it."""

import json

import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from mcel import net  # noqa: E402
from mcel.cli import build_parser, load_config, main  # noqa: E402
from mcel.data import gen_blobs  # noqa: E402
from mcel.gradcheck import random_similarity  # noqa: E402
from mcel.lda import SimilarityMatrix  # noqa: E402


def test_every_traced_name_resolves():
    missing = [name for name, (owner, attr) in tracer.TRACED.items()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


@pytest.mark.parametrize("variant", ["ce", "sg-mcel-soft"])
def test_one_epoch_traces_every_batch(variant):
    data = gen_blobs(3, 25, 2, seed=0)  # n = 75
    size = 8
    sim = random_similarity(np.random.default_rng(0), 3)
    cfg = net.TrainConfig(batch_size=size, variant=variant)
    trainer = net.Trainer(net.init_model((2, 6, 3), seed=0), cfg, sim)
    original = net.forward_batch
    with tracer.Tracer() as t:
        trainer.train_epoch(data)
    assert net.forward_batch is original  # the tracer put it back

    counts = Counter(span[0] for span in t.spans)
    batches = math.ceil(data.n / size)
    assert counts["net.train_epoch"] == 1
    for name in ("net.forward_batch", "net.target_rows", "net.backprop"):
        assert counts[name] == batches, name
    assert counts["net.check_finite"] == 1
    assert counts["net.step_mixing"] == (variant == "sg-mcel-soft")
    # net.batches counts only the forward passes inside train_epoch
    parents = {t.spans[p][0] for name, _, _, p in t.spans if name == "net.forward_batch"}
    assert parents == {"net.train_epoch"}


@pytest.mark.parametrize("command,flags,runs", [
    ("gridsearch", ["--epsilons", "0.0,0.2", "--seeds", "0,1"], 2 * 2),
    # each cell trains epsilon 0 and the one default candidate
    ("noise-exp", ["--fractions", "0.1,0.3", "--seeds", "0,1"], 2 * 2 * 2),
])
def test_samples_trained_are_runs_times_epochs_times_train_rows(tmp_path, command, flags,
                                                                runs):
    # samples_per_s divides by what bench/worker.py on_epoch sums: the train
    # split's n at each Trainer.train_epoch call. A call that trained several
    # runs at once would count its rows once and fail here.
    config = tmp_path / "short.ini"
    config.write_text("[train]\nepochs = 3\n")
    samples = [0]

    def on_epoch(args, result):
        samples[0] += args[1].n

    with tracer.Tracer(("net.train_epoch",), {"net.train_epoch": on_epoch}):
        assert main([command, "--blobs", "4,30,2,1.0", *flags, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0
    train_rows = round(0.7 * 4 * 30)  # the default train share of the 120 rows
    assert samples[0] == runs * 3 * train_rows


def test_soft_report_fields_the_train_soft_checks_read(tmp_path):
    # bench/run.py soft_outputs: learned_mixing holds the k configured
    # epsilons, learned_similarity the final A, and epochs.jsonl the epochs
    config = tmp_path / "soft.ini"
    config.write_text("[train]\nepochs = 3\n[loss]\nvariant = sg-mcel-soft\nepsilon = 0.2\n")
    out = tmp_path / "out"
    assert main(["train", "--blobs", "4,60,2,1.0", "--config", str(config),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    k = 4
    checks.check_learned_epsilons(report["learned_mixing"], k)
    assert report["learned_mixing"] == [0.2] * k
    assert all(type(e) is float for e in report["learned_mixing"])
    assert SimilarityMatrix(np.array(report["learned_similarity"])).k == k
    checks.check_epochs((out / "epochs.jsonl").read_text(), report, 3)


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_workload_argv_parses_to_its_settings(tmp_path, name):
    spec = workloads.build(name, 0, tmp_path)
    args = build_parser().parse_args(spec["argv"])
    assert args.out == "{out}" and args.lda_components is None
    assert args.config == str(tmp_path / {"noise-sweep": "noise.ini", "grid-wide": "grid.ini",
                                          "train-soft": "soft.ini"}[name])
    if name == "noise-sweep":
        c = workloads.NOISE
        assert args.command == "noise-exp" and args.data_csv == str(tmp_path / "noise.csv")
        assert args.label_col == "label"
        # read as bench/run.py reads them
        assert args.pairs == tuple(tuple(map(int, p.split(":"))) for p in c["pairs"].split(","))
        assert args.fractions == tuple(c["fractions"])
        assert args.seeds == tuple(c["seeds"])
        assert args.epsilon_candidates == tuple(c["candidates"])
    elif name == "grid-wide":
        c = workloads.GRID
        assert args.command == "gridsearch"
        assert args.data_idx == [str(tmp_path / "images.idx"), str(tmp_path / "labels.idx")]
        assert args.epsilons == tuple(c["epsilons"])
        assert args.seeds == tuple(c["seeds"])
        assert args.ridge is None
    else:
        assert args.command == "train" and args.data_csv == str(tmp_path / "soft.csv")
        assert args.label_col == "label"
        assert args.seed == 0 and args.similarity is None and args.ridge is None
    # the config file, through the path every command reads it by
    c = {"noise-sweep": workloads.NOISE, "grid-wide": workloads.GRID,
         "train-soft": workloads.SOFT}[name]
    cfg = load_config(args.config)
    assert (cfg.epochs, cfg.hidden_sizes, cfg.batch_size) == (c["epochs"], (c["hidden"],), 32)
    loss = ("sg-mcel-soft", c["epsilon"]) if name == "train-soft" else ("ce", 0.2)
    assert (cfg.variant, cfg.epsilon) == (loss[0], (loss[1],))
    assert cfg.split_fractions == (0.7, 0.15, 0.15) and cfg.standardize is True
