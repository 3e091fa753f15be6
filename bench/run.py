"""Benchmark of the mcel CLI on seeded inputs.

    python3 bench/run.py --workload noise-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Inputs, outputs and
the full result (with the machine facts) go to .bench_out/<workload>/.
"""

import os

# One BLAS/OpenMP thread here and in every child, set before numpy loads:
# with two threads, small matrix products on a 2-vCPU machine were at times
# about 5x slower than with one.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# Fresh-interpreter set-ups per run, half before the timed rounds and half
# after them, so that one slow phase of the machine does not decide them
# all; the median is setup_s.
PROBES = 6
RUN_LIMIT_S = 170.0


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
    }


def child(args, env, deadline, **kw):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                          env=env, check=True, timeout=max(deadline - time.monotonic(), 1.0),
                          **kw)


def verify(spec, out, work):
    """Every correctness check of the workload; returns the failures."""
    failures = list(work["payload_faults"])  # outputs that changed between rounds

    def attempt(check, *args):
        try:
            check(*args)
        except (checks.CheckError, KeyError, ValueError, OSError) as exc:
            failures.append(f"{check.__name__}: {exc}")

    k = spec["k"]
    floor = checks.top1_floor(spec["nearest_centre_acc"], k)
    truth = np.load(spec["truth"])
    cap = np.load(out / "capture" / "fits.npz")
    # the distinct LDA inputs in the order of their first fit
    inputs = [(np.load(out / "capture" / f"x{i}.npy"), np.load(out / "capture" / f"y{i}.npy"))
              for i in range(len(set(cap["fit_index"].tolist())))]
    fits = [inputs[i] for i in cap["fit_index"]]
    attempt(checks.require, work["samples_per_round"] > 0,
            "the capture round counted no training samples")
    attempt(checks.require, len(fits) == len(cap["sims"]) >= 1,
            f"{len(fits)} LDA fits captured with {len(cap['sims'])} similarity matrices")
    for a, (x, y) in zip(cap["sims"], fits):
        attempt(checks.check_similarity, a, x, y, k)
    outputs = {"noise-sweep": noise_outputs, "grid-wide": grid_outputs,
               "train-soft": soft_outputs}[spec["workload"]]
    # a parse error in an output file is a failed check too
    attempt(outputs, out / "round-u", k, floor, truth, inputs, cap["sims"], attempt)
    return failures


def noise_outputs(res, k, floor, truth, inputs, sims, attempt):
    c = workloads.NOISE
    payload = json.loads((res / "noise.json").read_text())
    attempt(checks.check_noise_rows, payload, c["fractions"], c["seeds"], c["candidates"])
    attempt(checks.check_top1, [r["test_top1"] for r in payload["rows"]], floor)
    clean = {row.tobytes(): lab for row, lab in zip(truth["features"], truth["labels"])}
    pairs = [tuple(map(int, p.split(":"))) for p in c["pairs"].split(",")]
    # one noisy train split per (fraction, seed), in loop order, is fitted
    cells = list(itertools.product(c["fractions"], c["seeds"]))
    checks.require(len(inputs) == len(cells),
                   f"{len(inputs)} distinct LDA inputs for {len(cells)} (fraction, seed) cells")
    for (f, s), (x, y) in zip(cells, inputs):
        mask = [int(i) for i in (res / f"noise_mask_f{f}_s{s}.txt").read_text().split()]
        labels = np.array([clean[row.tobytes()] for row in x])
        attempt(checks.check_flips, mask, y, labels, f, pairs)


def grid_outputs(res, k, floor, truth, inputs, sims, attempt):
    c = workloads.GRID
    grid = json.loads((res / "grid.json").read_text())
    attempt(checks.check_grid, grid, c["epsilons"], c["seeds"])
    attempt(checks.check_curve_csv, (res / "grid_curve.csv").read_text(), grid)
    attempt(checks.check_top1, [r["test_top1"] for r in grid["runs"]], floor)


def soft_outputs(res, k, floor, truth, inputs, sims, attempt):
    c = workloads.SOFT
    report = json.loads((res / "report.json").read_text())
    attempt(checks.check_epochs, (res / "epochs.jsonl").read_text(), report, c["epochs"])
    attempt(checks.check_top1, [report["test_top1"]], floor)
    attempt(checks.check_learned_epsilons, report["learned_mixing"], k)
    attempt(checks.require, report["similarity_checksum"] == checks.similarity_checksum(sims[0]),
            "report similarity_checksum is not that of the fitted matrix")
    x = truth["features"]
    # the checkpoint expects standardized input; whole-file statistics
    # stand in for the train split's
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    attempt(checks.check_checkpoint, (res / "model.ckpt").read_bytes(),
            (c["dim"], c["hidden"], k), x, truth["labels"], floor)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "mcel" / "cli.py").is_file():
        print("error: run from the root of an mcel checkout (no src/mcel/cli.py)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = root / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = workloads.build(args.workload, args.seed, out / "inputs")
    spec_path = out / "inputs" / "spec.json"

    def probe(n):
        return [json.loads(child(["probe", spec_path], env, deadline, capture_output=True,
                                 text=True).stdout) for _ in range(n)]

    # the first start compiles bytecode and warms the file cache: not counted
    probes = probe(1 + PROBES // 2)[1:]
    with open(out / "worker.log", "w") as log:
        child(["run", spec_path, out, args.seconds, args.trace], env, deadline, stdout=log)
    probes += probe(PROBES - PROBES // 2)
    work = json.loads((out / "worker.json").read_text())
    failures = verify(spec, out, work)

    if args.trace:
        traced = work["traced"]
        for name, unit in work["layer_units"].items():
            got = {m[name] for m in traced}
            if unit == "count" and len(got) != 1:
                failures.append(f"{name}: traced rounds counted {sorted(got)}")
        if {m["lda.fit_calls"] for m in traced} != {work["capture_fits"]}:
            failures.append(f"lda.fit_calls: {work['capture_fits']} fits captured, "
                            f"traced rounds counted {sorted({m['lda.fit_calls'] for m in traced})}")
        # counts repeat exactly (checked above); times are medians over rounds
        metrics = {name: (traced[0][name] if unit == "count"
                          else statistics.median(m[name] for m in traced), unit)
                   for name, unit in work["layer_units"].items()}
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        overhead = statistics.median(work["traced_walls"]) / statistics.median(work["walls"])
        metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    else:
        wall = statistics.median(work["walls"])
        metrics = {
            "wall_s": (wall, "s"),
            "samples_per_s": (work["samples_per_round"] / wall, "1/s"),
            "setup_s": (statistics.median(p["import_s"] + p["load_s"] for p in probes), "s"),
            "peak_rss_mb": (work["peak_rss_kb"] / 1024.0, "MB"),
        }
    codes = work["codes"]
    result = {
        "correct": not failures,
        "attempted": len(codes),
        "failed": sum(code != 0 for code in codes),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "machine": machine(),
              "rounds_s": work["walls"], "traced_rounds_s": work["traced_walls"],
              "probes": probes, "self_times_s": work["self_times"], "failures": failures}
    (out / "result.json").write_text(json.dumps({**detail, **result}, indent=1))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"machine": detail["machine"]}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
