"""The program's side of the benchmark, run in a fresh interpreter.

    worker.py probe SPEC     import mcel.cli, load the input; print the times
    worker.py run SPEC OUT SECONDS TRACE

`run` imports mcel once and makes an untimed capture round: it records
every LDA input and similarity matrix and counts the samples trained on.
Then it repeats the workload's CLI call in whole rounds for SECONDS (half
of them traced when TRACE is 1). It writes worker.json and the round
outputs under OUT.
"""

import json
import sys
import time


def probe(spec):
    start = time.perf_counter()
    import mcel.cli  # noqa: F401
    from mcel import data
    imported = time.perf_counter()
    kind, *paths = spec["load"]
    if kind == "csv":
        data.load_csv(paths[0], paths[1])
    else:
        data.load_idx(paths[0], paths[1])
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))


def run(spec, out, seconds, trace):
    import resource
    from pathlib import Path

    import numpy as np

    from mcel import cli

    import tracer
    from checks import CheckError, check_same_payloads, digests
    out = Path(out)

    def call(dest, main=cli.main):
        argv = [a.replace("{out}", str(dest)) for a in spec["argv"]]
        t0 = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - t0

    # capture round, untimed (it also warms the caches): every LDA input and
    # the similarity matrix it gave, and the samples that training steps.
    # Each distinct input is written out at once, so the process keeps none.
    cap = out / "capture"
    cap.mkdir()
    index, fit_index, sims, samples = {}, [], [], [0]

    def on_fit(args, result):
        ds = args[0]
        key = tracer.dataset_digest(ds)
        if key not in index:
            index[key] = len(index)
            np.save(cap / f"x{index[key]}.npy", ds.features)
            np.save(cap / f"y{index[key]}.npy", ds.labels)
        fit_index.append(index[key])

    def on_epoch(args, result):
        samples[0] += args[1].n  # args: the Trainer and the train split

    hooks = {"lda.fit_lda": on_fit, "net.train_epoch": on_epoch,
             "lda.build_similarity_matrix": lambda args, result: sims.append(result.a)}
    with tracer.Tracer(tuple(hooks), hooks):
        code0, _ = call(out / "round-0")
    np.savez(cap / "fits.npz", fit_index=np.array(fit_index, dtype=int), sims=np.array(sims))
    reference = digests(out / "round-0")
    payload_faults = []

    def same_payloads(dest):
        try:
            check_same_payloads(reference, digests(dest), f"capture round vs {dest.name}")
        except CheckError as exc:
            payload_faults.append(str(exc))

    codes, walls = [code0], []
    budget = seconds / 2 if trace else seconds

    def more(began, rounds, least):
        # whole rounds only: start one more if it should end within the budget
        elapsed = time.perf_counter() - began
        return rounds < least or elapsed + elapsed / rounds <= budget

    began = time.perf_counter()
    while more(began, len(codes) - 1, 1):
        code, wall = call(out / "round-u")
        codes.append(code)
        if code == 0:
            walls.append(wall)
        same_payloads(out / "round-u")
        if len(codes) == 2:
            # The peak after a fixed amount of work: the capture round and one
            # timed round. The resident size creeps by about 1 MB a round on
            # train-soft while the memory Python traces stays flat, so a later
            # reading would depend on how many rounds fit in the time.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced, traced_walls, selfs = [], [], {}
    began = time.perf_counter()
    # at least two traced rounds, so that their counts can be compared
    while trace and more(began, len(traced), 2):
        seen = set()
        hooks = {"lda.fit_lda": lambda args, result: seen.add(tracer.dataset_digest(args[0]))}
        with tracer.Tracer(hooks=hooks) as t:
            code, wall = call(out / "round-t", t.span("cli.main", cli.main))
        codes.append(code)
        metrics, selfs = tracer.layer_metrics(t.spans, len(seen))
        traced.append(metrics)
        traced_walls.append(wall)
        same_payloads(out / "round-t")
    if traced:
        with open(out / "spans.tsv", "w") as fh:  # the last traced round's spans
            fh.writelines(f"{n}\t{a:.9f}\t{b:.9f}\t{p}\n" for n, a, b, p in t.spans)

    (out / "worker.json").write_text(json.dumps({
        "codes": codes, "walls": walls, "peak_rss_kb": peak_kb, "payload_faults": payload_faults,
        "traced": traced, "traced_walls": traced_walls, "self_times": selfs,
        "layer_units": tracer.UNITS, "capture_fits": len(fit_index),
        "samples_per_round": samples[0],
    }))


if __name__ == "__main__":
    with open(sys.argv[2]) as fh:
        spec = json.load(fh)
    if sys.argv[1] == "probe":
        probe(spec)
    else:
        run(spec, sys.argv[3], float(sys.argv[4]), sys.argv[5] == "1")
