"""Round-trip benchmark for reflectjet.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics of one workload, with
--trace 1 the per-layer metrics from a separate traced run.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("acoustic_flat_d4", "elastic_d1_d2", "cli_curved_d2")

# Whole passes a run makes at least; with the recoveries per pass this
# fixes the tail percentile of each workload (see tail_percentile).
MIN_PASSES = {"acoustic_flat_d4": 2, "elastic_d1_d2": 3, "cli_curved_d2": 2}
SETUP_PROBES = 7  # at least; one runs after each pass
TRACED_SHARE = 0.5  # a traced run spends this share of --seconds on passes


def tail_percentile(min_recoveries: int):
    """Highest whole percentile with at least 10 of `min_recoveries`
    samples beyond it; None below 40 samples, where it is no tail."""
    if min_recoveries < 40:
        return None
    return (100 * (min_recoveries - 10)) // min_recoveries


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_passes(workload, seconds, min_passes, tracer=None, on_pass=None):
    """Whole passes: at least `min_passes`, then more while another pass
    of the mean length still ends within `seconds`."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(workload.run_pass(tracer))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = perf_counter() - t0
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def typical_pass(passes):
    """(seconds, forward seconds, covectors) of one pass built from each
    operation's median over the run's passes: a pass at typical speed,
    robust to a slow spell that covers part of one pass."""
    wall = forward = 0.0
    covectors = 0
    for index in range(len(passes[0].ops)):
        ops = [p.ops[index] for p in passes if p.ops[index].error is None]
        if not ops:
            continue
        wall += statistics.median(op.forward_s + op.invert_s for op in ops)
        forward += statistics.median(op.forward_s for op in ops)
        covectors += ops[0].covectors
    return wall, forward, covectors


def setup_probe(workload, seed) -> float:
    """Wall time of one fresh set-up process."""
    import workloads

    wall, code, err = workloads.timed_process(workload.setup_command(seed))
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err}")
    return wall


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        # children run one at a time; ru_maxrss is the largest child's peak
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def untraced(name, seed, seconds, workdir):
    import workloads

    workload = workloads.make(name, seed, workdir)
    setup_probe(workload, seed)  # untimed: fills the file and bytecode caches
    workload.warm_up()
    checker = workloads.Checker(workload)
    setups = []

    def on_pass(p):
        # one set-up probe after each pass, so setup_s samples the whole run
        # rather than a few seconds of it
        checker.add(p)
        setups.append(setup_probe(workload, seed))

    passes = run_passes(workload, seconds, MIN_PASSES[name], on_pass=on_pass)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    setup = statistics.median(setups)
    rss = peak_rss_mb(with_children=name == "cli_curved_d2")

    latencies = [1e3 * op.invert_s for p in passes for op in p.ops
                 if op.error is None and op.invert_s]
    wall, forward, covectors = typical_pass(passes)
    if not latencies or not forward:
        raise RuntimeError("no operation of the run succeeded")
    p50 = statistics.median(latencies)
    tail_p = tail_percentile(MIN_PASSES[name] * workload.recoveries_per_pass)
    tail = p50 if tail_p is None else \
        statistics.quantiles(latencies, n=100, method="inclusive")[tail_p - 1]
    print(f"{name}: {len(passes)} passes, {len(latencies)} recoveries, "
          f"tail percentile {tail_p or 50}, pass wall_s "
          + " ".join(f"{p.wall_s:.3f}" for p in passes), file=sys.stderr)
    return {
        "correct": checker.correct,
        "attempted": sum(len(p.ops) for p in passes),
        "failed": checker.failed,
        "metrics": {
            "setup_s": metric(setup, "s"),
            "wall_s": metric(wall, "s"),
            "forward_cov_per_s": metric(covectors / forward, "1/s"),
            "invert_ms_p50": metric(p50, "ms"),
            "invert_ms_tail": metric(tail, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    parts = name.split(".", 1)[1].split("_")
    if parts[-1] == "calls":
        return "count"
    if parts[-1] == "sample":
        return "calls/sample"
    return next(unit for unit in ("us", "ms", "s") if unit in parts)


def traced(name, seed, seconds, workdir):
    import isolated
    import tracing
    import workloads

    workload = workloads.make(name, seed, workdir)
    workload.warm_up()
    # per-call times first, while the process holds no spans
    layers = isolated.timings(seed)
    tracer = tracing.Tracer()
    checker = workloads.Checker(workload)
    kept = []
    summaries = []

    if name == "cli_curved_d2":
        def on_pass(p):
            total = Counter()
            for op in p.ops:
                if not op.output[1].exists():  # the process died before writing it
                    continue
                doc = json.loads(op.output[1].read_text())
                op.output[1].unlink()
                doc["spans"] = [tuple(span) for span in doc["spans"]]
                kept.append({"op": op.model, "command": op.output[0].name, **doc})
                total += tracing.summarize(doc["spans"], doc["counts"])
            summaries.append(total)
            checker.add(p)
    else:
        def on_pass(p):
            spans, counts = tracer.take()
            kept.append({"spans": spans, "counts": counts})
            summaries.append(tracing.summarize(spans, counts))
            tracer.uninstall()  # the checks call the engines too
            checker.add(p)
            tracer.install()
        tracer.install()
    try:
        passes = run_passes(workload, seconds * TRACED_SHARE, 1, tracer, on_pass)
    finally:
        tracer.uninstall()

    per_pass = [tracing.layer_metrics(s) for s in summaries]
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_calls") or key.endswith("_per_sample"):
            if len(set(values)) > 1:
                print(f"{key} differs between passes: {values}", file=sys.stderr)
            layers[key] = values[0]
        else:
            layers[key] = statistics.median(values)

    trace_file = workloads.RUN_DIR / f"trace-{name}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": name, "seed": seed, "passes": len(passes),
                   "spans": kept, "layers": layers}, fh)
    print(f"{name}: {len(passes)} traced passes, traced wall_s "
          f"{typical_pass(passes)[0]:.4f}; spans in {trace_file}", file=sys.stderr)
    return {
        "correct": checker.correct,
        "attempted": sum(len(p.ops) for p in passes),
        "failed": checker.failed,
        "metrics": {key: metric(value, unit_of(key)) for key, value in layers.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "reflectjet" / "__init__.py").is_file():
        print(f"error: no reflectjet sources under {SRC}; run from the root "
              "of a reflectjet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    workdir = workloads.new_workdir(args.workload)
    try:
        run = traced if args.trace else untraced
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
