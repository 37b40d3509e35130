"""Reproduce the ROADMAP's hand-taken baselines from public calls, and
time `reflectjet forward --jobs 1` against `--jobs 2` on the grid of
`cli_curved_d2`.  Prints a markdown table for README.md.

Usage, from the root of a checkout: python3 perfbench/baselines.py [SEED]
"""

from __future__ import annotations

import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isolated  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PASSES = 5
JOBS_REPEATS = 7


def criterion_1(work):
    """Forward and inversion seconds per pass (median of PASSES), the
    range of whole passes, and the forward_series calls and samples of
    one pass."""
    work.warm_up()
    fwd, inv = [], []
    for _ in range(PASSES):
        p = work.run_pass()
        fwd.append(sum(op.forward_s for op in p.ops))
        inv.append(sum(op.invert_s for op in p.ops))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        work.run_pass(tracer)
    finally:
        tracer.uninstall()
    summary = tracing.summarize(*tracer.take())
    totals = [f + i for f, i in zip(fwd, inv)]
    return (statistics.median(fwd), statistics.median(inv), min(totals), max(totals),
            summary["acoustic.forward.calls"], sum(len(g) for g in work.grids))


def with_test_inputs(work):
    """The models and grids test_criterion_1 builds with reflectjet.sampling,
    whose coefficients are numpy.float64."""
    import numpy as np
    from reflectjet.sampling import hyperbolic_grid, random_acoustic_model

    rng = np.random.default_rng(1001)
    work.models = [random_acoustic_model(rng, 4, contrast=5.0) for _ in range(50)]
    work.grids = [hyperbolic_grid(m, 8) for m in work.models]
    return work


def jobs_seconds(seed: int, workdir: Path):
    """Median wall time of one `reflectjet forward` process on the first
    cli_curved_d2 model's x grid, with --jobs 1 and --jobs 2."""
    cli = workloads.Cli("cli_curved_d2", seed, workdir)
    argv, _ = cli._argv(0, "x", "jobs")
    out = {}
    for jobs in (1, 2):
        times = []
        for _ in range(JOBS_REPEATS + 1):
            wall, code, err = workloads.timed_process(
                cli._command(argv + ["--jobs", str(jobs)]), workdir)
            if code != 0:
                raise RuntimeError(err)
            times.append(wall)
        out[jobs] = statistics.median(times[1:])
    return out, len(cli.grids[0][0])


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    t0 = perf_counter()
    per = isolated.timings(seed)
    ours = criterion_1(workloads.InProcess("acoustic_flat_d4", seed))
    test = criterion_1(with_test_inputs(workloads.InProcess("acoustic_flat_d4", seed)))
    column = (per["elastic.forward_ms_d2"] - per["elastic.order0_ms"]) / 3
    workdir = workloads.new_workdir("baselines")
    try:
        jobs, points = jobs_seconds(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows = [
        ("criterion 1: forward, s per pass", "0.30", f"{ours[0]:.2f}", f"{test[0]:.2f}"),
        ("criterion 1: inversion, s per pass", "2.20", f"{ours[1]:.2f}", f"{test[1]:.2f}"),
        ("criterion 1: whole pass, range over passes, s", "", f"{ours[2]:.2f} to {ours[3]:.2f}",
         f"{test[2]:.2f} to {test[3]:.2f}"),
        ("criterion 1: forward_series calls / samples", "5,200 / 400",
         f"{ours[4]:,} / {ours[5]}", f"{test[4]:,} / {test[5]}"),
        ("`jet_mul` at depth 4, us", "6", f"{per['jets.mul_us_d4']:.1f}", ""),
        ("acoustic `forward_series` at depth 4, ms", "0.47",
         f"{per['acoustic.forward_ms_d4']:.2f}", ""),
        ("elastic set-up, ms (`principal_rt_matrices`)", "1.0",
         f"{per['elastic.order0_ms']:.2f}", ""),
        ("one elastic depth-2 column, ms ((d2 run - order 0) / 3)", "7.0",
         f"{column:.1f}", ""),
    ]
    print(f"seed {seed}; 'benchmark' is this seed's acoustic_flat_d4 and "
          "isolated inputs, 'test' the inputs of test_criterion_1\n")
    print("| figure | ROADMAP | benchmark | test |\n|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print(f"\n`reflectjet forward` on {points} grid points: --jobs 1 "
          f"{jobs[1]:.3f} s, --jobs 2 {jobs[2]:.3f} s "
          f"(median of {JOBS_REPEATS} processes each)")
    print(f"\n({perf_counter() - t0:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
