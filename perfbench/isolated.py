"""Per-call times of single layers, each timed apart from any workload.

Every figure is the median over REPEATS timed loops of `number` calls,
taken with tracing off.  The inputs come from the run's seed: the first
acoustic model of `acoustic_flat_d4` (depth 4) and the last elastic
model of `elastic_d1_d2` (depth 2), at slowness 0.4 b_crit.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import inputs
import workloads

REPEATS = 7
IMPORT_PROBES = 5


def per_call(fn, args, number: int) -> float:
    """Median seconds per call of fn(*args)."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(number):
            fn(*args)
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import reflectjet.cli."""
    code = ("import time; t = time.perf_counter(); import reflectjet.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for _ in range(IMPORT_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(),
                             capture_output=True, text=True, check=True,
                             timeout=workloads.PROCESS_TIMEOUT_S)
        times.append(float(out.stdout))
    return statistics.median(times[1:])  # the first fills the file cache


def timings(seed: int) -> dict:
    from reflectjet import acoustic, elastic, jets
    from reflectjet.medium import Covector

    a_dict = inputs.acoustic_flat_d4(seed)[0]
    e_dict = inputs.elastic_d1_d2(seed)[-1]
    a_model, e_model = workloads.to_model(a_dict), workloads.to_model(e_dict)
    a_cov = Covector(1.0, (0.4 * inputs.critical_slowness(a_dict), 0.0))
    e_cov = Covector(1.0, (0.4 * inputs.critical_slowness(e_dict), 0.0))

    rho4, cs4 = a_model.plus.rho, a_model.plus.cs
    rho2, cs2 = rho4.truncate(2), cs4.truncate(2)
    us, ms = 1e6, 1e3
    out = {
        "jets.mul_us_d2": us * per_call(jets.jet_mul, (rho2, cs2), 4000),
        "jets.mul_us_d4": us * per_call(jets.jet_mul, (rho4, cs4), 2000),
        "jets.inv_us_d4": us * per_call(jets.jet_inv, (cs4,), 2000),
        "jets.sqrt_us_d4": us * per_call(jets.jet_sqrt, (rho4,), 1000),
    }
    for depth, number in ((0, 400), (2, 100), (4, 50)):
        out[f"acoustic.forward_ms_d{depth}"] = ms * per_call(
            acoustic.forward_series,
            (a_cov, a_model.minus, a_model.plus, None, depth), number)
    out["elastic.order0_ms"] = ms * per_call(
        elastic.principal_rt_matrices, (e_cov, e_model), 20)
    for depth, number in ((1, 8), (2, 4)):
        out[f"elastic.forward_ms_d{depth}"] = ms * per_call(
            elastic.forward_series_elastic,
            (e_cov, e_model.minus, e_model.plus, None, depth), number)
    out["cli.import_s"] = import_seconds()
    return out
