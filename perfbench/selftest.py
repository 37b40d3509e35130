"""Test of the benchmark's output checks: each accepts a real program
output and rejects the same output with one coefficient perturbed by 1e-4.

The schema check is structural, so a perturbed number still satisfies
it; it is shown instead to reject a coefficient written as a string and
an unknown member.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

EPS = 1e-4


def rejects(check, *args):
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def expect(name, check, good, bad):
    """`good` and `bad` are argument tuples for `check`."""
    check(*good)
    if not rejects(check, *bad):
        raise AssertionError(f"{name}: a result perturbed by {EPS} passed")
    print(f"ok  {name}")


def bump(value):
    return value + EPS


def main() -> int:
    from reflectjet import acoustic, elastic, inversion
    from reflectjet.medium import Covector, InterfaceGeometry

    a_dict = inputs.acoustic_flat_d4(0)[0]
    a_model = workloads.to_model(a_dict)
    a_covs = [Covector(1.0, (b, 0.0)) for b in inputs.slowness_grid(a_dict, 8)]
    a_series = [acoustic.forward_symbols(c, a_model, 4) for c in a_covs]
    a_values = [[r for _, r, _ in s.orders] for s in a_series]
    a_scaled = [[r for _, r, _ in acoustic.forward_symbols(c.scaled(checks.SCALE),
                                                           a_model, 4).orders]
                for c in a_covs]

    e_dict = inputs.elastic_d1_d2(0)[0]
    e_model = workloads.to_model(e_dict)
    e_covs = [Covector(1.0, (b, 0.0)) for b in inputs.slowness_grid(e_dict, 6)]
    e_series = [elastic.forward_symbols_elastic(c, e_model, 1) for c in e_covs]

    b = a_covs[3].slowness
    r0 = a_values[3][0]
    expect("acoustic R0 closed form", checks.check_r0,
           (a_dict, b, r0), (a_dict, b, bump(r0)))
    b = e_covs[3].slowness
    r33 = e_series[3].orders[0][1][2, 2]
    expect("elastic R33 closed form", checks.check_r0,
           (e_dict, b, r33), (e_dict, b, bump(r33)))

    for k in range(5):
        bad = copy.deepcopy(a_values)
        bad[5][k] = bad[5][k] * (1 + EPS)
        expect(f"homogeneity, acoustic order {-k}", checks.check_homogeneity,
               (a_values, a_scaled), (bad, a_scaled))

    r_orders = [r for _, r, _ in e_series[2].orders]
    for k in range(2):
        bad = [r.copy() for r in r_orders]
        bad[k][2, 0] += EPS
        expect(f"SH/P-SV decoupling, elastic order {-k}", checks.check_decoupling,
               (r_orders,), (bad,))

    samples = inversion.SymbolSamples.from_acoustic_series(a_series)
    report = inversion.acoustic_recover_jets(samples, a_model.minus, 4,
                                             geometry=InterfaceGeometry())
    plus = {"rho_jet": list(report.plus.rho.coeffs), "cs_jet": list(report.plus.cs.coeffs)}
    for k in range(5):
        bad = copy.deepcopy(plus)
        bad["cs_jet"][k] = bump(bad["cs_jet"][k])
        expect(f"acoustic recovery, order {-k}", checks.check_recovery,
               (a_dict, plus, "acoustic", 4), (a_dict, bad, "acoustic", 4))

    samples = inversion.SymbolSamples.from_elastic_series(e_series)
    report = inversion.elastic_recover_jets(samples, e_model.minus, 1,
                                            geometry=InterfaceGeometry())
    plus = {"rho_jet": list(report.plus.rho.coeffs), "cs_jet": list(report.plus.cs.coeffs),
            "cp_jet": list(report.plus.cp.coeffs)}
    for k in range(2):
        bad = copy.deepcopy(plus)
        bad["cp_jet"][k] = bump(bad["cp_jet"][k])
        expect(f"elastic recovery, order {-k}", checks.check_recovery,
               (e_dict, plus, "elastic", 1), (e_dict, bad, "elastic", 1))

    c_dict = inputs.cli_curved_d2(0)[0]
    kappas = [c_dict["geometry"]["kappa2"], c_dict["geometry"]["kappa1"]]
    expect("curvatures", checks.check_kappas,
           (c_dict, kappas), (c_dict, [kappas[0], bump(kappas[1])]))

    # CSV and report checks, on real outputs of the command line
    workdir = workloads.new_workdir("selftest")
    try:
        cli = workloads.Cli("cli_curved_d2", 0, workdir)
        p = cli.run_pass()
        for op in p.ops:
            if op.error is not None:
                raise AssertionError(op.error)
        forward, invert = p.ops[0], p.ops[2]
        text = forward.output[0].read_text()
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[4] = repr(float(fields[4]) + EPS)  # re_aR of the first order-0 row
        bad_text = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
        expect("CSV order-0 rows against the closed form", checks.acoustic_csv_r0,
               (c_dict, text), (c_dict, bad_text))
        expect("byte-identical CSVs", checks.check_same_bytes,
               (text.encode(), text.encode(), "csv"),
               (text.encode(), bad_text.encode(), "csv"))

        doc = json.loads(invert.output[0].read_text())
        schema = checks.load_json(workloads.SRC / "reflectjet" / "schemas"
                                  / "recovery_report.schema.json")
        bad = copy.deepcopy(doc)
        bad["plus"]["cs_jet"][1] = str(bad["plus"]["cs_jet"][1])
        expect("report schema (coefficient as a string)", checks.check_schema,
               (doc, schema), (bad, schema))
        bad = dict(doc, extra=1.0)
        expect("report schema (unknown member)", checks.check_schema,
               (doc, schema), (bad, schema))
        bad = copy.deepcopy(doc)
        bad["plus"]["rho_jet"][2] = bump(bad["plus"]["rho_jet"][2])
        expect("recovery from a CLI report", checks.check_recovery,
               (c_dict, doc["plus"], "acoustic", 2), (c_dict, bad["plus"], "acoustic", 2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all checks reject perturbed results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
