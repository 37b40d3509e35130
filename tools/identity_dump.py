"""Print the deterministic outputs of a reflectjet tree, for `cmp`.

    PYTHONPATH=<tree>/src python tools/identity_dump.py > <tree>.dump
    cmp parent.dump change.dump

Byte-identical dumps of two trees show that a change left these outputs
bit for bit as they were:

* the `repr` of `acoustic.forward_series` (depths 0-4) and of
  `elastic.forward_series_elastic` (depths 0-2), for flat and curved
  random models, with `sampling`'s np.float64 coefficients and with the
  plain floats a model JSON gives, at slownesses from 0 to near glancing,
  at the critical slowness and past it, along three directions;
* the `repr` of acoustic groups of 1-4 plus sides whose top coefficients
  are -0.0 or 1.0, on minus sides built at the group's depth and deeper;
* the `repr` of elastic groups of 1-4 plus sides whose top coefficients
  are -0.0 or 1.0, at depths 1 and 2, at normal and oblique incidence;
* the `repr` of recovery reports without `timings`, with the geometry
  known and recovered;
* the `repr` of `elastic_recover_order0` results, the order-0 `cp`
  scan among them, for several seeds, and for data whose P-P entry no
  `cp` matches (`NoRoot`);
* the `repr` of `elastic._order0` on stacks of 20 plus sides from the
  scan's `cp_lo` to its `cp_hi`, on flat and curved depth-0 minus sides
  at normal and oblique incidence, with np.float64 and float values,
  and with a glancing plus side among them;
* the bytes of `reflectjet forward` CSVs and of `reflectjet invert` JSON
  without `timings`, written in a temporary directory.

An exception is printed as its type and message, so it is compared too.
A dump takes about 40 s on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from reflectjet import acoustic, elastic
from reflectjet.cli import main as cli_main
from reflectjet.inversion import (
    SymbolSample,
    SymbolSamples,
    acoustic_recover_jets,
    elastic_recover_jets,
    elastic_recover_order0,
)
from reflectjet.jets import Jet
from reflectjet.medium import (
    GLANCING_TOL,
    AcousticSideJet,
    Covector,
    ElasticSideJet,
)
from reflectjet.modelio import model_from_dict, model_to_dict
from reflectjet.sampling import random_acoustic_model, random_elastic_model

# of the critical slowness: glancing at 1.0, evanescent at 1.01
FRACTIONS = (0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 1.0, 1.01)
DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))
SEEDS = (0, 1, 2, 3)


def _covectors(model, tau=1.0):
    b_crit = model.critical_slowness()
    covs = [Covector(tau, (f * b_crit * tau * dx, f * b_crit * tau * dy))
            for dx, dy in DIRECTIONS for f in FRACTIONS]
    return list(dict.fromkeys(covs))  # normal incidence once


def _grid(model, count):
    """`count` slownesses along x and `count - 1` along y, up to 0.8 of
    the critical slowness: the curvatures need two directions."""
    bs = np.linspace(0.0, 0.8 * model.critical_slowness(), count)
    return ([Covector(1.0, (float(b), 0.0)) for b in bs]
            + [Covector(1.0, (0.0, float(b))) for b in bs[1:]])


def _attempt(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except Exception as exc:  # the failure is part of the output
        return f"{type(exc).__name__}: {exc}"


def _without_timings(doc):
    if isinstance(doc, dict):
        return {k: _without_timings(v) for k, v in doc.items()
                if k != "timings"}
    if isinstance(doc, list):
        return [_without_timings(v) for v in doc]
    return doc


def _report(func, samples, minus, depth, geometry):
    report = _attempt(func, samples, minus, depth, geometry=geometry)
    if isinstance(report, str):
        return report
    return repr(_without_timings(report.to_dict()))


def _models(make, depths):
    for seed in SEEDS:
        for depth in depths:
            for curved in (False, True):
                model = make(np.random.default_rng(seed), depth,
                             curved=curved)
                yield f"seed={seed} depth={depth} curved={curved}", model


def _as_floats(model):
    """`model` with the plain float coefficients the CLI reads from JSON."""
    return model_from_dict(json.loads(json.dumps(model_to_dict(model))))


def dump_forward(out):
    engines = ((acoustic.forward_series, random_acoustic_model, range(5)),
               (elastic.forward_series_elastic, random_elastic_model,
                range(3)))
    for forward, make, depths in engines:
        for label, sampled in _models(make, depths):
            for model, kind in ((sampled, ""), (_as_floats(sampled),
                                                " floats")):
                depth = model.depth
                for cov in _covectors(model):
                    series = _attempt(forward, cov, model.minus, model.plus,
                                      model.geometry, depth)
                    out(f"{forward.__name__} {label}{kind} {cov!r}: "
                        f"{series!r}")


def _with_tops(side, depth, rho_top, cs_top):
    return AcousticSideJet(Jet(side.rho.coeffs[:depth] + (rho_top,)),
                           Jet(side.cs.coeffs[:depth] + (cs_top,)))


def dump_groups(out):
    for label, sampled in _models(random_acoustic_model, (4,)):
        for model, kind in ((sampled, ""), (_as_floats(sampled), " floats")):
            for depth in range(1, 5):
                pluses = [_with_tops(model.plus, depth, r, c)
                          for r, c in ((-0.0, -0.0), (-0.0, 1.0),
                                       (1.0, -0.0))]
                pluses.append(model.plus.truncate(depth))
                for cov in _covectors(model)[::3]:
                    for built in sorted({depth, 4}):
                        ms = _attempt(acoustic._minus_side, cov, model.minus,
                                      model.geometry, built, GLANCING_TOL)
                        for n in range(1, 5):
                            group = (ms if isinstance(ms, str) else
                                     _attempt(acoustic._group, ms, depth,
                                              pluses[:n]))
                            out(f"_group {label}{kind} {cov!r} depth={depth} "
                                f"built={built} n={n}: {group!r}")


# the elastic tops (rho, cs, cp): the base side and one field's unit
ELASTIC_TOPS = ((-0.0, -0.0, -0.0), (-0.0, 1.0, -0.0), (1.0, -0.0, -0.0),
                (-0.0, -0.0, 1.0))


def dump_elastic_groups(out):
    for label, sampled in _models(random_elastic_model, (2,)):
        for model, kind in ((sampled, ""), (_as_floats(sampled), " floats")):
            for depth in (1, 2):
                pluses = [ElasticSideJet(*(
                    Jet(j.coeffs[:depth] + (t,)) for j, t in
                    zip((model.plus.rho, model.plus.cs, model.plus.cp), tops)))
                    for tops in ELASTIC_TOPS]
                for cov in _covectors(model)[::3]:
                    ms = _attempt(elastic._MinusSide, cov, model.minus,
                                  model.geometry, depth, GLANCING_TOL)
                    for n in range(1, 5):
                        group = (ms if isinstance(ms, str) else
                                 _attempt(elastic._group, ms, pluses[:n]))
                        out(f"elastic._group {label}{kind} {cov!r} "
                            f"depth={depth} n={n}: {group!r}")


def dump_recovery(out):
    cases = ((acoustic.forward_symbols, acoustic_recover_jets,
              random_acoustic_model, range(1, 5), 8),
             (elastic.forward_symbols_elastic, elastic_recover_jets,
              random_elastic_model, range(1, 3), 4))
    for forward, recover, make, depths, count in cases:
        for label, model in _models(make, depths):
            samples = SymbolSamples.from_acoustic_series(
                [forward(c, model, model.depth) for c in _grid(model, count)])
            for geometry in (model.geometry, None):
                known = geometry is not None
                report = _report(recover, samples, model.minus, model.depth,
                                 geometry)
                out(f"{recover.__name__} {label} known={known}: {report}")


def dump_order0(out):
    for seed in range(8):
        model = random_elastic_model(np.random.default_rng(seed), 0)
        samples = [SymbolSample(c, 0, elastic.principal_rt_matrices(c, model)[0])
                   for c in _grid(model, 6)]
        result = _attempt(elastic_recover_order0, samples, model.minus)
        out(f"elastic_recover_order0 seed={seed}: {result!r}")
        # a P-P entry at the probe (the smallest |b|) that no cp reaches
        value = samples[0].value.copy()
        value[0, 0] = 0.999
        samples[0] = SymbolSample(samples[0].covector, 0, value)
        result = _attempt(elastic_recover_order0, samples, model.minus)
        out(f"elastic_recover_order0 seed={seed} perturbed: {result!r}")


def _scan_stack(model, cov, count=20):
    """Plus sides of the order-0 `cp` scan at `cov`: the model's rho and
    cs with `count` compressional speeds from the scan's `cp_lo` to its
    `cp_hi`, the slowness of `cov` standing in for the grid's largest."""
    plus = model.plus
    b = abs(cov.slowness)
    cp_lo = np.sqrt(4.0 / 3.0) * plus.cs[0] * (1.0 + 1e-9)
    cp_hi = (1.0 - 1e-9) / b if b > 0 else 100.0 * plus.cs[0]
    cps = np.linspace(cp_lo, cp_hi, count)
    if type(plus.cs[0]) is float:  # the values of a model JSON
        cps = cps.tolist()
    return [ElasticSideJet(Jet([plus.rho[0]]), Jet([plus.cs[0]]), Jet([cp]))
            for cp in cps]


def dump_order0_stacks(out):
    for label, sampled in _models(random_elastic_model, (0,)):
        for model, kind in ((sampled, ""), (_as_floats(sampled), " floats")):
            b_crit = model.critical_slowness()
            covs = (Covector(1.0), Covector(1.0, (0.3 * b_crit, 0.4 * b_crit)),
                    Covector(-2.0, (1.6 * b_crit, 0.0)))
            for cov in covs:
                ms = _attempt(elastic._MinusSide, cov, model.minus,
                              model.geometry, 0, GLANCING_TOL)
                pluses = _scan_stack(model, cov)
                if cov.slowness:  # a glancing candidate among them
                    glancing = ElasticSideJet(
                        model.plus.rho, model.plus.cs,
                        Jet([1.0 / abs(cov.slowness)]))
                    cases = (pluses, pluses[:7] + [glancing] + pluses[7:])
                else:
                    cases = (pluses,)
                for stack in cases:
                    result = (ms if isinstance(ms, str) else
                              _attempt(elastic._order0, ms, stack))
                    out(f"elastic._order0 {label}{kind} {cov!r} "
                        f"n={len(stack)}: {result!r}")


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return f"exit {rc} {err.getvalue()!r}"


def dump_cli(out):
    models = [("acoustic", model)
              for _, model in _models(random_acoustic_model, (2,))]
    models += [("elastic", model)
               for _, model in _models(random_elastic_model, (1,))][:2]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (kind, model) in enumerate(models):
            path = tmp / f"model{i}.json"
            path.write_text(json.dumps(model_to_dict(model)))
            b_max = 0.8 * model.critical_slowness()
            grid = ",".join(repr(b_max * j / 11) for j in range(12))
            csvs = []
            for direction in ("1,0", "0,1"):
                csv = tmp / f"sym{i}-{direction.replace(',', '')}.csv"
                status = _cli(["forward", "--model", str(path), "--out",
                               str(csv), "--grid", grid,
                               "--direction", direction])
                out(f"forward {kind} model{i} {direction}: {status}")
                if csv.exists():
                    out(csv.read_text())
                    csvs.append(str(csv))
            for known in ([], ["--known-geometry"]):
                rec = tmp / f"rec{i}.json"
                argv = ["invert", "--model", str(path), "--out", str(rec)]
                for csv in csvs:
                    argv += ["--symbols", csv]
                status = _cli(argv + known)
                out(f"invert {kind} model{i} {known}: {status}")
                if rec.exists():
                    doc = _without_timings(json.loads(rec.read_text()))
                    out(json.dumps(doc, indent=2, sort_keys=True))
                    rec.unlink()


def main():
    # every float of an array in full: the shortest repr that round-trips
    np.set_printoptions(floatmode="unique")
    for dump in (dump_forward, dump_groups, dump_elastic_groups,
                 dump_recovery, dump_order0, dump_order0_stacks, dump_cli):
        dump(print)


if __name__ == "__main__":
    main()
