"""Print the deterministic outputs of a reflectjet tree, for `cmp`.

    PYTHONPATH=<tree>/src python tools/identity_dump.py > <tree>.dump
    cmp parent.dump change.dump

With `--warm-one` every elastic tape class records on its first call
(`elastic._WARM = 1`), so the dump runs the elastic tapes where the
shipped setting runs the source; dump both trees both ways.

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
  are -0.0 or 1.0, at depths 1 and 2, and of depth-0 groups of 1-4
  distinct plus sides, at normal and oblique incidence; the groups at
  depths 1 and 2 again with the cascade checks' relative tolerance at
  -1.0, where most checks fail, at 0.0, where none does, and at -1e-11,
  where some steps fail and others pass, so the error a group reports
  is compared too;
* the `repr` of recovery reports without `timings`, with the geometry
  known and recovered, from samples on one grid and from samples whose
  odd orders sit on a grid of one more slowness than the even orders';
* the `repr` of `elastic_recover_order0` results, the order-0 `cp`
  scan among them, for several seeds, and for data whose P-P entry no
  `cp` matches (`NoRoot`);
* the `repr` of `elastic.principal_rt_matrices` for the depth-0 models,
  flat and curved, with np.float64 and float values, at the forward
  dump's covectors;
* the `repr` of `elastic._order0` on stacks of 20 plus sides from the
  scan's `cp_lo` to its `cp_hi`, on flat and curved depth-0 minus sides
  at normal and oblique incidence, with np.float64 and float values,
  and with a glancing plus side among them;
* the bytes of `reflectjet forward` CSVs and of `reflectjet invert` JSON
  without `timings`, written in a temporary directory;
* the exit code and stderr of `reflectjet forward` on model files that
  break a physical check or the shipped schema or hold an integer too
  large for a float, and of `reflectjet invert` on symbol CSVs that the
  reader rejects, with the temporary directory's path replaced by a
  fixed token;
* the `repr` of `elastic._interface` on the depth-0 stacks of the scan
  (its solutions, or its error with the condition it carries) under a
  ladder of condition limits from the shipped one down to 3, which the
  stacks' matrices cross;
* the `repr` of the elastic recovery's order runs, one engine call for
  all covectors of an order, on unit groups at depths 1 and 2, flat and
  curved, on a grid and on the grid with a covector past the critical
  slowness among them, at the shipped cascade tolerance and at -1e-11;
* the exit code and stderr of the CLI on rejected options, malformed
  option values, a grid whose covectors overflow, usage errors and a
  missing model file named beside a malformed `--grid`, with the same
  token.  An exception that escapes
  the CLI's `main`, `SystemExit` among them, is printed in the exit
  code's place, so trees whose `main` raises on these can be dumped too;
* the `repr` of `acoustic_recover_relative` results on ratio sets of
  seeded flat models, the other caller of the root scan, with the
  plus-side parameter sets of an `AmbiguousRoot` that the scan found, a
  `NoRoot` from ratios off by 5 %, and the transparent interface;
* at covectors within 8 ulps of each edge of each speed's glancing band,
  at glancing tolerances 1e-9 and 0, along four directions, on curved
  acoustic models and elastic models with the same S speeds, the
  covectors of a curved model that once disagreed with `classify_regime`
  among them: `classify_regime`'s verdict for each speed and the `repr`
  of each engine's order -2.

An exception is printed as its type and message, so it is compared too.
A dump takes about 40 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from reflectjet import acoustic, elastic, inversion
from reflectjet.cli import main as cli_main
from reflectjet.errors import AmbiguousRoot
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
    InterfaceGeometry,
    InterfaceModel,
    classify_regime,
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
# the depth-0 plus sides (rho, both speeds): the model's own, then
# distinct sides no faster than it, so each stays admissible where it is
ELASTIC_FACTORS = ((1.0, 1.0), (1.3, 0.9), (0.7, 0.95), (1.1, 0.8))


def _elastic_group_pluses(plus, depth):
    fields = (plus.rho, plus.cs, plus.cp)
    if depth == 0:
        return [ElasticSideJet(*(Jet([f * j[0]]) for f, j in
                                 zip((g, s, s), fields)))
                for g, s in ELASTIC_FACTORS]
    return [ElasticSideJet(*(Jet(j.coeffs[:depth] + (t,))
                             for j, t in zip(fields, tops)))
            for tops in ELASTIC_TOPS]


def _order0(ms, pluses):
    """`elastic._order0` of the plus sides `pluses`, as a list of (R0, T0),
    on a tree whose `_order0` takes (rho, cs, cp) values or plus sides and
    a cache, and returns such a list or the stacked solutions."""
    if "sides" in inspect.signature(elastic._order0).parameters:
        result = elastic._order0(ms, [(p.rho[0], p.cs[0], p.cp[0])
                                      for p in pluses])
    else:
        result = elastic._order0(ms, pluses, {})
    if isinstance(result, np.ndarray):
        return [(x[:3], x[3:]) for x in result]
    return result


def _interface(ms, pluses):
    """`elastic._interface` of the depth-0 plus sides `pluses` on the
    minus side `ms`, each transmitted column from the side's contexts."""
    tops = []
    for plus in pluses:
        if "sides" in inspect.signature(elastic._side_ctxs).parameters:
            ctx = elastic._side_ctxs(ms.cov, [plus], ms.kt, ms.stretch, ms.h,
                                     0, ms.tol, ("T",))[1][0]
        else:
            ctx = elastic._side_ctxs(ms.cov, plus, ms.kt, ms.stretch, ms.h,
                                     0, ms.tol, ("T",), {})
        tops.append(elastic._ctx_columns(ctx["T", "P"], ctx["T", "S"]))
    return elastic._interface(ms, tops)


def dump_elastic_groups(out):
    rtol = elastic._COMPAT_RTOL
    try:
        for tol, depths in ((rtol, (0, 1, 2)), (-1.0, (1, 2)), (0.0, (1, 2)),
                            (-1e-11, (1, 2))):
            elastic._COMPAT_RTOL = tol
            tag = "" if tol == rtol else f" rtol={tol}"
            _dump_elastic_groups(out, depths, tag)
    finally:
        elastic._COMPAT_RTOL = rtol


def _dump_elastic_groups(out, depths, tag):
    for label, sampled in _models(random_elastic_model, (2,)):
        for model, kind in ((sampled, ""), (_as_floats(sampled), " floats")):
            for depth in depths:
                pluses = _elastic_group_pluses(model.plus, depth)
                for cov in _covectors(model)[::3]:
                    ms = _attempt(elastic._MinusSide, cov, model.minus,
                                  model.geometry, depth, GLANCING_TOL)
                    for n in range(1, 5):
                        group = (ms if isinstance(ms, str) else
                                 _attempt(elastic._group, ms, pluses[:n]))
                        out(f"elastic._group{tag} {label}{kind} {cov!r} "
                            f"depth={depth} n={n}: {group!r}")


def _two_grid_samples(forward, model, count):
    """Samples of the even orders on `_grid(model, count)` and of the odd
    orders on `_grid(model, count + 1)`; the two grids share their ends."""
    out = []
    for parity in (0, 1):
        for cov in _grid(model, count + parity):
            out += [SymbolSample(cov, j, r)
                    for j, r, _ in forward(cov, model, model.depth).orders
                    if -j % 2 == parity]
    return SymbolSamples(out)


def dump_recovery(out):
    cases = ((acoustic.forward_symbols, acoustic_recover_jets,
              random_acoustic_model, range(1, 5), 8),
             (elastic.forward_symbols_elastic, elastic_recover_jets,
              random_elastic_model, range(1, 3), 4))
    for forward, recover, make, depths, count in cases:
        for label, model in _models(make, depths):
            one_grid = SymbolSamples.from_acoustic_series(
                [forward(c, model, model.depth) for c in _grid(model, count)])
            two_grids = _two_grid_samples(forward, model, count)
            for samples, tag in ((one_grid, ""), (two_grids, " two grids")):
                for geometry in (model.geometry, None):
                    known = geometry is not None
                    report = _report(recover, samples, model.minus,
                                     model.depth, geometry)
                    out(f"{recover.__name__}{tag} {label} known={known}: "
                        f"{report}")


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


def dump_principal(out):
    for label, sampled in _models(random_elastic_model, (0,)):
        for model, kind in ((sampled, ""), (_as_floats(sampled), " floats")):
            for cov in _covectors(model):
                result = _attempt(elastic.principal_rt_matrices, cov, model)
                out(f"principal_rt_matrices {label}{kind} {cov!r}: "
                    f"{result!r}")


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
                              _attempt(_order0, ms, stack))
                    out(f"elastic._order0 {label}{kind} {cov!r} "
                        f"n={len(stack)}: {result!r}")


# the condition limits of the `_interface` ladder: the shipped one, then
# limits that the scan stacks' matrices cross
COND_LADDER = (None, 1e6, 1e3, 100.0, 30.0, 10.0, 3.0)


def dump_interface_ladder(out):
    limit = elastic._COND_LIMIT
    try:
        for label, sampled in _models(random_elastic_model, (0,)):
            for model, kind in ((sampled, ""), (_as_floats(sampled),
                                                " floats")):
                b_crit = model.critical_slowness()
                for cov in (Covector(1.0), Covector(1.0, (0.3 * b_crit,
                                                          0.4 * b_crit))):
                    ms = elastic._MinusSide(cov, model.minus, model.geometry,
                                            0, GLANCING_TOL)
                    stack = _scan_stack(model, cov)
                    for ladder in COND_LADDER:
                        elastic._COND_LIMIT = limit if ladder is None \
                            else ladder
                        result = _attempt(_interface, ms, stack)
                        if not isinstance(result, str):
                            result = repr(result[1])
                        else:  # with the condition the error carries
                            result += repr(_condition(_interface, ms, stack))
                        out(f"elastic._interface {label}{kind} {cov!r} "
                            f"limit={elastic._COND_LIMIT!r}: {result}")
    finally:
        elastic._COND_LIMIT = limit


def _condition(func, *args):
    try:
        func(*args)
    except Exception as exc:
        return getattr(exc, "condition", None)
    return None


def _order_run(minus):
    """The `run` that `elastic_recover_jets` hands the recovery driver."""
    real = inversion._recover_jets
    inversion._recover_jets = lambda *args: args[7]
    try:
        return elastic_recover_jets([], minus, 0)
    finally:
        inversion._recover_jets = real


def dump_order_runs(out):
    rtol = elastic._COMPAT_RTOL
    try:
        for tol in (rtol, -1e-11):
            elastic._COMPAT_RTOL = tol
            tag = "" if tol == rtol else f" rtol={tol}"
            for label, sampled in _models(random_elastic_model, (2,)):
                for model, kind in ((sampled, ""), (_as_floats(sampled),
                                                    " floats")):
                    covs = _grid(model, 4)
                    b_crit = model.critical_slowness()
                    past = Covector(1.0, (1.01 * b_crit, 0.0))
                    run = _order_run(model.minus)
                    for depth in (1, 2):
                        pluses = _elastic_group_pluses(model.plus, depth)
                        for grid in (covs, covs[:3] + [past] + covs[3:]):
                            result = _attempt(run, grid, model.geometry,
                                              depth, depth, pluses)
                            out(f"elastic order run{tag} {label}{kind} "
                                f"depth={depth} n={len(grid)}: {result!r}")
    finally:
        elastic._COMPAT_RTOL = rtol


def _relative(*args, **kwargs):
    try:
        return repr(inversion.acoustic_recover_relative(*args, **kwargs))
    except AmbiguousRoot as exc:  # the roots are part of the output
        return f"AmbiguousRoot: {exc} roots={exc.roots!r}"


def dump_relative(out):
    def ratio_samples(model, b_ref, bs, scale=1.0):
        def r0(b):
            cov = Covector(1.0, (b, 0.0))
            return acoustic.forward_symbols(cov, model, 0).orders[0][1]

        ref = r0(b_ref)
        return [SymbolSample(Covector(1.0, (b, 0.0)), 0,
                             float((r0(b) / ref).real) * scale) for b in bs]

    for seed in range(8):
        model = random_acoustic_model(np.random.default_rng(seed), 0)
        b_crit = model.critical_slowness()
        reference = Covector(1.0, (0.05 * b_crit, 0.0))
        for fractions in ((0.3, 0.6), (0.2, 0.5, 0.8)):
            bs = [f * b_crit for f in fractions]
            # a residual tolerance of 0.1 lets several scan roots through
            # (AmbiguousRoot), and ratios off by 5 % match none (NoRoot)
            for scale, tol in ((1.0, 1e-6), (1.0, 0.1), (1.05, 1e-6)):
                samples = ratio_samples(model, reference.slowness, bs, scale)
                result = _attempt(_relative, samples, model.minus,
                                  reference, residual_tol=tol)
                out(f"acoustic_recover_relative seed={seed} {fractions} "
                    f"scale={scale} tol={tol}: {result}")
    side = AcousticSideJet(Jet([1.0]), Jet([1.0]))
    samples = [SymbolSample(Covector(1.0, (b, 0.0)), 0, 1.0)
               for b in (0.2, 0.3, 0.4)]
    result = _attempt(_relative, samples, side, Covector(1.0, (0.05, 0.0)))
    out(f"acoustic_recover_relative transparent: {result}")


def _cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except (Exception, SystemExit) as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
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


_ACOUSTIC = {"minus": {"rho_jet": [1.0, 0.3], "cs_jet": [1.0, -0.2]},
             "plus": {"rho_jet": [1.0, -0.5], "cs_jet": [2.0, 0.6]}}
_ELASTIC = {"minus": {"rho_jet": [1.0], "cs_jet": [1.0], "cp_jet": [2.0]},
            "plus": {"rho_jet": [1.4], "cs_jet": [1.2], "cp_jet": [2.3]}}
_MINUS = _ACOUSTIC["minus"]

# model files that break a physical check, then the shipped schema, then
# hold an integer too large for a float, then have a negative cp
BAD_MODELS = (
    ("negative_density", dict(_ACOUSTIC, plus={"rho_jet": [-1.0, 0.0],
                                               "cs_jet": [2.0, 0.6]})),
    ("zero_speed", dict(_ACOUSTIC, minus=dict(_MINUS, cs_jet=[0.0, -0.2]))),
    ("not_convex", dict(_ELASTIC, plus=dict(_ELASTIC["plus"], cp_jet=[1.3]))),
    ("mixed_kinds", {"minus": {"rho_jet": [1.0], "cs_jet": [1.0]},
                     "plus": _ELASTIC["plus"]}),
    ("side_depths", dict(_ACOUSTIC, plus={"rho_jet": [1.0], "cs_jet": [2.0]})),
    ("jet_lengths", dict(_ACOUSTIC, minus=dict(_MINUS, cs_jet=[1.0]))),
    ("nan_kappa", dict(_ACOUSTIC, geometry={"kappa1": float("nan")})),
    ("depth_disagrees", dict(_ACOUSTIC, depth=3)),
    ("no_plus", {"minus": _MINUS}),
    ("empty_jet", dict(_ACOUSTIC, plus=dict(_MINUS, cs_jet=[]))),
    ("top_level_list", [_ACOUSTIC]),
    ("kappa_1", dict(_ACOUSTIC, geometry={"kappa_1": 0.5})),
    ("cpjet", {side: {"rho_jet": [1.0], "cs_jet": [1.0], "cpjet": [2.0]}
               for side in ("minus", "plus")}),
    ("depth_true", dict(_ACOUSTIC, depth=True)),
    ("bool_coefficient", dict(_ACOUSTIC, minus=dict(_MINUS,
                                                    rho_jet=[1.0, True]))),
    ("unknown_member", dict(_ACOUSTIC, depht=1)),
    ("big_rho", dict(_ACOUSTIC, plus={"rho_jet": [10 ** 400, -0.5],
                                      "cs_jet": [2.0, 0.6]})),
    ("big_kappa", dict(_ACOUSTIC, geometry={"kappa1": 10 ** 400})),
    ("negative_cp", dict(_ELASTIC, plus={"rho_jet": [1.5], "cs_jet": [1.3],
                                         "cp_jet": [-3.0]})),
)

_A_HEAD = "tau,xi1,xi2,order,re_aR,im_aR,re_aT,im_aT\n"
_E_HEAD = "tau,xi1,xi2,order,row,col,re_R,im_R,re_T,im_T\n"
_A_ROW = "1.0,0.0,0.0,0,0.5,0.0,1.5,0.0\n"
_E_ROW = "1.0,0.0,0.0,0,1,1,0.5,0.0,1.5,0.0\n"

# the symbol CSVs of one `invert` run that the reader rejects
BAD_SYMBOLS = (
    ("empty", [""]),
    ("comments_only", ["# a comment\n"]),
    ("unknown_header", ["tau,xi,order\n1,0,0\n"]),
    ("no_rows", [_A_HEAD]),
    ("field_count", [_A_HEAD + "1.0,0.0,0.0,0,0.5\n"]),
    ("positive_order", [_A_HEAD + _A_ROW.replace(",0,", ",1,", 1)]),
    ("row_outside", [_E_HEAD + "1.0,0.0,0.0,0,4,1,0.5,0.0,1.5,0.0\n"]),
    ("col_outside", [_E_HEAD + "1.0,0.0,0.0,0,1,0,0.5,0.0,1.5,0.0\n"]),
    ("incomplete_matrix", [_E_HEAD + _E_ROW]),
    ("mixed_kinds", [_A_HEAD + _A_ROW, _E_HEAD + _E_ROW]),
)


# options that the CLI rejects; each `forward` one runs with a model file
# and an output path
BAD_OPTIONS = (
    ["forward", "--depth", "-1"],
    ["forward", "--tau", "0"],
    ["forward", "--tau", "nan"],
    ["forward", "--grid", "nan"],
    ["forward", "--grid", "0,inf"],
    ["forward", "--grid", "a"],
    ["forward", "--grid", ","],
    ["forward", "--direction", "nan,1"],
    ["forward", "--direction", "1"],
    ["forward", "--direction", "0,0"],
    ["forward", "--tol", "glancing=-1"],
    ["forward", "--tol", "glancing=nan"],
    ["forward", "--tol", "residual=0"],
    ["forward", "--tol", "residual=abc"],
    ["forward", "--tol", "root=1e-12"],
    ["forward", "--jobs", "0"],
    ["roundtrip", "--depth", "-1"],
    ["roundtrip", "--grid-count", "0"],
    ["roundtrip", "--count", "0"],
    ["curvature-check", "--spectra", "1,1", "--step", "0"],
    ["curvature-check", "--spectra", "1,1", "--step", "1e-300"],
    ["curvature-check", "--spectra", "1,1", "--max-order", "-1"],
    ["curvature-check", "--spectra", "nan,1"],
    ["curvature-check", "--spectra", "1e400,1"],
    ["curvature-check", "--spectra", "1,1;nan"],
    ["curvature-check", "--spectra", ";"],
    ["curvature-check", "--spectra", "1,abc"],
    ["roundtrip", "--seed", "-1"],
    ["forward", "--grid", "1e300", "--tau", "1e300"],
)


def dump_bad_options(out):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        model, csv = root / "model.json", root / "x.csv"
        model.write_text(json.dumps(_ACOUSTIC))
        for argv in BAD_OPTIONS:
            if argv[0] == "forward":
                argv = argv[:1] + ["--model", str(model), "--out",
                                   str(csv)] + argv[1:]
            status = _cli(argv).replace(tmp, "<tmp>")
            out(f"bad option {argv[0]} {argv[-2:]}: {status} "
                f"wrote={csv.exists()}")
        for argv in (["forward", "--model", str(model)], ["bogus"],
                     ["forward", "--model", str(root / "missing.json"),
                      "--out", str(csv), "--grid", "a"]):
            status = _cli(argv).replace(tmp, "<tmp>")
            out(f"usage {argv[0]} {argv[-1].replace(tmp, '<tmp>')}: "
                f"{status}")


def dump_bad_input(out):
    with tempfile.TemporaryDirectory() as tmp:
        def status(argv):  # the directory as a token, the same on every run
            return _cli(argv).replace(tmp, "<tmp>")

        root = Path(tmp)
        model, csv, rec = (root / name
                           for name in ("model.json", "x.csv", "rec.json"))
        for name, doc in BAD_MODELS:
            model.write_text(json.dumps(doc))
            rc = status(["forward", "--model", str(model), "--out", str(csv)])
            out(f"forward bad model {name}: {rc} wrote={csv.exists()}")
        model.write_text(json.dumps(_ACOUSTIC))
        for name, texts in BAD_SYMBOLS:
            argv = ["invert", "--model", str(model), "--out", str(rec)]
            for i, text in enumerate(texts):
                path = root / f"sym{i}.csv"
                path.write_text(text)
                argv += ["--symbols", str(path)]
            out(f"invert bad symbols {name}: {status(argv)} "
                f"wrote={rec.exists()}")


def _order_minus2(forward, cov, model, tol):
    series = _attempt(forward, cov, model.minus, model.plus, model.geometry,
                      2, tol)
    return series if isinstance(series, str) else repr(series[2])


def _elastic_twin(model):
    """An elastic model with the acoustic `model`'s rho and cs jets, cp
    twice cs."""
    return InterfaceModel(*(ElasticSideJet(s.rho, s.cs, Jet(
        [2.0 * c for c in s.cs.coeffs])) for s in (model.minus, model.plus)),
        model.geometry)


def _band_covectors(speed, tol, directions):
    """The covectors within 8 ulps of each edge of `speed`'s glancing band
    at `tol`, along each of `directions`."""
    covs = []
    for dx, dy in directions:
        for edge in sorted({1.0 - tol, 1.0 + tol}):
            b = math.sqrt(edge) / speed
            for _ in range(8):
                b = math.nextafter(b, 0.0)
            for _ in range(17):
                covs.append(Covector(1.0, (b * dx, b * dy)))
                b = math.nextafter(b, math.inf)
    return covs


def dump_regime_boundary(out):
    # a model and two covectors that the acoustic engine called
    # hyperbolic, reading |xi'| as sqrt(q(0)), not Covector.xi_norm
    side = AcousticSideJet
    fixed = InterfaceModel(side(Jet([1.0, 0.2, -0.1]), Jet([1.0, 0.1, 0.05])),
                           side(Jet([1.5, 0.1, 0.2]), Jet([0.5, 0.1, -0.1])),
                           InterfaceGeometry(0.5, -0.5))
    repro = [Covector(1.0, (0.9999960795025631, 0.0027999963399347695)),
             Covector(1.0, (0.3846153844230769, 0.9230769226153847))]
    models = [fixed] + [random_acoustic_model(np.random.default_rng(seed), 2,
                                              curved=True) for seed in SEEDS]
    directions = [(x / math.hypot(x, y), y / math.hypot(x, y))
                  for x, y in ((1.0, 0.0), (5.0, 12.0), (0.6, 0.8),
                               (-3.0, 1.0))]
    for index, acoustic_model in enumerate(models):
        for kind, model, forward in (
                ("acoustic", acoustic_model, acoustic.forward_series),
                ("elastic", _elastic_twin(acoustic_model),
                 elastic.forward_series_elastic)):
            speeds = model.speeds()
            for tol in (GLANCING_TOL, 0.0):
                covs = repro if index == 0 else []
                for speed in speeds:
                    covs = covs + _band_covectors(speed, tol, directions)
                for cov in covs:
                    regimes = ",".join(classify_regime(cov, s, tol).value
                                       for s in speeds)
                    out(f"regime boundary {kind} model={index} tol={tol} "
                        f"{cov!r} [{regimes}]: "
                        f"{_order_minus2(forward, cov, model, tol)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--warm-one", action="store_true",
                        help="record each elastic tape class on its first "
                             "call (elastic._WARM = 1)")
    if parser.parse_args().warm_one:
        elastic._WARM = 1
    # every float of an array in full: the shortest repr that round-trips
    np.set_printoptions(floatmode="unique")
    for dump in (dump_forward, dump_groups, dump_elastic_groups,
                 dump_recovery, dump_order0, dump_principal,
                 dump_order0_stacks, dump_cli, dump_bad_input,
                 dump_bad_options, dump_interface_ladder, dump_order_runs,
                 dump_relative, dump_regime_boundary):
        dump(print)


if __name__ == "__main__":
    main()
