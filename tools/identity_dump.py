"""Print the deterministic outputs of a reflectjet tree, for `cmp`.

    PYTHONPATH=<tree>/src python tools/identity_dump.py > <tree>.dump
    cmp parent.dump change.dump

Byte-identical dumps of two trees show that a change left these outputs
bit for bit as they were:

* the `repr` of `acoustic.forward_series` (depths 0-4) and of
  `elastic.forward_series_elastic` (depths 0-2), for flat and curved
  random models, at slownesses from 0 to near glancing along three
  directions;
* the `repr` of recovery reports without `timings`, with the geometry
  known and recovered;
* the `repr` of `elastic_recover_order0` results, the order-0 `cp`
  scan among them, for several seeds, and for data whose P-P entry no
  `cp` matches (`NoRoot`);
* the bytes of `reflectjet forward` CSVs and of `reflectjet invert` JSON
  without `timings`, written in a temporary directory.

An exception is printed as its type and message, so it is compared too.
A dump takes about 15 s on one core.
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
from reflectjet.medium import Covector
from reflectjet.modelio import model_to_dict
from reflectjet.sampling import random_acoustic_model, random_elastic_model

FRACTIONS = (0.0, 0.3, 0.6, 0.9, 0.99, 0.999)  # of the critical slowness
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


def dump_forward(out):
    engines = ((acoustic.forward_series, random_acoustic_model, range(5)),
               (elastic.forward_series_elastic, random_elastic_model,
                range(3)))
    for forward, make, depths in engines:
        for label, model in _models(make, depths):
            depth = model.depth
            for cov in _covectors(model):
                series = _attempt(forward, cov, model.minus, model.plus,
                                  model.geometry, depth)
                out(f"{forward.__name__} {label} {cov!r}: {series!r}")


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
    for dump in (dump_forward, dump_recovery, dump_order0, dump_cli):
        dump(print)


if __name__ == "__main__":
    main()
