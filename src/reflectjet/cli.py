"""Batch command-line interface.

Subcommands: forward, invert, roundtrip, curvature-check.  Exit codes:
0 success (including regime-flagged forward rows), 2 I/O or parse
failure, 3 mathematical inconsistency (regime violations on required
data, failed solves, inconsistent samples).  Outputs are deterministic:
identical configuration and inputs give byte-identical files regardless
of parallelism, except for the wall-clock "timings" member of recovery
reports.

Verbosity is controlled by the REFLECTJET_LOG environment variable
(DEBUG/INFO/WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

from . import acoustic, elastic, inversion, modelio, sampling, schemas
from .errors import (
    EvanescentError,
    GlancingError,
    ParseError,
    ReflectJetError,
    RegimeError,
)
from .geometry import (
    CurvatureSpectrum,
    mean_curvature_normal_derivatives,
    rational_curvature_profile,
    richardson_derivative,
)
from .medium import GLANCING_TOL, Covector

log = logging.getLogger("reflectjet.cli")

TOLERANCE_NAMES = ("glancing", "residual", "condition", "root")


def _default_tols():
    return {
        "glancing": GLANCING_TOL,
        "residual": inversion.RESIDUAL_TOL,
        "condition": inversion.CONDITION_LIMIT,
        "root": inversion.ROOT_TOL,
    }


def _parse_tols(pairs):
    tols = _default_tols()
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if name not in tols or not value:
            raise ParseError(
                f"--tol expects NAME=VALUE with NAME in {TOLERANCE_NAMES}"
            )
        try:
            tols[name] = float(value)
        except ValueError:
            raise ParseError(f"--tol {pair}: value is not a number") from None
        # a zero glancing band is meaningful; a zero bound elsewhere is not
        in_range = tols[name] >= 0.0 if name == "glancing" else tols[name] > 0.0
        if not (math.isfinite(tols[name]) and in_range):
            raise ParseError(f"--tol {pair}: value must be finite and "
                             f"{'>= 0' if name == 'glancing' else '> 0'}")
    return tols


def _parse_grid(spec_text):
    try:
        values = [float(v) for v in spec_text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"--grid {spec_text!r}: values must be numbers") from None
    if not values:
        raise ParseError("--grid needs at least one slowness value")
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"--grid {spec_text!r}: values must be finite")
    return values


def _parse_direction(text):
    try:
        dx, dy = (float(v) for v in text.split(","))
    except ValueError:
        raise ParseError("--direction expects 'dx,dy'") from None
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise ParseError("--direction components must be finite")
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ParseError("--direction must be nonzero")
    return dx / norm, dy / norm


def _grid_covectors(args, model):
    if args.grid is not None:
        b_values = _parse_grid(args.grid)
    else:
        b_crit = model.critical_slowness()
        b_values = list(np.linspace(0.0, 0.8 * b_crit, 8))
    direction = _parse_direction(args.direction)
    return [Covector(args.tau, (b * args.tau * direction[0],
                                b * args.tau * direction[1]))
            for b in sorted(b_values)]


def _forward_one(payload):
    model_dict, tau, xi, depth, tol, kind = payload
    model = modelio.model_from_dict(model_dict)
    cov = Covector(tau, tuple(xi))
    try:
        if kind == "elastic":
            series = elastic.forward_symbols_elastic(cov, model, depth, tol)
            # in-run cross-check: the SH entry of the 6x6 solve against
            # its independent closed form
            closed = elastic.sh_reflection(cov, model.minus, model.plus, tol)
            gap = abs(series.orders[0][1][2, 2] - closed)
            if gap > 1e-10:
                raise ReflectJetError(
                    f"SH reflection cross-check failed (gap {gap:.3e}) at "
                    f"b={cov.slowness:.6g}"
                )
            return series
        return acoustic.forward_symbols(cov, model, depth, tol)
    except GlancingError:
        return "glancing"
    except EvanescentError:
        return "evanescent"


def cmd_forward(args):
    tols = _parse_tols(args.tol)
    model = modelio.load_model(args.model)
    depth = model.depth if args.depth is None else args.depth
    covs = _grid_covectors(args, model)
    kind = "elastic" if model.is_elastic else "acoustic"
    payloads = [(modelio.model_to_dict(model), cov.tau, cov.xi, depth,
                 tols["glancing"], kind) for cov in covs]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_forward_one, payloads))
    else:
        results = [_forward_one(p) for p in payloads]
    entries = []
    for cov, result in zip(covs, results):
        if isinstance(result, str):
            entries.append((cov, None, result))
        else:
            entries.append((cov, result, None))
    with open(args.out, "w") as fh:
        if kind == "elastic":
            modelio.write_elastic_rows(fh, entries)
        else:
            modelio.write_acoustic_rows(fh, entries)
    log.info("wrote %d grid points to %s", len(entries), args.out)
    return 0


def _recover(kind, samples, minus, depth, geometry, tols):
    recover = (inversion.elastic_recover_jets if kind == "elastic"
               else inversion.acoustic_recover_jets)
    return recover(samples, minus, depth, geometry=geometry,
                   residual_tol=tols["residual"], cond_limit=tols["condition"],
                   glancing_tol=tols["glancing"])


def cmd_invert(args):
    tols = _parse_tols(args.tol)
    minus, geometry = modelio.load_minus_side(args.model)
    samples, kind = modelio.read_symbol_csv(args.symbols, log=log)
    orders = samples.orders()
    depth = -min(orders) if args.depth is None else args.depth
    report = _recover(kind, samples, minus, depth,
                      geometry if args.known_geometry else None, tols)
    doc = report.to_dict()
    doc["kind"] = kind
    doc["depth"] = depth
    schemas.validate(doc, "recovery_report")
    _write_json(args.out, doc)
    return 0


def _relative_jet_errors(recovered, truth):
    out = {}
    for name in ("rho", "cs", "cp"):
        if not hasattr(truth, name):
            continue
        rec = getattr(recovered, name).coeffs
        tru = getattr(truth, name).coeffs
        for k, (r, t) in enumerate(zip(rec, tru)):
            err = abs(r - t) / max(abs(t), 1e-12)
            out[-k] = max(out.get(-k, 0.0), err)
    return out


def _roundtrip_one(model, depth, covs, tols, recover_geometry):
    kind = "elastic" if model.is_elastic else "acoustic"
    forward = (elastic.forward_symbols_elastic if kind == "elastic"
               else acoustic.forward_symbols)
    series = [forward(c, model, depth, tols["glancing"]) for c in covs]
    samples = inversion.SymbolSamples.from_acoustic_series(series)
    report = _recover(kind, samples, model.minus, depth,
                      None if recover_geometry else model.geometry, tols)
    errors = _relative_jet_errors(report.plus, model.plus)
    kappa_err = None
    if recover_geometry and report.kappas is not None:
        true_k = sorted((model.geometry.kappa1, model.geometry.kappa2))
        rec_k = sorted(report.kappas)
        kappa_err = max(abs(a - b) for a, b in zip(rec_k, true_k))
    # the recovered plus side must also reproduce the measured
    # transmission symbols
    recovered_model = type(model)(model.minus, report.plus, model.geometry)
    t_err = 0.0
    for cov, truth in zip(covs, series):
        redo = forward(cov, recovered_model, depth, tols["glancing"])
        for (_, _, t_true), (_, _, t_rec) in zip(truth.orders, redo.orders):
            t_err = max(t_err, float(np.max(np.abs(np.asarray(t_rec)
                                                   - np.asarray(t_true)))))
    return errors, kappa_err, t_err


def cmd_roundtrip(args):
    tols = _parse_tols(args.tol)
    rng = np.random.default_rng(args.seed)
    per_model = []
    order_max = {}
    kappa_max = 0.0
    t_max = 0.0
    grid_points = 0
    fixed = modelio.load_model(args.model) if args.model else None
    count = 1 if fixed is not None else args.count
    for index in range(count):
        if fixed is not None:
            model = fixed
        elif args.kind == "elastic":
            model = sampling.random_elastic_model(rng, args.depth,
                                                  curved=args.curved)
        else:
            model = sampling.random_acoustic_model(rng, args.depth,
                                                   curved=args.curved)
        covs = sampling.hyperbolic_grid(model, args.grid_count,
                                        tau=args.tau)
        if args.curved:
            covs += sampling.cross_grid(model, args.grid_count, tau=args.tau)
        grid_points = len(covs)
        depth = model.depth if fixed is not None else args.depth
        errors, kappa_err, t_err = _roundtrip_one(model, depth, covs,
                                                  tols, args.curved)
        for order, err in errors.items():
            order_max[order] = max(order_max.get(order, 0.0), err)
        if kappa_err is not None:
            kappa_max = max(kappa_max, kappa_err)
        t_max = max(t_max, t_err)
        per_model.append({"model": index,
                          "errors": {str(k): v for k, v in errors.items()},
                          **({"kappa_error": kappa_err}
                             if kappa_err is not None else {})})
    doc = {
        "kind": ("elastic" if fixed.is_elastic else "acoustic")
                if fixed is not None else args.kind,
        "depth": fixed.depth if fixed is not None else args.depth,
        "seed": args.seed,
        "curved": args.curved,
        "models": count,
        "grid_points": grid_points,
        "max_relative_jet_error_per_order":
            {str(k): v for k, v in sorted(order_max.items(), reverse=True)},
        "max_transmission_error": t_max,
        "per_model": per_model,
    }
    if args.curved:
        doc["max_kappa_error"] = kappa_max
    schemas.validate(doc, "roundtrip_report")
    _write_json(args.out, doc)
    return 0


def _parse_spectra(text):
    spectra = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            kappas = tuple(float(v) for v in chunk.split(","))
        except ValueError:
            raise ParseError(
                f"--spectra chunk {chunk!r}: values must be numbers"
            ) from None
        if not kappas:
            raise ParseError("--spectra chunk is empty")
        spectra.append(kappas)
    if not spectra:
        raise ParseError("--spectra needs at least one 'k1,k2' chunk")
    return spectra


def cmd_curvature_check(args):
    rows = []
    worst = 0.0
    step = Fraction(args.step).limit_denominator(10 ** 9)
    for kappas in _parse_spectra(args.spectra):
        spec = CurvatureSpectrum(kappas)
        for order in range(args.max_order + 1):
            row = {"kappas": list(kappas), "order": order}
            formula = mean_curvature_normal_derivatives(spec, order)
            try:
                oracle = float(richardson_derivative(
                    lambda s: rational_curvature_profile(spec, s),
                    Fraction(0), order, step))
            except ReflectJetError as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                rows.append(row)
                continue
            err = abs(formula - oracle) / max(abs(formula), 1.0)
            worst = max(worst, err)
            row.update(formula=formula, oracle=oracle, relative_error=err)
            rows.append(row)
    doc = {"rows": rows, "max_relative_error": worst}
    schemas.validate(doc, "curvature_report")
    _write_json(args.out, doc)
    return 0


def _check_numbers(args):
    """Reject the numeric options of `args` that no command can use,
    before any work."""
    depth = getattr(args, "depth", None)
    if depth is not None and depth < 0:
        raise ParseError(f"--depth {depth}: must be >= 0")
    for name in ("tau", "step"):
        value = getattr(args, name, 1.0)
        if not math.isfinite(value) or value == 0.0:
            raise ParseError(f"--{name} {value}: must be finite and nonzero")


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reflectjet",
        description="Interface reflection/transmission symbol series and "
                    "jet recovery for acoustic and isotropic elastic waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="evaluate symbol series over a "
                                         "slowness grid, emit CSV")
    fwd.add_argument("--model", required=True)
    fwd.add_argument("--out", required=True)
    fwd.add_argument("--depth", type=int, default=None,
                     help="symbol depth K (default: model depth)")
    fwd.add_argument("--grid", default=None,
                     help="comma-separated slowness values b = |xi'|/tau "
                          "(default: 8 values over [0, 0.8 b_crit])")
    fwd.add_argument("--tau", type=float, default=1.0)
    fwd.add_argument("--direction", default="1,0",
                     help="tangential direction dx,dy of the grid covectors")
    fwd.add_argument("--tol", action="append", metavar="NAME=VALUE")
    fwd.add_argument("--jobs", type=int, default=1)
    fwd.set_defaults(func=cmd_forward)

    inv = sub.add_parser("invert", help="recover plus-side jets from a "
                                        "symbol CSV")
    inv.add_argument("--model", required=True,
                     help="model JSON providing the minus side (and the "
                          "geometry when --known-geometry is set)")
    inv.add_argument("--symbols", required=True, action="append",
                     help="symbol CSV (repeatable; files are merged)")
    inv.add_argument("--out", required=True)
    inv.add_argument("--depth", type=int, default=None,
                     help="recovery depth (default: deepest order present)")
    inv.add_argument("--known-geometry", action="store_true",
                     help="treat the model JSON's geometry as known instead "
                          "of recovering the curvatures")
    inv.add_argument("--tol", action="append", metavar="NAME=VALUE")
    inv.set_defaults(func=cmd_invert)

    rt = sub.add_parser("roundtrip", help="forward then invert random models "
                                          "in-process, report jet errors")
    rt.add_argument("--model", default=None,
                    help="round-trip this model instead of random ones")
    rt.add_argument("--kind", choices=("acoustic", "elastic"),
                    default="acoustic")
    rt.add_argument("--depth", type=int, default=2)
    rt.add_argument("--seed", type=int, default=42)
    rt.add_argument("--count", type=int, default=5)
    rt.add_argument("--grid-count", type=int, default=8)
    rt.add_argument("--tau", type=float, default=1.0)
    rt.add_argument("--curved", action="store_true",
                    help="random curvatures; recover them in the inversion")
    rt.add_argument("--tol", action="append", metavar="NAME=VALUE")
    rt.add_argument("--out", default="-")
    rt.set_defaults(func=cmd_roundtrip)

    cc = sub.add_parser("curvature-check",
                        help="mean-curvature derivative formulas vs the "
                             "parallel-surface finite-difference oracle")
    cc.add_argument("--spectra", required=True,
                    help="semicolon-separated curvature pairs 'k1,k2;k1,k2'")
    cc.add_argument("--max-order", type=int, default=4)
    cc.add_argument("--step", type=float, default=1e-3)
    cc.add_argument("--out", default="-")
    cc.set_defaults(func=cmd_curvature_check)
    return parser


def _configure_logging():
    """Solver logging to stderr at the REFLECTJET_LOG level, if set."""
    level = os.environ.get("REFLECTJET_LOG")
    if not level:
        return
    try:
        logging.getLogger("reflectjet").setLevel(level.upper())
    except ValueError:
        raise ParseError(
            f"REFLECTJET_LOG={level!r} is not a logging level") from None
    logging.basicConfig()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        _check_numbers(args)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReflectJetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
