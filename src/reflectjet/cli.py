"""Batch command-line interface.

Subcommands: forward, invert, roundtrip, curvature-check.  Exit codes:
0 success (including regime-flagged forward rows), 2 I/O or parse
failure, 3 mathematical inconsistency (regime violations on required
data, failed solves, inconsistent samples).  Outputs are deterministic:
identical configuration and inputs give byte-identical files regardless
of parallelism, except for the wall-clock "timings" member of recovery
reports.

Verbosity is controlled by the REFLECTJET_LOG environment variable
(DEBUG/INFO/WARNING).  Each command imports only what it runs: numpy,
the elastic engine and the inversion load in the branches that use them.
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import os
import sys
from fractions import Fraction

from . import acoustic, medium, modelio, schemas
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

log = logging.getLogger("reflectjet.cli")

TOLERANCE_NAMES = ("glancing", "residual", "condition")


def _check(value, ok, text, rule):
    """`value`, or the error that argparse reports as "argument --NAME:
    'TEXT' RULE": each option is parsed and checked by its `type`."""
    if not ok:
        raise argparse.ArgumentTypeError(f"{text!r} {rule}")
    return value


def _number(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    return _check(value, math.isfinite(value), text, "is not a finite number")


def _at_least(least):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        return _check(value, value >= least, text,
                      f"is not an integer >= {least}")
    return parse


def _nonzero(text):
    value = _number(text)
    return _check(value, value != 0.0, text, "is zero")


def _step(text):
    """The oracle's step as the Fraction it runs on."""
    step = Fraction(_number(text)).limit_denominator(10 ** 9)
    return _check(step, step != 0, text,
                  "rounds to 0 at denominators <= 10**9")


def _grid(text):
    values = [_number(v) for v in text.split(",") if v.strip()]
    return _check(values, values, text, "has no slowness value")


def _direction(text):
    """The unit vector along 'dx,dy'."""
    values = [_number(v) for v in text.split(",")]
    norm = math.hypot(*values)
    _check(None, len(values) == 2 and norm != 0.0, text,
           "is not a nonzero 'dx,dy'")
    return values[0] / norm, values[1] / norm


def _spectra(text):
    spectra = [tuple(_number(v) for v in chunk.split(","))
               for chunk in text.split(";") if chunk.strip()]
    return _check(spectra, spectra, text, "has no 'k1,k2' chunk")


def _tol(text):
    """(NAME, VALUE): a zero glancing band is meaningful, a zero bound
    elsewhere is not."""
    name, _, value = text.partition("=")
    _check(None, name in TOLERANCE_NAMES, text,
           f"is not NAME=VALUE with NAME in {TOLERANCE_NAMES}")
    value, glancing = _number(value), name == "glancing"
    return _check((name, value), value >= 0.0 if glancing else value > 0.0,
                  text, f"must be {'>= 0' if glancing else '> 0'}")


def _grid_covectors(args, model):
    if args.grid is not None:
        b_values = args.grid
    else:
        import numpy as np

        b_crit = model.critical_slowness()
        b_values = list(np.linspace(0.0, 0.8 * b_crit, 8))
    dx, dy = args.direction
    covs = []
    for b in sorted(b_values):
        xi = (b * args.tau * dx, b * args.tau * dy)
        if not all(map(math.isfinite, xi)):
            raise ParseError(f"argument --grid: slowness {b:.6g} at --tau "
                             f"{args.tau:.6g} gives a covector that is not "
                             "finite")
        covs.append(medium.Covector(args.tau, xi))
    return covs


def _forward_one(payload):
    model, cov, depth, tol = payload
    try:
        if model.is_elastic:
            from . import elastic

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
        else:
            series = acoustic.forward_symbols(cov, model, depth, tol)
    except GlancingError:
        return "glancing"
    except EvanescentError:
        return "evanescent"
    # finite jets whose arithmetic overflows give NaN, never a row
    for j, r, t in series.orders:
        values = (*r.flat, *t.flat) if model.is_elastic else (r, t)
        if not all(map(cmath.isfinite, values)):
            raise ReflectJetError(
                f"symbol of order {j} at b={cov.slowness:.6g} is not finite")
    return series


def cmd_forward(args):
    model = modelio.load_model(args.model)
    depth = model.depth if args.depth is None else args.depth
    covs = _grid_covectors(args, model)
    glancing = dict(args.tol)["glancing"]
    payloads = [(model, cov, depth, glancing) for cov in covs]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

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
        if model.is_elastic:
            modelio.write_elastic_rows(fh, entries)
        else:
            modelio.write_acoustic_rows(fh, entries)
    log.info("wrote %d grid points to %s", len(entries), args.out)
    return 0


def _recover(kind, samples, minus, depth, geometry, tols):
    from . import inversion

    recover = (inversion.elastic_recover_jets if kind == "elastic"
               else inversion.acoustic_recover_jets)
    return recover(samples, minus, depth, geometry=geometry,
                   residual_tol=tols["residual"], cond_limit=tols["condition"],
                   glancing_tol=tols["glancing"])


def cmd_invert(args):
    minus, geometry = modelio.load_minus_side(args.model)
    samples, kind = modelio.read_symbol_csv(args.symbols, log=log)
    orders = samples.orders()
    depth = -min(orders) if args.depth is None else args.depth
    report = _recover(kind, samples, minus, depth,
                      geometry if args.known_geometry else None,
                      dict(args.tol))
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
    import numpy as np

    from . import inversion

    kind = "elastic" if model.is_elastic else "acoustic"
    forward = acoustic.forward_symbols
    if kind == "elastic":
        from . import elastic

        forward = elastic.forward_symbols_elastic
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
    import numpy as np

    from . import sampling

    tols = dict(args.tol)
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


def cmd_curvature_check(args):
    rows = []
    worst = 0.0
    for kappas in args.spectra:
        spec = CurvatureSpectrum(kappas)
        for order in range(args.max_order + 1):
            row = {"kappas": list(kappas), "order": order}
            formula = mean_curvature_normal_derivatives(spec, order)
            try:
                oracle = float(richardson_derivative(
                    lambda s: rational_curvature_profile(spec, s),
                    Fraction(0), order, args.step))
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


def _write_json(path, doc):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors as ParseError, which `main` reports in one line."""

    def error(self, message):
        raise ParseError(message)


def build_parser():
    # the defaults come first: a later --tol pair overrides an earlier one
    tol = dict(action="append", type=_tol, metavar="NAME=VALUE", default=[
        ("glancing", medium.GLANCING_TOL), ("residual", medium.RESIDUAL_TOL),
        ("condition", medium.CONDITION_LIMIT)])
    parser = _Parser(
        prog="reflectjet",
        description="Interface reflection/transmission symbol series and "
                    "jet recovery for acoustic and isotropic elastic waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="evaluate symbol series over a "
                                         "slowness grid, emit CSV")
    fwd.add_argument("--model", required=True)
    fwd.add_argument("--out", required=True)
    fwd.add_argument("--depth", type=_at_least(0), default=None,
                     help="symbol depth K (default: model depth)")
    fwd.add_argument("--grid", type=_grid, default=None,
                     help="comma-separated slowness values b = |xi'|/tau "
                          "(default: 8 values over [0, 0.8 b_crit])")
    fwd.add_argument("--tau", type=_nonzero, default=1.0)
    fwd.add_argument("--direction", type=_direction, default="1,0",
                     help="tangential direction dx,dy of the grid covectors")
    fwd.add_argument("--tol", **tol)
    fwd.add_argument("--jobs", type=_at_least(1), default=1)
    fwd.set_defaults(func=cmd_forward)

    inv = sub.add_parser("invert", help="recover plus-side jets from a "
                                        "symbol CSV")
    inv.add_argument("--model", required=True,
                     help="model JSON providing the minus side (and the "
                          "geometry when --known-geometry is set)")
    inv.add_argument("--symbols", required=True, action="append",
                     help="symbol CSV (repeatable; files are merged)")
    inv.add_argument("--out", required=True)
    inv.add_argument("--depth", type=_at_least(0), default=None,
                     help="recovery depth (default: deepest order present)")
    inv.add_argument("--known-geometry", action="store_true",
                     help="treat the model JSON's geometry as known instead "
                          "of recovering the curvatures")
    inv.add_argument("--tol", **tol)
    inv.set_defaults(func=cmd_invert)

    rt = sub.add_parser("roundtrip", help="forward then invert random models "
                                          "in-process, report jet errors")
    rt.add_argument("--model", default=None,
                    help="round-trip this model instead of random ones")
    rt.add_argument("--kind", choices=("acoustic", "elastic"),
                    default="acoustic")
    rt.add_argument("--depth", type=_at_least(0), default=2)
    rt.add_argument("--seed", type=_at_least(0), default=42)
    rt.add_argument("--count", type=_at_least(1), default=5)
    rt.add_argument("--grid-count", type=_at_least(1), default=8)
    rt.add_argument("--tau", type=_nonzero, default=1.0)
    rt.add_argument("--curved", action="store_true",
                    help="random curvatures; recover them in the inversion")
    rt.add_argument("--tol", **tol)
    rt.add_argument("--out", default="-")
    rt.set_defaults(func=cmd_roundtrip)

    cc = sub.add_parser("curvature-check",
                        help="mean-curvature derivative formulas vs the "
                             "parallel-surface finite-difference oracle")
    cc.add_argument("--spectra", type=_spectra, required=True,
                    help="semicolon-separated curvature pairs 'k1,k2;k1,k2'")
    cc.add_argument("--max-order", type=_at_least(0), default=4)
    cc.add_argument("--step", type=_step, default="1e-3")
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
    try:
        args = build_parser().parse_args(argv)
        _configure_logging()
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReflectJetError, ArithmeticError) as exc:
        # ArithmeticError: finite input whose arithmetic overflows or
        # divides by zero
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
