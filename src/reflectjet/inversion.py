"""Reconstruction of the plus-side jets and interface curvature from
sampled reflection symbols.

Order 0 is closed form.  Every lower order exploits the exact affine
dependence of the order -k symbol on the top (k-th) derivative values
(and, at order -1, on the principal curvatures): the measured symbol
minus a forward run with those unknowns zeroed is linear in them, with
coefficients obtained by differencing unit-perturbation runs of the same
engine.  This avoids re-deriving any remainder closed forms; forward and
inverse share one truth.

Curvature identifiability: the mean curvature alone is invisible in the
scalar reflection data (scaling rho and mu by exp of its integral along
the normal converts a curved model into a flat one with identical
interface symbols), so the curvatures are pinned through the metric-
stretch signature of the vertical-wavenumber jet, which couples each
principal curvature to the covector component along its axis.
Recovering (kappa1, kappa2) therefore needs samples in at least two
tangential directions; the design-matrix condition number is always
reported rather than identifiability assumed.

With more samples than unknowns every solve is least squares and the
relative residual is reported; on noise-free data it sits at round-off,
on inconsistent data it trips `InconsistentData`.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import acoustic
from .errors import (
    AmbiguousRoot,
    DegenerateAngles,
    DepthExceeded,
    IllConditioned,
    InconsistentData,
    MissingOrder,
    NoRoot,
)
from .jets import Jet
from .medium import (  # the tolerances are re-exported
    CONDITION_LIMIT,
    GLANCING_TOL,
    RESIDUAL_TOL,
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    side_to_dict,
)

log = logging.getLogger("reflectjet.inversion")

ROOT_TOL = 1e-12  # xtol of the bracketed root refinement
_ROOT_SCAN_POINTS = 96


@dataclass(frozen=True)
class SymbolSample:
    """One measured symbol value: covector, order J <= 0, value.

    `value` is a complex scalar for acoustic data and a 3x3 complex
    matrix (mode-coefficient basis) for elastic data.
    """

    covector: Covector
    order: int
    value: object

    @property
    def slowness(self) -> float:
        return self.covector.slowness


class SymbolSamples:
    """Reflection-symbol samples at one interface point."""

    def __init__(self, samples):
        self.samples = tuple(samples)
        self._by_order = {}
        for s in self.samples:
            self._by_order.setdefault(s.order, []).append(s)
        for group in self._by_order.values():
            group.sort(key=lambda s: (abs(s.slowness), s.covector.xi))

    def orders(self):
        return sorted(self._by_order, reverse=True)

    def at_order(self, order: int):
        try:
            return self._by_order[order]
        except KeyError:
            raise MissingOrder(f"no samples at symbol order {order}") from None

    def require_orders(self, depth: int):
        for k in range(depth + 1):
            if -k not in self._by_order:
                raise MissingOrder(
                    f"samples missing order {-k} (depth {depth} requested)"
                )

    @staticmethod
    def from_acoustic_series(series_list):
        """Reflection samples from forward acoustic or elastic series runs."""
        out = []
        for series in series_list:
            for j, r, _ in series.orders:
                out.append(SymbolSample(series.covector, j, r))
        return SymbolSamples(out)

    from_elastic_series = from_acoustic_series


@dataclass(frozen=True)
class RecoveryReport:
    """Recovered plus side with per-order solve diagnostics."""

    plus: object
    mean_curvature: float | None = None
    mean_curvature_derivative: float | None = None
    kappas: tuple | None = None
    residuals: dict = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "residuals": {str(k): v for k, v in self.residuals.items()},
            "conditions": {str(k): v for k, v in self.conditions.items()},
            "timings": {str(k): v for k, v in self.timings.items()},
        }
        out["plus"] = side_to_dict(self.plus)
        if self.mean_curvature is not None:
            out["mean_curvature"] = self.mean_curvature
        if self.mean_curvature_derivative is not None:
            out["mean_curvature_derivative"] = self.mean_curvature_derivative
        if self.kappas is not None:
            out["kappas"] = list(self.kappas)
        return out


# --- sample-set diagnostics --------------------------------------------------


def _distinct_abs(values, rtol=1e-12):
    out = []
    for v in sorted(abs(v) for v in values):
        if not out or v - out[-1] > rtol * max(1.0, out[-1]):
            out.append(v)
    return out


def _distinct_directions(covs, tol=1e-9):
    dirs = []
    for cov in covs:
        n = cov.xi_norm
        if n <= tol:
            continue
        d = (cov.xi[0] / n, cov.xi[1] / n)
        if not any(abs(d[0] * e[1] - d[1] * e[0]) <= tol for e in dirs):
            dirs.append(d)
    return len(dirs)


def _as_samples(samples) -> SymbolSamples:
    if isinstance(samples, SymbolSamples):
        return samples
    return SymbolSamples(samples)


# --- order-0 closed form -----------------------------------------------------


def _order0_fit(b_values, reflections, mu_minus, cs_minus, residual_tol):
    """Least-squares fit of A - B b^2 = q^2 with q = L mu- xi3I / tau.

    Returns (cs_plus, rho_plus, mu_plus, residual, condition).
    """
    if len(_distinct_abs(b_values)) < 2:
        raise DegenerateAngles(
            "order-0 recovery needs two samples with b1 != +-b2"
        )
    rows, rhs = [], []
    for b, r in zip(b_values, reflections):
        r = float(np.real(r))
        if not abs(r) < 1.0:
            raise InconsistentData(
                f"order-0 reflection |R| = {abs(r):.6g} >= 1 is outside the "
                "hyperbolic regime"
            )
        lam = (1.0 - r) / (1.0 + r)
        radicand = 1.0 / cs_minus ** 2 - b * b
        if radicand <= 0.0:
            raise InconsistentData(
                f"sample slowness b={b:.6g} is post-critical for the minus side"
            )
        q = lam * mu_minus * math.sqrt(radicand)
        rows.append([1.0, -b * b])
        rhs.append(q * q)
    a = np.asarray(rows)
    y = np.asarray(rhs)
    sol, _, _, sv = np.linalg.lstsq(a, y, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    resid = float(np.linalg.norm(a @ sol - y))
    scale = max(float(np.linalg.norm(y)), 1e-300)
    big_a, big_b = float(sol[0]), float(sol[1])
    if big_b <= 0.0 or big_a <= 0.0:
        raise InconsistentData(
            "order-0 fit produced a non-physical impedance"
        )
    if not resid <= residual_tol * scale:
        raise InconsistentData(
            f"order-0 samples disagree (relative residual {resid/scale:.3e})"
        )
    mu_plus = math.sqrt(big_b)
    cs_plus = math.sqrt(big_b / big_a)
    rho_plus = mu_plus / cs_plus ** 2
    b_max = max(abs(b) for b in b_values)
    if 1.0 / cs_plus <= b_max:
        raise InconsistentData(
            "recovered plus-side speed is post-critical for the sample grid"
        )
    return cs_plus, rho_plus, mu_plus, resid / scale, cond


def _acoustic_order0(samples: SymbolSamples, minus: AcousticSideJet,
                     residual_tol: float):
    """((cs_plus, rho_plus), residual, condition) from order-0 samples."""
    group = samples.at_order(0)
    mu_minus = minus.rho[0] * minus.cs[0] ** 2
    cs_plus, rho_plus, _, res, cond = _order0_fit(
        [s.slowness for s in group],
        [s.value for s in group],
        mu_minus, minus.cs[0], residual_tol,
    )
    return (cs_plus, rho_plus), res, cond


def acoustic_recover_order0(samples, minus: AcousticSideJet,
                            residual_tol: float = RESIDUAL_TOL):
    """(cs_plus, rho_plus) at the interface from order-0 samples."""
    values, _, _ = _acoustic_order0(_as_samples(samples), minus, residual_tol)
    return values


def _scan_roots(func, lo, hi, scan=None):
    """Roots of `func` on [lo, hi], as floats: sign changes over a uniform
    grid, refined by bracketed root finding; exact zeros on the grid,
    its ends included, count.
    `scan(grid)`, if given, evaluates `func` on the whole grid at once."""
    from scipy.optimize import brentq

    grid = np.linspace(lo, hi, _ROOT_SCAN_POINTS)
    values = scan(grid) if scan is not None else [func(x) for x in grid]
    roots = []
    for i, x in enumerate(grid.tolist()):
        if values[i] == 0.0:
            roots.append(x)
        elif i + 1 < len(grid) and values[i] * values[i + 1] < 0.0:
            roots.append(brentq(func, x, grid[i + 1], xtol=ROOT_TOL))
    return roots


# --- linearized per-order solves ---------------------------------------------


# the least-squares residual that is round-off of the forward runs, in
# machine epsilons of the norm of the measured data
_ROUNDOFF_FLOOR = 1e3


@np.errstate(over="raise")  # an overflow raises, where numpy would warn
def _lstsq_real(design_cols, measured, base, order, cond_limit, residual_tol):
    """Real least squares over stacked (Re, Im) rows of a complex system.

    Columns are normalized before solving so the reported condition
    number measures identifiability rather than unit choices.  The
    right-hand side is `measured - base`; at deep orders it is a small
    difference of two much larger symbols, so the residual may reach
    the round-off of those symbols, _ROUNDOFF_FLOOR * eps * the norm of
    the measured data, beyond `residual_tol` times its own norm.  The
    reported residual stays relative to the right-hand side.
    """
    floor = _ROUNDOFF_FLOOR * np.finfo(float).eps * np.linalg.norm(measured)
    a = np.column_stack([np.concatenate([c.real, c.imag]) for c in design_cols])
    y_complex = measured - base
    y = np.concatenate([y_complex.real, y_complex.imag])
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise IllConditioned(
            f"design matrix at order {order} has an identically zero column",
            order=order, condition=math.inf,
        )
    sol, _, _, sv = np.linalg.lstsq(a / norms, y, rcond=None)
    sol = sol / norms
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditioned(
            f"design matrix at order {order} has condition {cond:.3e}",
            order=order, condition=cond,
        )
    resid = float(np.linalg.norm(a @ sol - y))
    scale = max(float(np.linalg.norm(y)), 1e-300)
    if not resid <= residual_tol * scale + floor:
        raise InconsistentData(
            f"samples at order {order} disagree "
            f"(relative residual {resid/scale:.3e})"
        )
    return sol, resid / scale, cond


def _recover_jets(samples, minus, depth, geometry, side_type, fields,
                  order0, run, residual_tol, cond_limit) -> RecoveryReport:
    """The per-order recovery shared by acoustic and elastic data.

    `fields` names the unknown side-jet fields in design-column order;
    `order0(samples)` returns their interface values in that order with
    the order-0 residual and condition.  Order -k solves for the k-th
    derivative of every field, and with `geometry=None` order -1 also
    solves for the principal curvatures, against `run(cov, geometry, k,
    deepest, pluses)`: the depth-k series at one covector of the base
    run and the unit perturbations of the design columns.  `deepest` is
    the deepest order `geometry` serves.  Both engines run `pluses` as
    one group on one minus side; the acoustic engine builds it once per
    (covector, geometry) at that depth, the elastic engine once per
    covector and order, as its check scales read every coefficient.
    """
    samples = _as_samples(samples)
    samples.require_orders(depth)
    if minus.depth < depth:
        raise DepthExceeded(
            f"recovery depth {depth} exceeds minus-side depth {minus.depth}")
    n = len(fields)
    # a non-finite or degenerate sample set is rejected before any engine
    # work
    for k in range(depth + 1):
        if not all(np.isfinite(s.value).all() for s in samples.at_order(-k)):
            raise InconsistentData(f"a sample at order {-k} is not finite")
    for k in range(1, depth + 1):
        group = samples.at_order(-k)
        recover_here = geometry is None and k == 1
        need = min(n + 2 if recover_here else n, 3)
        if len(_distinct_abs([s.slowness for s in group])) < need:
            raise DegenerateAngles(
                f"order {-k} needs >= {need} distinct |b| samples"
            )
        if recover_here and _distinct_directions(
                [s.covector for s in group]) < 2:
            raise DegenerateAngles(
                "curvature recovery needs samples in two tangential "
                "directions (the mean curvature alone is gauge-equivalent "
                "to a density gradient)"
            )

    t0 = time.perf_counter()
    values0, res0, cond0 = order0(samples)
    residuals, conditions = {0: res0}, {0: cond0}
    timings = {0: time.perf_counter() - t0}

    coeffs = [[v] for v in values0]
    zeros = (0.0,) * n
    geom = geometry  # None until recovered
    recovered_kappas = None

    for k in range(1, depth + 1):
        t_start = time.perf_counter()
        group = samples.at_order(-k)
        covs = [s.covector for s in group]
        measured = np.concatenate(
            [np.asarray(s.value, dtype=complex).ravel() for s in group])
        recover_here = geometry is None and k == 1
        deepest = 1 if recover_here else depth

        def plus_side(tops):
            return side_type(**{name: Jet(c + [top])
                                for name, c, top in zip(fields, coeffs, tops)})

        # (geometry, plus sides) of the base run and of each design
        # column: a unit top coefficient per field, then the curvatures.
        pluses = [plus_side(zeros)] + [
            plus_side(tuple(float(i == j) for j in range(n)))
            for i in range(n)]
        runs = [(geom if geom is not None else InterfaceGeometry(), pluses)]
        if recover_here:
            runs += [(InterfaceGeometry(1.0, 0.0), pluses[:1]),
                     (InterfaceGeometry(0.0, 1.0), pluses[:1])]
        per_cov = []
        for cov in covs:
            row = []
            for gm, sides in runs:
                row += [np.asarray(series[k][0]).ravel()
                        for series in run(cov, gm, k, deepest, sides)]
            per_cov.append(row)
        base, *others = (np.concatenate(col) for col in zip(*per_cov))
        cols = [other - base for other in others]
        sol, res, cond = _lstsq_real(cols, measured, base, -k, cond_limit,
                                     residual_tol)
        for c, value in zip(coeffs, sol):
            c.append(float(value))
        if recover_here:
            recovered_kappas = (float(sol[n]), float(sol[n + 1]))
            geom = InterfaceGeometry(*recovered_kappas)
        residuals[-k], conditions[-k] = res, cond
        timings[-k] = time.perf_counter() - t_start
        log.debug("order %d solved: residual %.3e cond %.3e", -k, res, cond)

    plus = side_type(**{name: Jet(c) for name, c in zip(fields, coeffs)})
    mean_h = d_h = None
    if recovered_kappas is not None:
        k1, k2 = recovered_kappas
        mean_h = k1 + k2
        d_h = -(k1 * k1 + k2 * k2)
    return RecoveryReport(plus=plus, mean_curvature=mean_h,
                          mean_curvature_derivative=d_h,
                          kappas=recovered_kappas,
                          residuals=residuals, conditions=conditions,
                          timings=timings)


def acoustic_recover_jets(samples, minus: AcousticSideJet, depth: int,
                          geometry=None,
                          residual_tol: float = RESIDUAL_TOL,
                          cond_limit: float = CONDITION_LIMIT,
                          glancing_tol: float = GLANCING_TOL) -> RecoveryReport:
    """Plus-side (rho, cs) jets to `depth`, plus interface curvature.

    Requires samples at every order 0..-depth.  If `geometry` (an
    InterfaceGeometry) is supplied it is treated as known; with
    `geometry=None` the principal curvatures join the order -1 solve as
    two extra unknowns, which needs samples in at least two tangential
    directions (see the module note on identifiability).
    """
    minus_sides = {}  # (covector, geometry, deepest) -> minus side

    def run(cov, gm, k, deepest, pluses):
        ms = (minus_sides.pop((cov, gm, deepest), None)
              or acoustic._minus_side(cov, minus, gm, deepest, glancing_tol))
        if k < deepest:  # kept only while a later order needs it
            minus_sides[cov, gm, deepest] = ms
        return acoustic._group(ms, k, pluses)

    return _recover_jets(samples, minus, depth, geometry, AcousticSideJet,
                         ("cs", "rho"),
                         lambda s: _acoustic_order0(s, minus, residual_tol),
                         run, residual_tol, cond_limit)


# --- relative-amplitude mode -------------------------------------------------


def acoustic_recover_relative(ratios, minus: AcousticSideJet,
                              reference: Covector,
                              residual_tol: float = 1e-6):
    """(mu_plus, cs_plus) from order-0 reflection ratios R(b)/R(b_ref).

    `ratios` is a list of order-0 SymbolSample whose values are the
    normalized reflections; the reference covector's own ratio (1) need
    not be included.  The nonlinear consistency equation is solved for
    cs_plus by bracketed root finding over the slowness-compatible speed
    range; every consistent root is validated against all samples and
    multiple survivors raise AmbiguousRoot carrying them all.
    """
    samples = [s for s in _as_samples(ratios).at_order(0)
               if abs(s.slowness - reference.slowness) > 1e-12]
    if len(samples) < 2:
        raise DegenerateAngles(
            "relative-amplitude recovery needs >= 2 non-reference samples"
        )
    b_ref = reference.slowness
    mu_minus = minus.rho[0] * minus.cs[0] ** 2
    inv_cm2 = 1.0 / minus.cs[0] ** 2
    b_all = [b_ref] + [s.slowness for s in samples]
    b_max = max(abs(b) for b in b_all)
    ratios_v = [float(np.real(s.value)) for s in samples]
    if all(abs(r - 1.0) <= 1e-12 for r in ratios_v):
        raise AmbiguousRoot(
            "ratios identically 1: transparent interface leaves (mu+, cs+) "
            "undetermined", roots=(),
        )

    def xi_minus(b):
        return math.sqrt(inv_cm2 - b * b)

    def mu_estimate(i, w):
        """mu+ candidate from sample i at trial plus-side slowness w = 1/c+."""
        b = samples[i].slowness
        f = xi_minus(b) / math.sqrt(w * w - b * b)
        f_ref = xi_minus(b_ref) / math.sqrt(w * w - b_ref * b_ref)
        lam = (ratios_v[i] - 1.0) / (ratios_v[i] + 1.0)
        if lam == 0.0:
            return None
        alpha = mu_minus * (f - f_ref)
        beta = mu_minus ** 2 * f * f_ref
        disc = alpha * alpha + 4.0 * lam * lam * beta
        root = math.sqrt(disc)
        # exactly one positive root: the product of the pair is -beta < 0
        c1 = (-alpha + root) / (2.0 * lam)
        return c1 if c1 > 0 else (-alpha - root) / (2.0 * lam)

    def mismatch(w):
        m0 = mu_estimate(0, w)
        m1 = mu_estimate(1, w)
        if m0 is None or m1 is None:
            return 0.0
        return m0 - m1

    w_lo = b_max * (1.0 + 1e-9) + 1e-12
    w_hi = max(10.0 / minus.cs[0], 10.0 * b_max)
    if w_hi <= w_lo:
        raise NoRoot("empty slowness bracket for the plus-side speed")
    roots = _scan_roots(mismatch, w_lo * (1 + 1e-9), w_hi)

    def ratio_misfit(mu_p, w):
        """Worst reproduction error of the measured ratios; the trivial
        transparent root solves the quadratic formally but fails here."""
        def refl(b):
            zi = mu_minus * xi_minus(b)
            zt = mu_p * math.sqrt(w * w - b * b)
            return (zi - zt) / (zi + zt)

        r_ref = refl(b_ref)
        if abs(r_ref) <= 1e-300:
            return math.inf
        return max(abs(refl(s.slowness) / r_ref - rv)
                   for s, rv in zip(samples, ratios_v))

    consistent = []
    for w in roots:
        mus = [mu_estimate(i, w) for i in range(len(samples))]
        mus = [m for m in mus if m is not None]
        if not mus:
            continue
        spread = max(mus) - min(mus)
        mu_p = float(np.mean(mus))
        if spread <= residual_tol * max(abs(max(mus)), 1.0) \
                and ratio_misfit(mu_p, w) <= residual_tol * max(
                    1.0, max(abs(r) for r in ratios_v)):
            consistent.append((mu_p, 1.0 / w))
    # collapse near-identical roots found from adjacent grid cells
    unique = []
    for mu_p, cs_p in consistent:
        if not any(abs(cs_p - c) <= 1e-9 * max(1.0, abs(c))
                   for _, c in unique):
            unique.append((mu_p, cs_p))
    if not unique:
        raise NoRoot("no consistent plus-side speed in the bracket")
    if len(unique) > 1:
        raise AmbiguousRoot(
            f"{len(unique)} plus-side parameter sets are consistent with the "
            "relative amplitudes", roots=tuple(unique),
        )
    return unique[0]


# --- elastic recovery --------------------------------------------------------


def elastic_recover_order0(samples, minus: ElasticSideJet,
                           residual_tol: float = RESIDUAL_TOL,
                           glancing_tol: float = GLANCING_TOL):
    """(rho_plus, cs_plus, cp_plus, residual, condition) at the interface
    from order-0 matrices.

    (rho, cs) come from the SH entry r33 alone via the acoustic-style
    closed form; cp follows by bracketed root finding on the P-P entry
    of the 6x6 solve, confirmed by least squares over all entries.
    `residual` is the misfit of all nine entries relative to the summed
    norms of the measured matrices; `condition` is that of the r33 fit.
    """
    # imported here, so that acoustic recovery does not load the elastic
    # engine
    from . import elastic

    samples = _as_samples(samples)
    group = samples.at_order(0)
    b_values = [s.slowness for s in group]
    r33 = [complex(np.asarray(s.value)[2, 2]).real for s in group]
    mu_minus = minus.rho[0] * minus.cs[0] ** 2
    cs_plus, rho_plus, _, _, cond = _order0_fit(
        b_values, r33, mu_minus, minus.cs[0], residual_tol,
    )

    b_max = max(abs(b) for b in b_values)
    cp_lo = math.sqrt(4.0 / 3.0) * cs_plus * (1.0 + 1e-9)
    cp_hi = (1.0 - 1e-9) / b_max if b_max > 0 else 100.0 * cs_plus
    if cp_hi <= cp_lo:
        raise NoRoot(
            "no admissible plus-side compressional speed: the sample grid "
            "is post-critical for every convex cp"
        )

    # one minus side per sample serves every cp that the scan and the
    # misfit try; `_order0` builds each cp's columns from its values
    minus0 = minus.truncate(0)
    minus_sides = [elastic._MinusSide(s.covector, minus0, None, 0,
                                      glancing_tol) for s in group]

    rho_jet, cs_jet = Jet([rho_plus]), Jet([cs_plus])

    def forward_r(cps, ms):
        pluses = [ElasticSideJet(rho_jet, cs_jet, Jet([cp])) for cp in cps]
        return [r for r, _ in elastic._order0(ms, pluses)]

    # smallest |b|: P-P entry is monotone in impedance there
    probe = minus_sides[0]
    meas = np.asarray(group[0].value, dtype=complex)

    def gaps(cps):
        return [float((r[0, 0] - meas[0, 0]).real)
                for r in forward_r(cps, probe)]

    # the grid as Python floats, whose arithmetic is faster than numpy's
    # scalars and gives the same bits
    roots = _scan_roots(lambda cp: gaps([cp])[0], cp_lo, cp_hi,
                        scan=lambda grid: gaps(grid.tolist()))
    if not roots:
        raise NoRoot("no compressional speed matches the P-P reflection")

    # the misfit of every root over all samples, accumulated sample by
    # sample in sample order
    misfits = [0.0] * len(roots)
    for s, ms in zip(group, minus_sides):
        value = np.asarray(s.value, dtype=complex)
        for i, r in enumerate(forward_r(roots, ms)):
            misfits[i] += float(np.linalg.norm(r - value))
    i_best = min(range(len(roots)), key=misfits.__getitem__)
    best, misfit = roots[i_best], misfits[i_best]
    if not misfit <= max(residual_tol, 1e3 * ROOT_TOL) * max(1.0, len(group)):
        raise InconsistentData(
            f"order-0 elastic matrices disagree with the recovered parameters "
            f"(misfit {misfit:.3e})"
        )
    scale = max(sum(float(np.linalg.norm(np.asarray(s.value, dtype=complex)))
                    for s in group), 1e-300)
    return rho_plus, cs_plus, best, misfit / scale, cond


def elastic_recover_jets(samples, minus: ElasticSideJet, depth: int,
                         geometry=None,
                         residual_tol: float = RESIDUAL_TOL,
                         cond_limit: float = CONDITION_LIMIT,
                         glancing_tol: float = GLANCING_TOL) -> RecoveryReport:
    """Plus-side (rho, cs, cp) jets to `depth` (<= 2) from matrix samples.

    Same baseline-linearization as the acoustic recovery, with all nine
    matrix entries of every sample feeding the per-order least squares.
    With `geometry=None` the principal curvatures join the order -1
    solve as two extra unknowns (two tangential sample directions
    required, as in the acoustic case).
    """
    from . import elastic

    if depth > elastic.ELASTIC_DEPTH_CAP:
        raise DepthExceeded(
            f"elastic recovery depth is capped at {elastic.ELASTIC_DEPTH_CAP}"
        )

    def order0(samples):
        rho0, cs0, cp0, res0, cond0 = elastic_recover_order0(
            samples, minus, residual_tol=residual_tol,
            glancing_tol=glancing_tol)
        return (cs0, cp0, rho0), res0, cond0

    def run(cov, gm, k, deepest, pluses):
        ms = elastic._MinusSide(cov, minus.truncate(k), gm, k, glancing_tol)
        return elastic._group(ms, pluses)

    return _recover_jets(samples, minus, depth, geometry, ElasticSideJet,
                         ("cs", "cp", "rho"), order0, run,
                         residual_tol, cond_limit)
