"""Shape-operator arithmetic for the interface.

The interface enters the symbol computations only through the normal jet
of its mean curvature H = kappa_1 + kappa_2 (trace normalization, see
module note below).  Along the normal line, the parallel surface at
signed distance s has mean curvature sum_i kappa_i / (1 + s kappa_i);
its s-derivatives at s = 0 give the closed form

    d^J H / d nu^J = (-1)^J J! sum_i kappa_i^(J+1),

which is what the engines consume.  The profile itself, in exact
rational arithmetic (`rational_curvature_profile`), is kept as the
independent oracle for that formula.

Normalization note: some texts define mean curvature as the *average* of
the principal curvatures; here H is the trace of the shape operator
(c_n = 1).  The convention is global and cancels in every forward/inverse
round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FocalPoint
from .jets import Jet


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Principal curvatures of the interface at one point (1/length)."""

    kappas: tuple

    def __post_init__(self):
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        if not all(math.isfinite(k) for k in self.kappas):
            raise ValueError("principal curvatures must be finite")


def mean_curvature_normal_derivatives(spec: CurvatureSpectrum, order: int) -> float:
    """J-th normal derivative of the mean curvature; J = 0 returns H."""
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    sign = -1.0 if order % 2 else 1.0
    return sign * math.factorial(order) * sum(k ** (order + 1) for k in spec.kappas)


def mean_curvature_jet(spec: CurvatureSpectrum, depth: int) -> Jet:
    """Jet of H along the normal, coefficients from the closed form."""
    return Jet(mean_curvature_normal_derivatives(spec, j) for j in range(depth + 1))


def richardson_derivative(func, x, order: int, step=1e-3):
    """Richardson-extrapolated central difference of d^order f / dx^order.

    Independent differentiation oracle used to validate the closed-form
    curvature derivatives against the parallel-surface profiles.  The
    arithmetic follows the argument types: passing Fraction x/step with
    a Fraction-valued func keeps the differences exact, which is what
    the 1e-6 oracle tolerance needs at order 4 (float cancellation at
    step 1e-3 is ~1e-3 there).
    """
    if order == 0:
        return func(x)

    def central(h):
        total = 0
        for i in range(order + 1):
            weight = (-1) ** i * math.comb(order, i)
            total += weight * func(x + (Fraction(order, 2) - i) * h)
        return total / h ** order

    coarse = central(step)
    fine = central(step / 2)
    return (4 * fine - coarse) / 3


def rational_curvature_profile(spec: CurvatureSpectrum, s) -> "Fraction":
    """Mean curvature sum_i kappa_i / (1 + s kappa_i) of the parallel
    surface at signed normal distance s, in exact rational arithmetic.

    Independent oracle for `mean_curvature_normal_derivatives`: its J-th
    s-derivative at s = 0 equals the closed-form value.  Crossing a focal
    point (1 + s kappa_i = 0) is rejected.
    """
    total = Fraction(0)
    for k in spec.kappas:
        kn = Fraction(k)
        denom = 1 + s * kn
        if denom == 0:
            raise FocalPoint(f"focal point at s={s} for curvature {k}")
        total += kn / denom
    return total


def tangential_stretch_jet(spec: CurvatureSpectrum, xi, depth: int) -> Jet:
    """Jet of the stretched squared tangential wavenumber along the normal.

    In interface-normal coordinates the tangential metric spreads with
    the principal curvatures, so on the parallel surface at distance s
    the squared tangential wavenumber of a phase with fixed interface
    trace is q(s) = sum_a xi_a^2/(1+s kappa_a)^2 (principal axes along
    the interface coordinates).  d^j q / ds^j at 0 is
    (-1)^j (j+1)! sum_a kappa_a^j xi_a^2; like the mean-curvature
    derivatives, it depends only on the shape operator, and together
    they are its entire content in the frozen model.
    """
    coeffs = []
    for j in range(depth + 1):
        sign = -1.0 if j % 2 else 1.0
        coeffs.append(sign * math.factorial(j + 1)
                      * sum((k ** j) * (x * x)
                            for k, x in zip(spec.kappas, xi)))
    return Jet(coeffs)
