"""Shape-operator formulas versus the parallel-surface oracles."""

from fractions import Fraction

import pytest

from reflectjet.errors import FocalPoint
from reflectjet.geometry import (
    CurvatureSpectrum,
    mean_curvature_jet,
    mean_curvature_normal_derivatives,
    rational_curvature_profile,
    richardson_derivative,
    tangential_stretch_jet,
)


def test_sphere_first_derivative():
    for r in (1.0, 2.0, 0.5):
        spec = CurvatureSpectrum((1.0 / r, 1.0 / r))
        assert mean_curvature_normal_derivatives(spec, 1) == pytest.approx(
            -2.0 / r ** 2)


def test_sphere_second_derivative():
    spec = CurvatureSpectrum((1.0, 1.0))
    assert mean_curvature_normal_derivatives(spec, 2) == pytest.approx(4.0)
    spec_r = CurvatureSpectrum((0.5, 0.5))
    assert mean_curvature_normal_derivatives(spec_r, 2) == pytest.approx(
        4.0 / 2.0 ** 3)


def test_flat_all_orders():
    spec = CurvatureSpectrum((0.0, 0.0))
    assert all(mean_curvature_normal_derivatives(spec, j) == 0.0
               for j in range(6))


def test_sign_alternation_sphere():
    spec = CurvatureSpectrum((1.0, 1.0))
    values = [mean_curvature_normal_derivatives(spec, j) for j in range(5)]
    assert all(v > 0 if j % 2 == 0 else v < 0 for j, v in enumerate(values))


def test_focal_point():
    with pytest.raises(FocalPoint):
        rational_curvature_profile(CurvatureSpectrum((2.0, -2.0)),
                                   Fraction(1, 2))


def test_oracle_equivalence_random_spectra(rng):
    # Richardson-extrapolated central differences of the parallel-surface
    # profile at step 1e-3 (exact rational arithmetic) vs the closed form
    step = Fraction(1, 1000)
    for _ in range(30):
        spec = CurvatureSpectrum(tuple(rng.uniform(-2.0, 2.0, size=2)))
        for order in range(5):
            formula = mean_curvature_normal_derivatives(spec, order)
            oracle = float(richardson_derivative(
                lambda s: rational_curvature_profile(spec, s),
                Fraction(0), order, step))
            assert abs(formula - oracle) <= 1e-6 * max(abs(formula), 1.0)


def test_mean_curvature_jet_matches_formula():
    spec = CurvatureSpectrum((0.5, -0.2))
    jet = mean_curvature_jet(spec, 3)
    for j, c in enumerate(jet.coeffs):
        assert c == mean_curvature_normal_derivatives(spec, j)


def test_stretch_jet_against_profile_oracle(rng):
    step = Fraction(1, 1000)
    for _ in range(20):
        spec = CurvatureSpectrum(tuple(rng.uniform(-1.5, 1.5, size=2)))
        xi = tuple(rng.uniform(-1.0, 1.0, size=2))
        jet = tangential_stretch_jet(spec, xi, 4)

        def prof(s):
            total = Fraction(0)
            for k, x in zip(spec.kappas, xi):
                denom = 1 + s * Fraction(k)
                total += (Fraction(x) / denom) ** 2
            return total

        for order in range(5):
            oracle = float(richardson_derivative(prof, Fraction(0), order,
                                                 step))
            assert abs(jet[order] - oracle) <= 1e-6 * max(abs(oracle), 1.0)
