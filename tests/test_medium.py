"""Material model: regimes, vertical wavenumbers, Lame jets, validation."""

import math

import numpy as np
import pytest

from reflectjet.errors import ConvexityViolation, EvanescentError, GlancingError
from reflectjet.jets import Jet, jet_inv, jet_mul, jet_sqrt
from reflectjet.medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    Regime,
    classify_regime,
    derive_lame_jets,
    vertical_wavenumber,
)


def test_vertical_wavenumber_normal_incidence():
    assert vertical_wavenumber(Covector(1.0, (0.0, 0.0)), 2.0) == pytest.approx(0.5)


def test_vertical_wavenumber_oblique():
    assert vertical_wavenumber(Covector(1.0, (0.6, 0.0)), 1.0) == pytest.approx(0.8)


def test_vertical_wavenumber_glancing():
    with pytest.raises(GlancingError):
        vertical_wavenumber(Covector(1.0, (1.0, 0.0)), 1.0)


def test_vertical_wavenumber_evanescent():
    with pytest.raises(EvanescentError):
        vertical_wavenumber(Covector(1.0, (0.6, 0.0)), 2.0)


def test_regime_classification():
    assert classify_regime(Covector(1.0, (0.2, 0.0)), 1.0) is Regime.HYPERBOLIC
    assert classify_regime(Covector(1.0, (2.0, 0.0)), 1.0) is Regime.EVANESCENT
    assert classify_regime(Covector(1.0, (1.0, 0.0)), 1.0) is Regime.GLANCING


def test_glancing_tolerance_is_relative():
    # radicand within tol * tau^2/c^2 of zero counts as glancing
    b = math.sqrt(1.0 - 5e-10)
    with pytest.raises(GlancingError):
        vertical_wavenumber(Covector(1.0, (b, 0.0)), 1.0, tol=1e-9)
    assert vertical_wavenumber(Covector(1.0, (b, 0.0)), 1.0, tol=1e-12) > 0


def test_xi3_monotone_in_slowness(rng):
    speed = 1.3
    values = [vertical_wavenumber(Covector(1.0, (b, 0.0)), speed)
              for b in np.linspace(0.0, 0.7 / speed, 20)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_xi3_homogeneity(rng):
    for _ in range(20):
        tau = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 0.6)
        s = rng.uniform(0.1, 5.0)
        cov = Covector(tau, (b * tau, 0.2 * tau))
        assert vertical_wavenumber(cov.scaled(s), 1.1) == pytest.approx(
            s * vertical_wavenumber(cov, 1.1))


def test_derive_lame_examples():
    lam, mu = derive_lame_jets(ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0])))
    assert mu == Jet([1.0]) and lam == Jet([2.0])

    lam, mu = derive_lame_jets(
        ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([math.sqrt(2.0) * (1 + 1e-12)])))
    assert mu[0] == pytest.approx(1.0)
    assert lam[0] == pytest.approx(0.0, abs=1e-9)

    lam, mu = derive_lame_jets(
        ElasticSideJet(Jet([1.0, 1.0]), Jet([1.0, 0.0]), Jet([2.0, 0.0])))
    assert mu == Jet([1.0, 1.0]) and lam == Jet([2.0, 2.0])


def test_derive_lame_round_trip(rng):
    for _ in range(20):
        rho = Jet(np.append(rng.uniform(0.5, 2.0), rng.normal(size=3) * 0.3))
        cs = Jet(np.append(rng.uniform(0.5, 1.5), rng.normal(size=3) * 0.2))
        cp = Jet(np.append(cs[0] * rng.uniform(1.6, 2.4), rng.normal(size=3) * 0.2))
        side = ElasticSideJet(rho, cs, cp)
        lam, mu = derive_lame_jets(side)
        cs_back = jet_sqrt(jet_mul(mu, jet_inv(rho)))
        cp_back = jet_sqrt(jet_mul(lam + 2.0 * mu, jet_inv(rho)))
        for got, want in ((cs_back, cs), (cp_back, cp)):
            assert all(abs(x - y) <= 1e-12 * max(abs(y), 1.0)
                       for x, y in zip(got.coeffs, want.coeffs))


def test_convexity_enforced():
    with pytest.raises(ConvexityViolation):
        ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([1.1]))


def test_side_invariants():
    with pytest.raises(ValueError):
        AcousticSideJet(Jet([-1.0]), Jet([1.0]))
    with pytest.raises(ValueError):
        AcousticSideJet(Jet([1.0]), Jet([0.0]))
    with pytest.raises(ValueError):
        AcousticSideJet(Jet([1.0, 0.0]), Jet([1.0]))


def test_non_finite_side_jets_rejected():
    # such sides once gave NaN symbols without an error
    ok = Jet([1.0, 0.1])
    for rho, cs in ((Jet([1.0, math.nan]), ok), (ok, Jet([1.0, math.inf])),
                    (Jet([math.inf, 0.1]), ok), (ok, Jet([1.0, -math.inf]))):
        with pytest.raises(ValueError, match="must be finite"):
            AcousticSideJet(rho, cs)
    for cs, cp in ((ok, Jet([2.0, math.nan])), (ok, Jet([math.inf, 0.1])),
                   (Jet([1.0, math.inf]), Jet([2.0, 0.1]))):
        with pytest.raises(ValueError, match="must be finite"):
            ElasticSideJet(ok, cs, cp)


def test_non_finite_covector_rejected():
    # a NaN once reached classify_regime and read as glancing
    for tau, xi in ((math.nan, (0.1, 0.0)), (math.inf, (0.1, 0.0)),
                    (1.0, (math.nan, 0.0)), (1.0, (0.0, -math.inf))):
        with pytest.raises(ValueError, match="must be finite"):
            Covector(tau, xi)


def test_model_validation():
    a = AcousticSideJet(Jet([1.0]), Jet([1.0]))
    e = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    with pytest.raises(ValueError):
        InterfaceModel(a, e)
    model = InterfaceModel(e, e, InterfaceGeometry(0.5, -0.2))
    assert model.is_elastic
    assert model.critical_slowness() == pytest.approx(0.5)


def test_covector():
    with pytest.raises(ValueError):
        Covector(0.0, (0.1, 0.0))
    cov = Covector(2.0, (0.6, 0.8))
    assert cov.xi_norm == pytest.approx(1.0)
    assert cov.slowness == pytest.approx(0.5)
