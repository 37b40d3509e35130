"""Material model: regimes, vertical wavenumbers, Lame jets, validation;
the package's exported names."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from conftest import outcome
import reflectjet
from reflectjet.errors import ConvexityViolation, EvanescentError, GlancingError
from reflectjet.jets import Jet, jet_inv, jet_mul, jet_scale, jet_sqrt
from reflectjet.medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    Regime,
    check_hyperbolic,
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


def test_check_hyperbolic_agrees_with_vertical_wavenumber():
    # the regime test that the engines' tapes record passes where
    # `vertical_wavenumber` returns and raises its error elsewhere: the
    # three regimes, each edge of a glancing band, a zero, negative, NaN
    # or tiny speed, tau < 0, and a negative tolerance, which lets a
    # negative radicand through `classify_regime`
    edges = math.sqrt(1.0 - 5e-10), math.sqrt(1.0 + 5e-10)
    for tau, xi_norm, speed, tol in itertools.product(
            (1.0, -2.0), (0.0, 0.6, *edges, 1.0, 2.0),
            (1.0, 2.0, 0.0, -1.0, math.nan, 1e-200),
            (1e-9, 1e-12, 0.0, -1e-9)):
        want = outcome(vertical_wavenumber, Covector(tau, (xi_norm, 0.0)),
                       speed, tol)
        got = outcome(check_hyperbolic, tau, xi_norm, speed, tol)
        assert got == ("None" if "Error" not in want else want)


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
        cp_back = jet_sqrt(jet_mul(lam + jet_scale(mu, 2.0), jet_inv(rho)))
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
    # the hash is computed once, as the dataclass would: equal covectors,
    # of float, int or np.float64 fields, hash alike and are one key
    same = Covector(np.float64(2.0), (0.6, np.float64(0.8)))
    assert hash(cov) == hash(same) == hash((2.0, (0.6, 0.8)))
    assert same == cov and len({cov, same, Covector(2, (0.6, 0.8))}) == 1
    assert repr(cov) == "Covector(tau=2.0, xi=(0.6, 0.8))"
    assert hash(dataclasses.replace(cov, tau=3.0)) == hash((3.0, (0.6, 0.8)))
    assert pickle.loads(pickle.dumps(cov)) == cov


def test_package_all_resolves():
    # every exported name loads, the elastic and inversion ones through
    # the lazy module __getattr__; a name not exported does not
    for name in reflectjet.__all__:
        assert getattr(reflectjet, name) is not None, name
    namespace = {}
    exec("from reflectjet import *", namespace)
    assert set(reflectjet.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        reflectjet.polarization_basis
