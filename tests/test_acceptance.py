"""Acceptance suite: constructive-uniqueness round trips and independent
oracles, one test per criterion, each printing a pass line with the
measured worst case.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import child_env, max_rel_err, two_direction_grid

from reflectjet.acoustic import flux_residual, forward_symbols
from reflectjet.elastic import (
    forward_symbols_elastic,
    principal_rt_matrices,
    sh_reflection,
)
from reflectjet.errors import AmbiguousRoot
from reflectjet.geometry import (
    CurvatureSpectrum,
    mean_curvature_normal_derivatives,
    rational_curvature_profile,
    richardson_derivative,
)
from reflectjet.inversion import (
    SymbolSample,
    SymbolSamples,
    acoustic_recover_jets,
    acoustic_recover_relative,
    elastic_recover_jets,
    elastic_recover_order0,
)
from reflectjet.jets import Jet, jet_inv, jet_mul
from reflectjet.medium import (
    GLANCING_TOL,
    AcousticSideJet,
    Covector,
    InterfaceGeometry,
    InterfaceModel,
    vertical_wavenumber,
)
from reflectjet.sampling import (
    hyperbolic_grid,
    random_acoustic_model,
    random_elastic_model,
)


def _jet_errors_by_order(recovered, truth, names):
    out = {}
    for name in names:
        rec = getattr(recovered, name).coeffs
        tru = getattr(truth, name).coeffs
        for k, (r, t) in enumerate(zip(rec, tru)):
            err = abs(r - t) / max(abs(t), 1e-12)
            out[k] = max(out.get(k, 0.0), err)
    return out


def test_criterion_1_acoustic_round_trip():
    """50 random flat models, depth 4, contrast <= 5x, 8 slowness samples:
    orders 0-1 to 1e-8 relative, orders 2-4 to 1e-6, under 2 s."""
    rng = np.random.default_rng(1001)
    models = [random_acoustic_model(rng, 4, contrast=5.0) for _ in range(50)]
    worst = {}
    start = time.perf_counter()
    for model in models:
        covs = hyperbolic_grid(model, 8)
        samples = SymbolSamples.from_acoustic_series(
            [forward_symbols(c, model, 4) for c in covs])
        report = acoustic_recover_jets(samples, model.minus, 4,
                                       geometry=InterfaceGeometry())
        for k, err in _jet_errors_by_order(report.plus, model.plus,
                                           ("rho", "cs")).items():
            worst[k] = max(worst.get(k, 0.0), err)
    elapsed = time.perf_counter() - start
    assert worst[0] <= 1e-8 and worst[1] <= 1e-8
    assert all(worst[k] <= 1e-6 for k in (2, 3, 4))
    assert elapsed < 2.0
    print(f"\n[PASS] criterion 1: 50 flat depth-4 round trips in "
          f"{elapsed:.2f} s; worst per order "
          + " ".join(f"{k}:{v:.1e}" for k, v in sorted(worst.items())))


def test_criterion_2_curved_round_trip():
    """20 random curved models (kappa in [-1,1]), depth 2: jets to the
    criterion-1 tolerances, curvature pair to 1e-6."""
    rng = np.random.default_rng(1002)
    worst = {}
    worst_kappa = 0.0
    for _ in range(20):
        model = random_acoustic_model(rng, 2, contrast=4.0, min_contrast=1.3,
                                      curved=True)
        covs = two_direction_grid(model, 5)
        samples = SymbolSamples.from_acoustic_series(
            [forward_symbols(c, model, 2) for c in covs])
        report = acoustic_recover_jets(samples, model.minus, 2, geometry=None)
        for k, err in _jet_errors_by_order(report.plus, model.plus,
                                           ("rho", "cs")).items():
            worst[k] = max(worst.get(k, 0.0), err)
        rec = sorted(report.kappas)
        true = sorted((model.geometry.kappa1, model.geometry.kappa2))
        worst_kappa = max(worst_kappa,
                          max(abs(a - b) for a, b in zip(rec, true)))
    assert worst[0] <= 1e-8 and worst[1] <= 1e-8
    assert worst[2] <= 1e-6
    assert worst_kappa <= 1e-6
    print(f"\n[PASS] criterion 2: 20 curved depth-2 round trips; worst jets "
          + " ".join(f"{k}:{v:.1e}" for k, v in sorted(worst.items()))
          + f"; worst kappa {worst_kappa:.1e}")


def test_criterion_3_elastic_order0():
    """50 random elastic models: (rho, cs, cp)+ to 1e-8; r33 from the 6x6
    solve matches the closed form to 1e-12 on every sample."""
    rng = np.random.default_rng(1003)
    worst_par = 0.0
    worst_r33 = 0.0
    for _ in range(50):
        model = random_elastic_model(rng, 0)
        covs = hyperbolic_grid(model, 6)
        series = [forward_symbols_elastic(c, model, 0) for c in covs]
        for cov, s in zip(covs, series):
            closed = sh_reflection(cov, model.minus, model.plus)
            worst_r33 = max(worst_r33, abs(s.orders[0][1][2, 2] - closed))
        samples = SymbolSamples.from_elastic_series(series)
        rho, cs, cp, _, _ = elastic_recover_order0(samples, model.minus)
        truth = (model.plus.rho[0], model.plus.cs[0], model.plus.cp[0])
        worst_par = max(worst_par,
                        max(abs(r - t) / t for r, t in zip((rho, cs, cp),
                                                           truth)))
    assert worst_par <= 1e-8
    assert worst_r33 <= 1e-12
    print(f"\n[PASS] criterion 3: 50 elastic order-0 recoveries; worst "
          f"parameter {worst_par:.1e}, worst r33 gap {worst_r33:.1e}")


def test_criterion_4_elastic_derivatives():
    """20 random elastic models, depth 1 to 1e-6; depth-2 extension to
    1e-5 at contrast <= 2x."""
    rng = np.random.default_rng(1004)
    worst_d1 = 0.0
    for _ in range(20):
        model = random_elastic_model(rng, 1)
        covs = hyperbolic_grid(model, 6)
        samples = SymbolSamples.from_elastic_series(
            [forward_symbols_elastic(c, model, 1) for c in covs])
        report = elastic_recover_jets(samples, model.minus, 1,
                                      geometry=InterfaceGeometry())
        for name in ("rho", "cs", "cp"):
            worst_d1 = max(worst_d1, max_rel_err(getattr(report.plus, name),
                                                 getattr(model.plus, name)))
    assert worst_d1 <= 1e-6

    worst_d2 = 0.0
    for _ in range(20):
        model = random_elastic_model(rng, 2, contrast=2.0)
        covs = hyperbolic_grid(model, 6)
        samples = SymbolSamples.from_elastic_series(
            [forward_symbols_elastic(c, model, 2) for c in covs])
        report = elastic_recover_jets(samples, model.minus, 2,
                                      geometry=InterfaceGeometry())
        for name in ("rho", "cs", "cp"):
            worst_d2 = max(worst_d2, max_rel_err(getattr(report.plus, name),
                                                 getattr(model.plus, name)))
    assert worst_d2 <= 1e-5
    print(f"\n[PASS] criterion 4: elastic derivatives; depth-1 worst "
          f"{worst_d1:.1e} (<=1e-6), depth-2 worst {worst_d2:.1e} (<=1e-5)")


def test_criterion_5_flux_conservation():
    """|flux residual| <= 1e-12 mu- xi3I on a 10x10 model-slowness grid,
    acoustic and SH-elastic."""
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        model = random_acoustic_model(rng, 0)
        mu_m = model.minus.rho[0] * model.minus.cs[0] ** 2
        for b in np.linspace(0.0, 0.85 * model.critical_slowness(), 10):
            cov = Covector(1.0, (float(b), 0.0))
            xi_i = vertical_wavenumber(cov, model.minus.cs[0])
            ratio = abs(flux_residual(cov, model)) / (1e-12 * mu_m * xi_i)
            worst = max(worst, ratio)
            assert ratio <= 1.0
    for _ in range(10):
        model = random_elastic_model(rng, 0)
        mu_m = model.minus.rho[0] * model.minus.cs[0] ** 2
        mu_p = model.plus.rho[0] * model.plus.cs[0] ** 2
        for b in np.linspace(0.0, 0.85 * model.critical_slowness(), 10):
            cov = Covector(1.0, (float(b), 0.0))
            r, t = principal_rt_matrices(cov, model)
            zi = vertical_wavenumber(cov, model.minus.cs[0])
            zt = vertical_wavenumber(cov, model.plus.cs[0])
            resid = mu_m * zi * (1.0 - r[2, 2].real ** 2) \
                - mu_p * zt * t[2, 2].real ** 2
            ratio = abs(resid) / (1e-12 * mu_m * zi)
            worst = max(worst, ratio)
            assert ratio <= 1.0
    print(f"\n[PASS] criterion 5: flux residual on 2x(10x10) grids; worst "
          f"{worst:.2f} of the 1e-12 mu- xi3I budget")


def test_criterion_6_curvature_lemmas():
    """Closed-form mean-curvature derivatives vs the level-set oracle on
    30 random spectra (J <= 4, 1e-6) plus exact sphere values."""
    rng = np.random.default_rng(1006)
    step = Fraction(1, 1000)
    worst = 0.0
    for _ in range(30):
        spec = CurvatureSpectrum(tuple(rng.uniform(-2.0, 2.0, size=2)))
        for order in range(5):
            formula = mean_curvature_normal_derivatives(spec, order)
            oracle = float(richardson_derivative(
                lambda s: rational_curvature_profile(spec, s),
                Fraction(0), order, step))
            err = abs(formula - oracle) / max(abs(formula), 1.0)
            worst = max(worst, err)
            assert err <= 1e-6
    for r in (1.0, 0.5, 2.0, 1.7):
        spec = CurvatureSpectrum((1.0 / r, 1.0 / r))
        assert mean_curvature_normal_derivatives(spec, 1) == pytest.approx(
            -2.0 / r ** 2, rel=1e-15)
        assert mean_curvature_normal_derivatives(spec, 2) == pytest.approx(
            4.0 / r ** 3, rel=1e-15)
    print(f"\n[PASS] criterion 6: curvature lemmas vs oracle; worst relative "
          f"error {worst:.1e} (<=1e-6); sphere values exact")


def test_criterion_7_relative_amplitudes():
    """Relative-amplitude inversion recovers (mu+, cs+) to 1e-6 on 20
    random models; transparent interface reported as ambiguous."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        model = random_acoustic_model(rng, 0, contrast=4.0, min_contrast=1.2)
        b_crit = model.critical_slowness()
        b_ref = 0.1 * b_crit
        ref_cov = Covector(1.0, (b_ref, 0.0))
        ref_val = forward_symbols(ref_cov, model, 0).orders[0][1].real
        samples = []
        for frac in (0.3, 0.45, 0.6, 0.75):
            cov = Covector(1.0, (frac * b_crit, 0.0))
            val = forward_symbols(cov, model, 0).orders[0][1].real
            samples.append(SymbolSample(cov, 0, val / ref_val))
        mu_plus, cs_plus = acoustic_recover_relative(samples, model.minus,
                                                     ref_cov)
        mu_true = model.plus.rho[0] * model.plus.cs[0] ** 2
        worst = max(worst,
                    abs(mu_plus - mu_true) / mu_true,
                    abs(cs_plus - model.plus.cs[0]) / model.plus.cs[0])
    assert worst <= 1e-6
    side = AcousticSideJet(Jet([1.0]), Jet([1.0]))
    transparent = [SymbolSample(Covector(1.0, (b, 0.0)), 0, 1.0)
                   for b in (0.2, 0.35, 0.5)]
    with pytest.raises(AmbiguousRoot):
        acoustic_recover_relative(transparent, side, Covector(1.0, (0.05, 0.0)))
    print(f"\n[PASS] criterion 7: 20 relative-amplitude recoveries; worst "
          f"{worst:.1e} (<=1e-6); transparent interface flagged ambiguous")


def test_criterion_8_transmission_corollary():
    """Recovered plus-side jets reproduce the measured transmission
    symbols through order -K to 1e-8 on every round-trip model."""
    rng = np.random.default_rng(1008)
    worst = 0.0

    def t_reproduction(model, covs, depth, report):
        rebuilt = InterfaceModel(model.minus, report.plus, model.geometry)
        err = 0.0
        for cov in covs:
            truth = forward_symbols(cov, model, depth)
            redo = forward_symbols(cov, rebuilt, depth)
            for (_, _, t_true), (_, _, t_rec) in zip(truth.orders,
                                                     redo.orders):
                err = max(err, abs(t_rec - t_true))
        return err

    for _ in range(10):
        model = random_acoustic_model(rng, 4, contrast=5.0)
        covs = hyperbolic_grid(model, 8)
        samples = SymbolSamples.from_acoustic_series(
            [forward_symbols(c, model, 4) for c in covs])
        report = acoustic_recover_jets(samples, model.minus, 4,
                                       geometry=InterfaceGeometry())
        worst = max(worst, t_reproduction(model, covs, 4, report))
    for _ in range(10):
        model = random_acoustic_model(rng, 2, contrast=4.0, min_contrast=1.3,
                                      curved=True)
        covs = two_direction_grid(model, 5)
        samples = SymbolSamples.from_acoustic_series(
            [forward_symbols(c, model, 2) for c in covs])
        report = acoustic_recover_jets(samples, model.minus, 2, geometry=None)
        rebuilt_geom = InterfaceGeometry(*report.kappas)
        rebuilt = InterfaceModel(model.minus, report.plus, rebuilt_geom)
        for cov in covs:
            truth = forward_symbols(cov, model, 2)
            redo = forward_symbols(cov, rebuilt, 2)
            for (_, _, t_true), (_, _, t_rec) in zip(truth.orders,
                                                     redo.orders):
                worst = max(worst, abs(t_rec - t_true))
    assert worst <= 1e-8
    print(f"\n[PASS] criterion 8: transmission symbols reproduced to "
          f"{worst:.1e} (<=1e-8) on 20 round-trip models")


def test_criterion_9_invariant_suite(tmp_path):
    """Homogeneity per order, polarization orthogonality, SH/P-SV
    decoupling, jetcalc oracle equivalence, CLI determinism."""
    rng = np.random.default_rng(1009)

    # homogeneity of each symbol order
    model = random_acoustic_model(rng, 3, curved=True)
    cov = Covector(1.0, (0.5 * model.critical_slowness(), 0.1))
    base = forward_symbols(cov, model, 3)
    scaled = forward_symbols(cov.scaled(2.0), model, 3)
    for (j, a_r, _), (_, b_r, _) in zip(base.orders, scaled.orders):
        assert b_r == pytest.approx(2.0 ** j * a_r, rel=1e-11, abs=1e-14)

    # polarization orthogonality and SH/P-SV decoupling: the SV and SH
    # columns of each minus-side branch are orthogonal to its S-wave
    # direction and to each other
    from reflectjet import elastic
    emodel = random_elastic_model(rng, 1)
    ecov = Covector(1.0, (0.5 * emodel.critical_slowness(), 0.0))
    ms = elastic._MinusSide(ecov, emodel.minus, None, 1, GLANCING_TOL)
    for branch in ("I", "R"):
        ctx = ms.ctx[branch, "S"]
        xi_s = np.array([ctx.kt[0], 0.0, ctx.zeta[0]])
        frame = np.array([ms.S[branch][:, elastic.SV],
                          ms.S[branch][:, elastic.SH],
                          xi_s / np.linalg.norm(xi_s)])
        assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-12
    eseries = forward_symbols_elastic(ecov, emodel, 1)
    for _, r, t in eseries.orders:
        for m in (r, t):
            assert np.abs(m[2, :2]).max() <= 1e-13
            assert np.abs(m[:2, 2]).max() <= 1e-13

    # jetcalc oracle equivalence (associativity + inverse round trip)
    for _ in range(20):
        a, b, c = (Jet(rng.uniform(-0.5, 0.5, size=5) + [1, 0, 0, 0, 0])
                   for _ in range(3))
        left = jet_mul(a, jet_mul(b, c)).coeffs
        right = jet_mul(jet_mul(a, b), c).coeffs
        assert all(abs(x - y) <= 1e-12 * max(abs(x), 1.0)
                   for x, y in zip(left, right))
        prod = jet_mul(a, jet_inv(a)).coeffs
        assert abs(prod[0] - 1.0) <= 1e-12
        assert all(abs(x) <= 1e-11 for x in prod[1:])

    # CLI determinism across runs and worker counts
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "minus": {"rho_jet": [1.0, 0.3], "cs_jet": [1.0, -0.2]},
        "plus": {"rho_jet": [1.2, -0.4], "cs_jet": [1.5, 0.5]},
    }))
    dumps = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "reflectjet.cli", "forward",
             "--model", str(model_path), "--out", str(out),
             "--grid", "0,0.1,0.2,0.3,0.4", "--jobs", jobs],
            capture_output=True, env=child_env())
        assert proc.returncode == 0
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1] == dumps[2]
    print("\n[PASS] criterion 9: homogeneity, orthogonality, decoupling, "
          "jet oracles, CLI determinism all green")
