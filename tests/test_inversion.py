"""Reconstruction: closed-form order 0, linearized jet recovery, relative
amplitudes, elastic recovery, and the curvature factorization."""

import inspect
import math
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (
    child_env,
    max_rel_err,
    outcome,
    two_direction_grid,
)

from reflectjet import acoustic, elastic, inversion
from reflectjet.acoustic import forward_symbols
from reflectjet.elastic import (
    forward_symbols_elastic,
    principal_rt_matrices,
    sh_reflection,
)
from reflectjet.errors import (
    AmbiguousRoot,
    DegenerateAngles,
    IllConditioned,
    InconsistentData,
    MissingOrder,
    NoRoot,
    SingularInterfaceSystem,
)
from reflectjet.inversion import (
    SymbolSample,
    SymbolSamples,
    acoustic_recover_jets,
    acoustic_recover_order0,
    acoustic_recover_relative,
    elastic_recover_jets,
    elastic_recover_order0,
)
from reflectjet.jets import Jet
from reflectjet.medium import (
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    check_elastic_side,
)
from reflectjet.sampling import (
    cross_grid,
    hyperbolic_grid,
    random_acoustic_model,
    random_elastic_model,
)

CONTRAST = InterfaceModel(
    AcousticSideJet(Jet([1.0]), Jet([1.0])),
    AcousticSideJet(Jet([1.0]), Jet([2.0])),
)


def _acoustic_samples(model, covs, depth):
    return SymbolSamples.from_acoustic_series(
        [forward_symbols(c, model, depth) for c in covs])


def _elastic_samples(model, covs, depth):
    return SymbolSamples.from_elastic_series(
        [forward_symbols_elastic(c, model, depth) for c in covs])


# --- order 0 ------------------------------------------------------------------


def test_order0_two_angle_example():
    covs = [Covector(1.0, (0.0, 0.0)), Covector(1.0, (0.3, 0.0))]
    samples = _acoustic_samples(CONTRAST, covs, 0)
    cs_plus, rho_plus = acoustic_recover_order0(samples, CONTRAST.minus)
    assert cs_plus == pytest.approx(2.0, rel=1e-12)
    assert rho_plus == pytest.approx(1.0, rel=1e-12)


def test_order0_transparent():
    side = AcousticSideJet(Jet([1.2]), Jet([0.9]))
    model = InterfaceModel(side, side)
    covs = [Covector(1.0, (0.0, 0.0)), Covector(1.0, (0.4, 0.0))]
    cs_plus, rho_plus = acoustic_recover_order0(
        _acoustic_samples(model, covs, 0), side)
    assert cs_plus == pytest.approx(0.9, rel=1e-9)
    assert rho_plus == pytest.approx(1.2, rel=1e-9)


def test_order0_degenerate_angles():
    covs = [Covector(1.0, (0.3, 0.0)), Covector(-1.0, (-0.3, 0.0))]
    samples = _acoustic_samples(CONTRAST, covs, 0)
    with pytest.raises(DegenerateAngles):
        acoustic_recover_order0(samples, CONTRAST.minus)


def test_order0_inconsistent_samples():
    covs = [Covector(1.0, (0.0, 0.0)), Covector(1.0, (0.2, 0.0)),
            Covector(1.0, (0.35, 0.0))]
    samples = list(_acoustic_samples(CONTRAST, covs, 0).samples)
    broken = samples[:-1] + [SymbolSample(samples[-1].covector, 0,
                                          samples[-1].value + 0.05)]
    with pytest.raises(InconsistentData):
        acoustic_recover_order0(broken, CONTRAST.minus)


# --- jet recovery -------------------------------------------------------------


def test_flat_round_trip_depth3(rng):
    model = random_acoustic_model(rng, 3)
    covs = hyperbolic_grid(model, 6)
    report = acoustic_recover_jets(_acoustic_samples(model, covs, 3),
                                   model.minus, 3,
                                   geometry=InterfaceGeometry())
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-6
    assert max_rel_err(report.plus.cs, model.plus.cs) <= 1e-6
    assert all(v <= 1e-8 for v in report.residuals.values())


def test_depth0_reduces_to_order0(rng):
    model = random_acoustic_model(rng, 0)
    covs = hyperbolic_grid(model, 4)
    samples = _acoustic_samples(model, covs, 0)
    report = acoustic_recover_jets(samples, model.minus, 0,
                                   geometry=InterfaceGeometry())
    direct = acoustic_recover_order0(samples, model.minus)
    assert report.plus.cs[0] == direct[0]
    assert report.plus.rho[0] == direct[1]


def test_condition_limit_raises_ill_conditioned(rng):
    model = random_acoustic_model(rng, 1)
    samples = _acoustic_samples(model, hyperbolic_grid(model, 5), 1)
    with pytest.raises(IllConditioned) as info:
        acoustic_recover_jets(samples, model.minus, 1,
                              geometry=InterfaceGeometry(), cond_limit=1.0)
    assert info.value.order == -1
    assert info.value.condition > 1.0
    # a design column that is identically zero, whatever the limit
    with pytest.raises(IllConditioned) as info:
        inversion._lstsq_real([np.ones(2, complex), np.zeros(2, complex)],
                              np.ones(2, complex), np.zeros(2, complex), -1,
                              1e8, 1e-8)
    assert info.value.condition == math.inf


def test_curved_round_trip_recovers_kappas(rng):
    model = random_acoustic_model(rng, 2, contrast=4.0, min_contrast=1.3,
                                  curved=True)
    covs = two_direction_grid(model, 5)
    report = acoustic_recover_jets(_acoustic_samples(model, covs, 2),
                                   model.minus, 2, geometry=None)
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-8
    assert max_rel_err(report.plus.cs, model.plus.cs) <= 1e-8
    rec = sorted(report.kappas)
    true = sorted((model.geometry.kappa1, model.geometry.kappa2))
    assert max(abs(a - b) for a, b in zip(rec, true)) <= 1e-8
    assert report.mean_curvature == pytest.approx(sum(true), abs=1e-8)


def test_curved_recovery_named_pair():
    # kappa = (0.5, -0.2): H = 0.3 and the unordered pair come back
    model = InterfaceModel(
        AcousticSideJet(Jet([1.1, 0.3, -0.2]), Jet([1.0, -0.2, 0.4])),
        AcousticSideJet(Jet([0.9, -0.4, 0.3]), Jet([1.5, 0.5, -0.3])),
        InterfaceGeometry(0.5, -0.2),
    )
    covs = two_direction_grid(model, 5)
    report = acoustic_recover_jets(_acoustic_samples(model, covs, 2),
                                   model.minus, 2, geometry=None)
    assert report.mean_curvature == pytest.approx(0.3, abs=1e-9)
    assert sorted(report.kappas) == pytest.approx([-0.2, 0.5], abs=1e-9)


def test_curvature_needs_two_directions(rng):
    model = random_acoustic_model(rng, 2, curved=True)
    covs = hyperbolic_grid(model, 8)  # single direction
    with pytest.raises(DegenerateAngles):
        acoustic_recover_jets(_acoustic_samples(model, covs, 2),
                              model.minus, 2, geometry=None)


def test_known_curved_geometry(rng):
    model = random_acoustic_model(rng, 3, curved=True)
    covs = hyperbolic_grid(model, 8)
    report = acoustic_recover_jets(_acoustic_samples(model, covs, 3),
                                   model.minus, 3, geometry=model.geometry)
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-7
    assert max_rel_err(report.plus.cs, model.plus.cs) <= 1e-7
    assert report.kappas is None


def test_minus_side_built_once_per_covector_and_order(rng, monkeypatch):
    # the recovery builds one minus side per covector and geometry, at
    # the deepest order the geometry serves, and runs the base and every
    # design column of every order on it
    model = random_acoustic_model(rng, 2, curved=True)
    covs = two_direction_grid(model, 70)
    samples = _acoustic_samples(model, covs, 2)
    builds = Counter()
    real = acoustic.curvature_jets

    def counted(cov, geometry, depth):
        builds[cov, geometry, depth] += 1
        return real(cov, geometry, depth)

    monkeypatch.setattr(acoustic, "curvature_jets", counted)
    report = acoustic_recover_jets(samples, model.minus, 2,
                                   geometry=model.geometry)
    assert builds == {(cov, model.geometry, 2): 1 for cov in covs}
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-7

    # a recovered geometry: three geometries serve order -1 alone, and
    # the recovered one serves order -2
    builds.clear()
    report = acoustic_recover_jets(samples, model.minus, 2, geometry=None)
    expected = {}
    for cov in covs:
        for gm in (InterfaceGeometry(), InterfaceGeometry(1.0, 0.0),
                   InterfaceGeometry(0.0, 1.0)):
            expected[cov, gm, 1] = 1
        expected[cov, InterfaceGeometry(*report.kappas), 2] = 1
    assert builds == expected
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-7

    # order -2 on a grid that shares only normal incidence and its two
    # ends with the grid of orders 0 and -1: a minus side of a shared
    # covector is built once and reused, every other one built once
    covs2 = two_direction_grid(model, 50)
    assert len(set(covs) & set(covs2)) == 3
    two_grids = SymbolSamples(
        [s for s in samples.samples if s.order > -2]
        + [s for s in _acoustic_samples(model, covs2, 2).samples
           if s.order == -2])
    # and a minus side is held only while a later order samples its
    # covector: after each engine call, the recovery's `run` holds the
    # three shared ones after order -1 and none at the end
    held = []
    driver = inversion._recover_jets

    def watched(*args):
        run = args[7]
        sides = inspect.getclosurevars(run).nonlocals["minus_sides"]

        def counted_run(*call):
            columns = run(*call)
            held.append(len(sides))
            return columns
        return driver(*args[:7], counted_run, *args[8:])

    monkeypatch.setattr(inversion, "_recover_jets", watched)
    builds.clear()
    report = acoustic_recover_jets(two_grids, model.minus, 2,
                                   geometry=model.geometry)
    assert builds == {(cov, model.geometry, 2): 1
                      for cov in set(covs) | set(covs2)}
    assert held == [3, 0]
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-7
    builds.clear()
    held.clear()
    report = acoustic_recover_jets(two_grids, model.minus, 2, geometry=None)
    assert held == [0, 0, 0, 0]
    recovered = InterfaceGeometry(*report.kappas)
    assert all(builds[cov, recovered, 2] == 1 for cov in covs2)
    assert all(builds[cov, gm, 1] == 1 for cov in covs
               for gm in (InterfaceGeometry(), InterfaceGeometry(1.0, 0.0),
                          InterfaceGeometry(0.0, 1.0)))
    assert sum(builds.values()) == 3 * len(covs) + len(covs2)
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-7


def test_non_finite_sample_rejected_before_engine_work(rng, monkeypatch):
    # a NaN or infinite value passes no residual test, so it is rejected
    # up front, at every order
    def no_engine(*args):
        raise AssertionError("engine work on a non-finite sample set")

    model = random_acoustic_model(rng, 2)
    items = list(_acoustic_samples(model, hyperbolic_grid(model, 6),
                                   2).samples)
    e_model = random_elastic_model(rng, 1)
    e_items = list(_elastic_samples(e_model, hyperbolic_grid(e_model, 6),
                                    1).samples)
    monkeypatch.setattr(acoustic, "curvature_jets", no_engine)
    monkeypatch.setattr(elastic, "curvature_jets", no_engine)
    for order in (0, -1, -2):
        for bad in (complex(np.nan, 0.0), complex(0.1, np.inf)):
            i = next(i for i, s in enumerate(items) if s.order == order)
            broken = list(items)
            broken[i] = SymbolSample(items[i].covector, order, bad)
            with pytest.raises(InconsistentData, match="not finite"):
                acoustic_recover_jets(broken, model.minus, 2,
                                      geometry=InterfaceGeometry())
    for order in (0, -1):
        i = next(i for i, s in enumerate(e_items) if s.order == order)
        value = e_items[i].value.copy()
        value[0, 1] = np.nan
        broken = list(e_items)
        broken[i] = SymbolSample(e_items[i].covector, order, value)
        with pytest.raises(InconsistentData, match="not finite"):
            elastic_recover_jets(broken, e_model.minus, 1,
                                 geometry=InterfaceGeometry())


def test_missing_order():
    covs = [Covector(1.0, (0.0, 0.0)), Covector(1.0, (0.2, 0.0)),
            Covector(1.0, (0.35, 0.0))]
    samples = _acoustic_samples(CONTRAST, covs, 0)
    with pytest.raises(MissingOrder):
        acoustic_recover_jets(samples, CONTRAST.minus, 1,
                              geometry=InterfaceGeometry())


def _curved_depth4_samples(seed):
    model = random_acoustic_model(np.random.default_rng(seed), 4, curved=True)
    covs = hyperbolic_grid(model, 8) + cross_grid(model, 8)
    return model, _acoustic_samples(model, covs, 4)


@pytest.mark.parametrize("seed", [2, 12, 42, 57])
def test_noise_free_curved_depth4_recovers(seed):
    # the order -4 right-hand side (measured - base) is about 1e-7 of the
    # symbols it is the difference of, so its least-squares residual is
    # their round-off, not an inconsistency of the data
    model, samples = _curved_depth4_samples(seed)
    report = acoustic_recover_jets(samples, model.minus, 4)
    worst = {}
    for name in ("rho", "cs"):
        rec, tru = getattr(report.plus, name), getattr(model.plus, name)
        for k, (r, t) in enumerate(zip(rec.coeffs, tru.coeffs)):
            worst[k] = max(worst.get(k, 0.0), abs(r - t) / abs(t))
    assert worst[0] <= 1e-8 and worst[1] <= 1e-8
    assert worst[2] <= 1e-6 and worst[3] <= 1e-6
    # the recovered curvatures and the lower coefficients each carry their
    # round-off into the top one: up to 5.8e-6 on these seeds
    assert worst[4] <= 1e-5
    rec = sorted(report.kappas)
    true = sorted((model.geometry.kappa1, model.geometry.kappa2))
    assert max(abs(a - b) for a, b in zip(rec, true)) <= 1e-6


def test_perturbed_curved_depth4_raises():
    # a 1e-9 relative change of one order -4 value is far above round-off
    model, samples = _curved_depth4_samples(2)
    items = list(samples.samples)
    i = next(i for i, s in enumerate(items) if s.order == -4)
    items[i] = SymbolSample(items[i].covector, -4, items[i].value * (1 + 1e-9))
    with pytest.raises(InconsistentData, match="order -4"):
        acoustic_recover_jets(items, model.minus, 4)


def test_order_independence(rng):
    model = random_acoustic_model(rng, 2)
    covs = hyperbolic_grid(model, 5)
    samples = list(_acoustic_samples(model, covs, 2).samples)
    rep_a = acoustic_recover_jets(SymbolSamples(samples), model.minus, 2,
                                  geometry=InterfaceGeometry())
    rep_b = acoustic_recover_jets(SymbolSamples(samples[::-1]), model.minus, 2,
                                  geometry=InterfaceGeometry())
    assert rep_a.plus.rho == rep_b.plus.rho
    assert rep_a.plus.cs == rep_b.plus.cs


def test_angle_set_invariance(rng):
    model = random_acoustic_model(rng, 2)
    grid_a = hyperbolic_grid(model, 5)
    b_crit = model.critical_slowness()
    grid_b = [Covector(1.0, (b, 0.0))
              for b in np.linspace(0.1, 0.7, 6) * b_crit]
    rep_a = acoustic_recover_jets(_acoustic_samples(model, grid_a, 2),
                                  model.minus, 2, geometry=InterfaceGeometry())
    rep_b = acoustic_recover_jets(_acoustic_samples(model, grid_b, 2),
                                  model.minus, 2, geometry=InterfaceGeometry())
    assert max_rel_err(rep_a.plus.rho, rep_b.plus.rho) <= 1e-8
    assert max_rel_err(rep_a.plus.cs, rep_b.plus.cs) <= 1e-8


def test_recovered_jets_reproduce_transmission(rng):
    model = random_acoustic_model(rng, 3)
    covs = hyperbolic_grid(model, 6)
    series = [forward_symbols(c, model, 3) for c in covs]
    report = acoustic_recover_jets(SymbolSamples.from_acoustic_series(series),
                                   model.minus, 3, geometry=InterfaceGeometry())
    rebuilt = InterfaceModel(model.minus, report.plus, model.geometry)
    for cov, truth in zip(covs, series):
        redo = forward_symbols(cov, rebuilt, 3)
        for (_, _, t_true), (_, _, t_rec) in zip(truth.orders, redo.orders):
            assert abs(t_rec - t_true) <= 1e-8


def test_symbol_is_affine_in_top_unknowns(rng):
    # the linearized per-order solves are exact because the order -k
    # symbol is affine in the k-th derivative values (at any fixed
    # geometry) and, at order -1 only, in the principal curvatures;
    # deeper orders are nonlinear in the curvatures, which is why the
    # recovery pins them at order -1 and fixes them afterwards
    from reflectjet.acoustic import forward_series

    minus = AcousticSideJet(Jet([1.1, 0.3, -0.2]), Jet([0.9, 0.2, 0.1]))
    cov = Covector(1.0, (0.4, 0.2))
    geom = InterfaceGeometry(0.6, -0.3)

    def run2(c2, r2):
        plus = AcousticSideJet(Jet([1.4, -0.3, r2]), Jet([1.2, 0.5, c2]))
        return forward_series(cov, minus, plus, geom, 2)[2][0]

    base = run2(0.0, 0.0)
    col_c = run2(1.0, 0.0) - base
    col_r = run2(0.0, 1.0) - base
    for _ in range(10):
        c2, r2 = rng.uniform(-1.0, 1.0, size=2)
        assert run2(c2, r2) - base == pytest.approx(c2 * col_c + r2 * col_r,
                                                    rel=1e-11, abs=1e-13)

    def run1(k1, k2):
        plus = AcousticSideJet(Jet([1.4, -0.3]), Jet([1.2, 0.5]))
        return forward_series(cov, minus.truncate(1), plus,
                              InterfaceGeometry(k1, k2), 1)[1][0]

    base1 = run1(0.0, 0.0)
    col1 = run1(1.0, 0.0) - base1
    col2 = run1(0.0, 1.0) - base1
    for _ in range(5):
        k1, k2 = rng.uniform(-1.0, 1.0, size=2)
        assert run1(k1, k2) - base1 == pytest.approx(k1 * col1 + k2 * col2,
                                                     rel=1e-11, abs=1e-14)


# --- relative amplitudes ------------------------------------------------------


def _relative_samples(model, b_ref, bs, noise=0.0, rng=None):
    ref = forward_symbols(Covector(1.0, (b_ref, 0.0)), model, 0).orders[0][1]
    out = []
    for b in bs:
        val = forward_symbols(Covector(1.0, (b, 0.0)), model, 0).orders[0][1]
        ratio = (val / ref).real
        if noise:
            ratio *= 1.0 + noise * rng.uniform(-1.0, 1.0)
        out.append(SymbolSample(Covector(1.0, (b, 0.0)), 0, ratio))
    return out


def test_relative_round_trip():
    samples = _relative_samples(CONTRAST, 0.05, [0.15, 0.25, 0.35, 0.42])
    mu_plus, cs_plus = acoustic_recover_relative(
        samples, CONTRAST.minus, Covector(1.0, (0.05, 0.0)))
    assert mu_plus == pytest.approx(4.0, rel=1e-9)
    assert cs_plus == pytest.approx(2.0, rel=1e-9)


def test_relative_transparent_is_ambiguous():
    side = AcousticSideJet(Jet([1.0]), Jet([1.0]))
    model = InterfaceModel(side, side)
    samples = [SymbolSample(Covector(1.0, (b, 0.0)), 0, 1.0)
               for b in (0.2, 0.3, 0.4)]
    with pytest.raises(AmbiguousRoot):
        acoustic_recover_relative(samples, side, Covector(1.0, (0.05, 0.0)))


def _seed0_ratios(scale=1.0, fractions=(0.3, 0.6)):
    """The ratio samples, minus side and reference of a seeded flat model
    at `fractions` of its critical slowness, the ratios times `scale`."""
    model = random_acoustic_model(np.random.default_rng(0), 0)
    b_crit = model.critical_slowness()
    samples = _relative_samples(model, 0.05 * b_crit,
                                [f * b_crit for f in fractions])
    return ([SymbolSample(s.covector, 0, s.value * scale) for s in samples],
            model.minus, Covector(1.0, (0.05 * b_crit, 0.0)))


def test_relative_loose_tolerance_is_ambiguous():
    # at residual_tol 0.1 a second scan root explains the ratios too, and
    # the error carries both parameter sets, the true one among them
    samples, minus, reference = _seed0_ratios()
    truth = acoustic_recover_relative(samples, minus, reference)
    with pytest.raises(AmbiguousRoot) as info:
        acoustic_recover_relative(samples, minus, reference,
                                  residual_tol=0.1)
    assert len(info.value.roots) == 2 and truth in info.value.roots


def test_relative_noise_sensitivity(rng):
    samples = _relative_samples(CONTRAST, 0.05, [0.15, 0.25, 0.35, 0.42],
                                noise=1e-8, rng=rng)
    mu_plus, cs_plus = acoustic_recover_relative(
        samples, CONTRAST.minus, Covector(1.0, (0.05, 0.0)),
        residual_tol=1e-4)
    assert abs(mu_plus - 4.0) <= 1e-5 * 4.0
    assert abs(cs_plus - 2.0) <= 1e-5 * 2.0


# --- elastic ------------------------------------------------------------------


def test_elastic_order0_round_trip():
    minus = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    plus = ElasticSideJet(Jet([1.5]), Jet([1.2]), Jet([2.5]))
    model = InterfaceModel(minus, plus)
    covs = hyperbolic_grid(model, 6)
    rho, cs, cp, _, _ = elastic_recover_order0(_elastic_samples(model, covs, 0),
                                               minus)
    assert rho == pytest.approx(1.5, rel=1e-8)
    assert cs == pytest.approx(1.2, rel=1e-8)
    assert cp == pytest.approx(2.5, rel=1e-8)


def test_elastic_order0_unmatched_pp_raises_no_root():
    minus = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    plus = ElasticSideJet(Jet([1.5]), Jet([1.2]), Jet([2.5]))
    model = InterfaceModel(minus, plus)
    covs = hyperbolic_grid(model, 6)
    samples = list(_elastic_samples(model, covs, 0).samples)
    # a P-P entry at the probe (the smallest |b|) that no cp reaches
    value = samples[0].value.copy()
    value[0, 0] = 0.999
    samples[0] = SymbolSample(samples[0].covector, 0, value)
    with pytest.raises(NoRoot, match="no compressional speed"):
        elastic_recover_order0(samples, minus)


def test_elastic_order0_identical_media(rng):
    side = ElasticSideJet(Jet([1.1]), Jet([0.9]), Jet([1.8]))
    model = InterfaceModel(side, side)
    covs = hyperbolic_grid(model, 5)
    rho, cs, cp, _, _ = elastic_recover_order0(_elastic_samples(model, covs, 0),
                                               side)
    assert rho == pytest.approx(1.1, rel=1e-7)
    assert cs == pytest.approx(0.9, rel=1e-7)
    assert cp == pytest.approx(1.8, rel=1e-6)


def test_r33_alone_determines_rho_cs(rng):
    # feed the closed-form SH values only: (rho+, cs+) come out without
    # any P-SV entry
    model = random_elastic_model(rng, 0)
    covs = hyperbolic_grid(model, 5)
    samples = [SymbolSample(c, 0, sh_reflection(c, model.minus, model.plus))
               for c in covs]
    from reflectjet.inversion import _order0_fit
    mu_minus = model.minus.rho[0] * model.minus.cs[0] ** 2
    cs_plus, rho_plus, _, _, _ = _order0_fit(
        [s.slowness for s in samples], [s.value for s in samples],
        mu_minus, model.minus.cs[0], 1e-8)
    assert cs_plus == pytest.approx(model.plus.cs[0], rel=1e-9)
    assert rho_plus == pytest.approx(model.plus.rho[0], rel=1e-9)


def test_scan_roots_counts_exact_zeros_at_both_ends():
    from reflectjet.inversion import _scan_roots
    for shift in (1.0, 2.0):
        for scan in (None, lambda grid: [x - shift for x in grid]):
            roots = _scan_roots(lambda x: x - shift, 1.0, 2.0, scan)
            assert roots == [shift] and type(roots[0]) is float
    roots = _scan_roots(lambda x: x - 1.5, 1.0, 2.0)
    assert roots == [pytest.approx(1.5)] and type(roots[0]) is float


def _bracket_family(rng):
    """A random function: a polynomial, a trigonometric or exponential
    one, or a flat cubed arctangent, whose root runs Brent's method out
    of iterations."""
    kind = rng.randrange(4)
    if kind == 0:
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randrange(2, 7))]
        return lambda x: sum(c * x ** k for k, c in enumerate(coeffs))
    if kind == 1:
        a, w = rng.uniform(0.5, 3.0), rng.uniform(0.5, 20.0)
        p = rng.uniform(0.0, 6.0)
        return lambda x: a * math.sin(w * x + p) + 0.1 * math.cos(3.0 * x)
    if kind == 2:
        a, c = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
        return lambda x: math.exp(a * x) - c
    r = rng.uniform(-1.0, 1.0)
    return lambda x: math.atan(x - r) ** 3


def _hex_outcome(fn):
    try:
        return fn().hex()
    except (RuntimeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_brent_is_scipys_brentq():
    # the root, its bits and its error are brentq's, from two calls fewer:
    # the bracket's values are the caller's
    from scipy.optimize import brentq
    rng = random.Random(24)
    brackets = failures = 0
    while brackets < 5000:
        func = _bracket_family(rng)
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.01, 4.0)
        fa, fb = func(a), func(b)
        if not fa * fb < 0.0:
            continue
        xtol = rng.choice([1e-12, 2e-12, 1e-8])
        calls = Counter()

        def counted(tag):
            def f(x):
                calls[tag] += 1
                return func(x)
            return f

        theirs = _hex_outcome(lambda: brentq(counted("scipy"), a, b,
                                             xtol=xtol))
        ours = _hex_outcome(lambda: inversion._brent(counted("port"), a, b,
                                                     fa, fb, xtol))
        assert ours == theirs, (a, b, xtol)
        assert calls["port"] == calls["scipy"] - 2
        brackets += 1
        failures += theirs.startswith("RuntimeError")
    assert failures > 500


def test_brent_raises_scipys_error_on_a_nan_value():
    from scipy.optimize import brentq

    def func(x):
        return math.nan if 0.1 < x < 0.9 else x - 0.5

    theirs = _hex_outcome(lambda: brentq(func, 0.0, 1.0, xtol=1e-12))
    ours = _hex_outcome(lambda: inversion._brent(func, 0.0, 1.0, -0.5, 0.5,
                                                 1e-12))
    assert ours == theirs == ("ValueError: The function value at x=0.5 is "
                              "NaN; solver cannot continue.")


def test_scan_values_are_the_scalar_calls(monkeypatch):
    # `_brent` takes the bracket's values from the scan, which holds only
    # while they are the values of the scalar calls it makes itself
    scans = []
    real = inversion._scan_roots

    def record(func, lo, hi, scan=None):
        scans.append((func, lo, hi, scan))
        return real(func, lo, hi, scan)

    monkeypatch.setattr(inversion, "_scan_roots", record)
    for seed in range(3):
        model = random_elastic_model(np.random.default_rng(seed), 0)
        elastic_recover_order0(
            _elastic_samples(model, hyperbolic_grid(model, 5), 0),
            model.minus)
    samples = _relative_samples(CONTRAST, 0.05, [0.15, 0.25, 0.35, 0.42])
    acoustic_recover_relative(samples, CONTRAST.minus,
                              Covector(1.0, (0.05, 0.0)))
    assert [scan is None for *_, scan in scans] == [False] * 3 + [True]
    for func, lo, hi, scan in scans:
        grid = np.linspace(lo, hi, inversion._ROOT_SCAN_POINTS)
        scalar = [func(x).hex() for x in grid.tolist()]
        if scan is not None:
            assert [v.hex() for v in scan(grid.tolist())] == scalar
        else:
            # numpy's scalars give the same bits too
            assert [float(func(x)).hex() for x in grid] == scalar


def test_elastic_roundtrip_loads_no_scipy(tmp_path):
    code = ("import sys\n"
            "from reflectjet.cli import main\n"
            "code = main(['roundtrip', '--kind', 'elastic', '--depth', '1',\n"
            "             '--count', '1', '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "rt.json")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_acoustic_roundtrip_loads_no_elastic_engine(tmp_path):
    code = ("import sys\n"
            "from reflectjet.cli import main\n"
            "code = main(['roundtrip', '--kind', 'acoustic', '--depth', '1',\n"
            "             '--count', '1', '--out', sys.argv[1]])\n"
            "print(code, 'reflectjet.elastic' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           str(tmp_path / "rt.json")],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def _scan_pluses(monkeypatch, samples, minus):
    """The probe minus side and the plus sides, (rho, cs, cp) triples, of
    the order-0 cp scan, recorded from its one stacked call."""
    calls = []
    real = elastic._order0

    def record(ms, sides):
        calls.append((ms, list(sides)))
        return real(ms, sides)

    with monkeypatch.context() as patch:
        patch.setattr(elastic, "_order0", record)
        elastic_recover_order0(samples, minus)
    assert len(calls[0][1]) == 96
    return calls[0]


def _scalar_interface(ms, side):
    """The 6x6 matrix of one plus side, a (rho, cs, cp) triple, its
    condition number and its order-0 solution, each from a call on that
    matrix alone, the columns from the side's mode contexts."""
    plus = ElasticSideJet(*(Jet([v]) for v in side))
    ctx = elastic._side_ctxs(ms.cov, [plus], ms.kt, ms.stretch, ms.h,
                             ms.depth, ms.tol, ("T",))[1][0]
    top = elastic._ctx_columns(ctx["T", "P"], ctx["T", "S"])
    m6 = elastic._interface(ms, [top])[0][0]
    return np.linalg.cond(m6), np.linalg.solve(m6, ms.order0_rhs)


@pytest.mark.parametrize("values", [
    (1.1, 0.9, 1.8), (0.0, 0.9, 1.8), (1.1, -0.9, 1.8), (1.1, 0.9, 0.0),
    (1.1, 0.9, -1.8), (1.1, 0.9, 1.0), (1.1, 0.9, math.nan),
    (1.1, 0.9, math.inf), (math.inf, 0.9, 1.8), (1.1, math.nan, 1.8),
    (np.float64(1.1), np.float64(0.9), np.float64(1.0))])
def test_cp_candidates_get_the_side_checks(monkeypatch, values):
    # the cp scan hands `_order0` values, not plus sides: each candidate
    # gets the checks a plus side of its values makes (positive, convex,
    # finite) as scalar tests, with the same error, and none reaches
    # `_order0` unchecked
    def side():
        return ElasticSideJet(*(Jet([v]) for v in values)) and "checked"

    def check():
        return check_elastic_side(*values, values) or "checked"

    assert outcome(check) == outcome(side)
    model = random_elastic_model(np.random.default_rng(5), 0)
    samples = _elastic_samples(model, hyperbolic_grid(model, 5), 0)
    checked, handed = [], []
    real_check, real_order0 = inversion.check_elastic_side, elastic._order0

    def record_check(*args):
        checked.append(args[:3])
        return real_check(*args)

    def record_order0(ms, sides):
        handed.extend(sides)
        return real_order0(ms, sides)

    monkeypatch.setattr(inversion, "check_elastic_side", record_check)
    monkeypatch.setattr(elastic, "_order0", record_order0)
    elastic_recover_order0(samples, model.minus)
    assert len(handed) > 96 and checked == handed


def test_cp_scan_stacked_equals_scalar(monkeypatch):
    model = random_elastic_model(np.random.default_rng(5), 0)
    samples = _elastic_samples(model, hyperbolic_grid(model, 5), 0)
    probe, pluses = _scan_pluses(monkeypatch, samples, model.minus)
    meas = np.asarray(samples.at_order(0)[0].value, dtype=complex)
    stacked = elastic._order0(probe, pluses)
    for plus, x in zip(pluses, stacked):
        r0, t0 = x[:3], x[3:]
        _, sol = _scalar_interface(probe, plus)
        assert repr(r0.tolist()) == repr(sol[:3].tolist())
        assert repr(t0.tolist()) == repr(sol[3:].tolist())
        gap = float((sol[:3] - meas)[0, 0].real)
        assert repr(float((r0 - meas)[0, 0].real)) == repr(gap)


def test_cp_scan_singular_point_raises_as_scalar(monkeypatch):
    # the stacked check raises for the first singular point in scan
    # order, with the condition number a call on that matrix alone gives
    model = random_elastic_model(np.random.default_rng(5), 0)
    samples = _elastic_samples(model, hyperbolic_grid(model, 5), 0)
    probe, pluses = _scan_pluses(monkeypatch, samples, model.minus)
    conds = [_scalar_interface(probe, p)[0] for p in pluses]
    mid = len(conds) // 2
    limit = max(conds[:mid])
    assert conds[mid] > limit
    monkeypatch.setattr(elastic, "_COND_LIMIT", limit)
    with pytest.raises(SingularInterfaceSystem) as err:
        elastic_recover_order0(samples, model.minus)
    assert str(err.value) == ("elastic interface system is singular "
                              f"(cond={conds[mid]:.3e})")
    assert repr(err.value.condition) == repr(conds[mid])


def test_elastic_jets_round_trip_depth1(rng):
    model = random_elastic_model(rng, 1)
    covs = hyperbolic_grid(model, 6)
    report = elastic_recover_jets(_elastic_samples(model, covs, 1),
                                  model.minus, 1, geometry=InterfaceGeometry())
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-6
    assert max_rel_err(report.plus.cs, model.plus.cs) <= 1e-6
    assert max_rel_err(report.plus.cp, model.plus.cp) <= 1e-6


def test_elastic_null_cp_derivative(rng):
    minus = ElasticSideJet(Jet([1.0, 0.2]), Jet([1.0, -0.1]), Jet([2.0, 0.3]))
    plus = ElasticSideJet(Jet([1.3, -0.4]), Jet([1.1, 0.5]), Jet([2.2, 0.0]))
    model = InterfaceModel(minus, plus)
    covs = hyperbolic_grid(model, 6)
    report = elastic_recover_jets(_elastic_samples(model, covs, 1),
                                  minus, 1, geometry=InterfaceGeometry())
    assert abs(report.plus.cp[1]) <= 1e-9


def test_elastic_curved_round_trip(rng):
    model = random_elastic_model(rng, 1, curved=True)
    covs = two_direction_grid(model, 4)
    report = elastic_recover_jets(_elastic_samples(model, covs, 1),
                                  model.minus, 1, geometry=None)
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-8
    rec = sorted(report.kappas)
    true = sorted((model.geometry.kappa1, model.geometry.kappa2))
    assert max(abs(a - b) for a, b in zip(rec, true)) <= 1e-7


def test_elastic_minus_side_built_once_per_covector_and_order(rng,
                                                              monkeypatch):
    # as in the acoustic recovery: one minus side per covector and order,
    # two more per covector at order -1 for the curvature columns, and
    # one per order-0 sample for the cp scan and the misfit
    model = random_elastic_model(rng, 2, curved=True)
    covs = two_direction_grid(model, 4)
    samples = _elastic_samples(model, covs, 2)
    builds = Counter()
    real = elastic.curvature_jets

    def counted(cov, geometry, depth):
        builds[cov, geometry, depth] += 1
        return real(cov, geometry, depth)

    monkeypatch.setattr(elastic, "curvature_jets", counted)
    report = elastic_recover_jets(samples, model.minus, 2, geometry=None)
    expected = {}
    for cov in covs:
        expected[cov, None, 0] = 1
        for gm in (InterfaceGeometry(), InterfaceGeometry(1.0, 0.0),
                   InterfaceGeometry(0.0, 1.0)):
            expected[cov, gm, 1] = 1
        expected[cov, InterfaceGeometry(*report.kappas), 2] = 1
    assert builds == expected
    assert max_rel_err(report.plus.rho, model.plus.rho) <= 1e-6


def test_elastic_degenerate_set_rejected_before_order0(rng, monkeypatch):
    # one tangential direction cannot pin the curvatures: that shows in
    # the sample set, so no order-0 root scan may run first
    import reflectjet.inversion as inversion

    def order0(*args, **kwargs):
        raise AssertionError("order-0 recovery ran on a degenerate sample set")

    model = random_elastic_model(rng, 1, curved=True)
    samples = _elastic_samples(model, hyperbolic_grid(model, 6), 1)
    monkeypatch.setattr(inversion, "elastic_recover_order0", order0)
    with pytest.raises(DegenerateAngles):
        elastic_recover_jets(samples, model.minus, 1, geometry=None)


def test_elastic_report_order0_diagnostics(rng):
    model = random_elastic_model(rng, 1)
    exact = _elastic_samples(model, hyperbolic_grid(model, 6), 1)
    # a small order-0 perturbation keeps the misfit off round-off
    samples = SymbolSamples([
        SymbolSample(s.covector, s.order,
                     s.value + (1e-10 if s.order == 0 else 0.0))
        for s in exact.samples])
    report = elastic_recover_jets(samples, model.minus, 1,
                                  geometry=InterfaceGeometry())
    fitted = InterfaceModel(model.minus.truncate(0), report.plus.truncate(0))
    misfit = scale = 0.0
    for s in samples.at_order(0):
        r0 = principal_rt_matrices(s.covector, fitted)[0]
        misfit += float(np.linalg.norm(r0 - s.value))
        scale += float(np.linalg.norm(s.value))
    assert misfit > 0.0
    assert report.residuals[0] == pytest.approx(misfit / scale, rel=1e-9)
    assert report.conditions[0] != 1.0
    assert report.conditions[0] >= 1.0



# --- input checks -------------------------------------------------------------


def _fit_reflections(b_values, q_sq, mu_minus=1.0, cs_minus=1.0):
    """The reflections R whose order-0 fit data q^2 = (L mu- xi3I)^2 are
    `q_sq`, with L = (1 - R) / (1 + R)."""
    lams = [math.sqrt(q2) / (mu_minus * math.sqrt(1.0 / cs_minus ** 2 - b * b))
            for b, q2 in zip(b_values, q_sq)]
    return [(1.0 - lam) / (1.0 + lam) for lam in lams]


def _one_order_minus_one(model):
    """Depth-1 samples with order -1 at one slowness only."""
    covs = hyperbolic_grid(model, 4)
    samples = _acoustic_samples(model, covs, 1).samples
    return SymbolSamples([s for s in samples
                          if s.order == 0 or s.covector is covs[0]])


def _sh_only(b_values, minus, cs_plus):
    """Order-0 elastic samples whose SH entry comes from a plus side with
    rho = 1 and speed `cs_plus` (every other entry 0), the fit data q^2 =
    A - B b^2 with B = mu+^2 and A = B / cs+^2."""
    mu_plus = cs_plus ** 2
    q_sq = [mu_plus ** 2 * (1.0 / cs_plus ** 2 - b * b) for b in b_values]
    mu_minus = minus.rho[0] * minus.cs[0] ** 2
    out = []
    for b, r in zip(b_values, _fit_reflections(b_values, q_sq, mu_minus,
                                               minus.cs[0])):
        value = np.zeros((3, 3), dtype=complex)
        value[2, 2] = r
        out.append(SymbolSample(Covector(1.0, (b, 0.0)), 0, value))
    return SymbolSamples(out)


def _one_bad_entry(model):
    """Order-0 elastic samples with one entry off, outside the SH entry
    and the P-P entry of the sample the cp root scan probes."""
    samples = list(_elastic_samples(model, hyperbolic_grid(model, 4),
                                    0).samples)
    last = samples[-1]
    value = np.array(last.value)
    value[0, 1] += 0.1
    samples[-1] = SymbolSample(last.covector, 0, value)
    return SymbolSamples(samples)


_E_MINUS = ElasticSideJet(Jet([1.0]), Jet([0.5]), Jet([1.0]))
_E_MODEL0 = random_elastic_model(np.random.default_rng(7), 0)
_A_MODEL1 = random_acoustic_model(np.random.default_rng(7), 1)


@pytest.mark.parametrize("call, error", [
    (lambda: inversion._order0_fit([0.1, 0.2], [1.0, 0.5], 1.0, 1.0, 1e-8),
     "InconsistentData: order-0 reflection |R| = 1 >= 1 is outside the "
     "hyperbolic regime"),
    (lambda: inversion._order0_fit([0.1, 1.5], [0.5, 0.5], 1.0, 1.0, 1e-8),
     "InconsistentData: sample slowness b=1.5 is post-critical for the "
     "minus side"),
    (lambda: inversion._order0_fit(  # q^2 = 1 + b^2: B < 0
        [0.1, 0.3, 0.5], _fit_reflections([0.1, 0.3, 0.5], [1.01, 1.09, 1.25]),
        1.0, 1.0, 1e-8),
     "InconsistentData: order-0 fit produced a non-physical impedance"),
    (lambda: inversion._order0_fit(  # the fitted line crosses 0 before b^2
        [0.1, 0.5, 0.8], _fit_reflections([0.1, 0.5, 0.8], [1.0, 0.2, 0.01]),
        1.0, 1.0, 1.0),
     "InconsistentData: recovered plus-side speed is post-critical for the "
     "sample grid"),
    (lambda: acoustic_recover_jets(_one_order_minus_one(_A_MODEL1),
                                   _A_MODEL1.minus, 1,
                                   geometry=_A_MODEL1.geometry),
     "DegenerateAngles: order -1 needs >= 2 distinct |b| samples"),
    (lambda: acoustic_recover_relative(*_seed0_ratios(fractions=(0.3,))),
     "DegenerateAngles: relative-amplitude recovery needs >= 2 "
     "non-reference samples"),
    (lambda: acoustic_recover_relative(*_seed0_ratios(1.05)),
     "NoRoot: no consistent plus-side speed in the bracket"),
    (lambda: SymbolSamples.from_acoustic_series([]).at_order(-1),
     "MissingOrder: no samples at symbol order -1"),
    (lambda: elastic_recover_order0(_sh_only([0.9, 0.95], _E_MINUS, 1.0),
                                    _E_MINUS),
     "NoRoot: no admissible plus-side compressional speed: the sample grid "
     "is post-critical for every convex cp"),
    # the cp root of the probe's P-P entry does not explain every entry
    (lambda: elastic_recover_order0(_one_bad_entry(_E_MODEL0),
                                    _E_MODEL0.minus),
     "InconsistentData: order-0 elastic matrices disagree with the "
     "recovered parameters (misfit "),
])
def test_recovery_rejects_inconsistent_input(call, error):
    # each error is raised by its own check, with its own message
    assert outcome(call).startswith(error)
