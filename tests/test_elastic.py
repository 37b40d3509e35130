"""Elastic matrix-symbol engine: the 6x6 solve vs the SH closed form,
block structure, and the acoustic engine as the oracle for the decoupled
SH channel."""

import collections
import gc
import itertools
import math
import subprocess
import sys
import weakref

import numpy as np
import pytest

from conftest import by_source, child_env, outcome, replays_only
from reflectjet import elastic, inversion, tape
from reflectjet.acoustic import forward_series, forward_symbols
from reflectjet.elastic import (
    ELASTIC_DEPTH_CAP,
    forward_series_elastic,
    forward_symbols_elastic,
    principal_rt_matrices,
    sh_reflection,
)
from reflectjet.errors import (
    CascadeIncompatible,
    DepthExceeded,
    EvanescentError,
    SingularInterfaceSystem,
)
from reflectjet.inversion import SymbolSamples, elastic_recover_jets
from reflectjet.jets import Jet
from reflectjet.medium import (
    GLANCING_TOL,
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    vertical_wavenumber,
)
from reflectjet.sampling import (
    hyperbolic_grid,
    random_acoustic_model,
    random_elastic_model,
)


def _pair(rng, depth=0, contrast=2.0):
    return random_elastic_model(rng, depth, contrast=contrast)


def test_identical_media_identity():
    side = ElasticSideJet(Jet([1.3]), Jet([0.9]), Jet([1.9]))
    model = InterfaceModel(side, side)
    r, t = principal_rt_matrices(Covector(1.0, (0.4, 0.1)), model)
    assert np.abs(r).max() <= 1e-13
    assert np.abs(t - np.eye(3)).max() <= 1e-13


def test_sh_entry_matches_closed_form(rng):
    for _ in range(100):
        model = _pair(rng)
        b = rng.uniform(0.0, 0.85) * model.critical_slowness()
        cov = Covector(1.0, (b, 0.0))
        r, _ = principal_rt_matrices(cov, model)
        closed = sh_reflection(cov, model.minus, model.plus)
        assert abs(r[2, 2] - closed) <= 1e-12


def test_sh_reflection_examples():
    minus = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    plus = ElasticSideJet(Jet([1.0]), Jet([2.0]), Jet([4.0]))  # mu+ = 4
    cov = Covector(1.0, (0.0, 0.0))
    assert sh_reflection(cov, minus, minus) == 0.0
    assert sh_reflection(cov, minus, plus) == pytest.approx(-1.0 / 3.0)


def test_sh_flux(rng):
    for _ in range(50):
        model = _pair(rng)
        b = rng.uniform(0.0, 0.8) * model.critical_slowness()
        cov = Covector(1.0, (b, 0.0))
        r, t = principal_rt_matrices(cov, model)
        zi = vertical_wavenumber(cov, model.minus.cs[0])
        zt = vertical_wavenumber(cov, model.plus.cs[0])
        mu_m = model.minus.rho[0] * model.minus.cs[0] ** 2
        mu_p = model.plus.rho[0] * model.plus.cs[0] ** 2
        r33 = r[2, 2].real
        t33 = t[2, 2].real
        assert abs(mu_m * zi * (1 - r33 ** 2) - mu_p * zt * t33 ** 2) \
            <= 1e-12 * mu_m * zi


def test_block_decoupling_all_orders(rng):
    # the SH channel (slot 3) decouples from P-SV at every order of every
    # depth, and the coupling entries are exactly +0.0, which the CSV
    # output shows
    for curved in (False, True) * 5:
        model = random_elastic_model(rng, 2, curved=curved)
        b_crit = model.critical_slowness()
        for b in (0.0, rng.uniform(0.05, 0.8) * b_crit, 0.999 * b_crit):
            for angle in (0.0, rng.uniform(0.0, 2.0 * np.pi)):
                cov = Covector(1.0, (b * np.cos(angle), b * np.sin(angle)))
                for depth in range(3):
                    series = forward_symbols_elastic(cov, model, depth)
                    for _, r, t in series.orders:
                        for m in (r, t):
                            for i, j in ((2, 0), (2, 1), (0, 2), (1, 2)):
                                z = complex(m[i, j])
                                assert z == 0.0
                                assert math.copysign(1.0, z.real) == 1.0
                                assert math.copysign(1.0, z.imag) == 1.0


def test_every_check_runs_in_every_channel(rng, monkeypatch):
    # each column runs only its own channel, yet every step of every
    # column still checks all six (branch, mode) cascades, in order, on
    # a fresh minus side and on a reused one
    model = _pair(rng, depth=2)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.1))
    keys = []
    check = elastic._check_compatible

    def record(key, *args):
        keys.append(key)
        return check(key, *args)

    monkeypatch.setattr(elastic, "_check_compatible", record)
    ms = elastic._MinusSide(cov, model.minus, None, 2, GLANCING_TOL)
    for _ in range(2):
        keys.clear()
        elastic._group(ms, [model.plus])[0]
        # 3 columns (P, SV, SH) times steps 1 and 2
        assert keys == list(elastic._CHECK_KEYS) * 3 * 2
    # so does every member of a group that shares the reflected cascade
    keys.clear()
    elastic._group(ms, _unit_group(model.plus, 2))
    assert keys == list(elastic._CHECK_KEYS) * 3 * 2 * 4


def test_sh_channel_equals_acoustic_engine(rng):
    # the decoupled SH sub-problem must reproduce the acoustic symbols
    # with the (rho, cs) identification, including curvature, at every
    # order the elastic engine computes
    for curved in (False, True):
        for _ in range(5):
            model = random_elastic_model(rng, 2, curved=curved)
            acoustic_model = InterfaceModel(
                AcousticSideJet(model.minus.rho, model.minus.cs),
                AcousticSideJet(model.plus.rho, model.plus.cs),
                model.geometry,
            )
            b = rng.uniform(0.05, 0.8) * model.critical_slowness()
            cov = Covector(1.0, (b, 0.3 * b))
            es = forward_symbols_elastic(cov, model, 2)
            as_ = forward_symbols(cov, acoustic_model, 2)
            assert len(es.orders) == len(as_.orders) == 3
            for (j, r, t), (_, a_r, a_t) in zip(es.orders, as_.orders):
                assert r[2, 2] == pytest.approx(a_r, rel=1e-11, abs=1e-13)
                assert t[2, 2] == pytest.approx(a_t, rel=1e-11, abs=1e-13)


def test_forward_identical_media_all_orders(rng):
    side = ElasticSideJet(Jet([1.0, 0.4, -0.2]), Jet([1.0, -0.3, 0.1]),
                          Jet([2.0, 0.5, 0.3]))
    model = InterfaceModel(side, side)
    series = forward_symbols_elastic(Covector(1.0, (0.3, 0.0)), model, 2)
    for j, r, t in series.orders:
        assert np.abs(r).max() <= 1e-13
        assert np.abs(t - (np.eye(3) if j == 0 else 0.0)).max() <= 1e-12


def test_piecewise_constant_lower_orders_depend_on_order0_data(rng):
    model = InterfaceModel(
        ElasticSideJet(Jet([1.0, 0, 0]), Jet([1.0, 0, 0]), Jet([2.0, 0, 0])),
        ElasticSideJet(Jet([1.4, 0, 0]), Jet([1.2, 0, 0]), Jet([2.4, 0, 0])),
    )
    series = forward_symbols_elastic(Covector(1.0, (0.3, 0.0)), model, 2)
    assert np.abs(series.orders[1][1]).max() == 0.0
    assert np.abs(series.orders[2][1]).max() == 0.0
    # turning on a first derivative makes order -1 nonzero
    bumped = InterfaceModel(
        model.minus,
        ElasticSideJet(Jet([1.4, 0.5, 0]), Jet([1.2, 0, 0]), Jet([2.4, 0, 0])),
    )
    series_b = forward_symbols_elastic(Covector(1.0, (0.3, 0.0)), bumped, 2)
    assert np.abs(series_b.orders[1][1]).max() > 1e-3


def test_homogeneity_matrix_orders(rng):
    for _ in range(5):
        model = _pair(rng, depth=2)
        b = rng.uniform(0.1, 0.7) * model.critical_slowness()
        s = rng.uniform(0.4, 3.0)
        cov = Covector(1.0, (b, 0.2 * b))
        base = forward_symbols_elastic(cov, model, 2)
        scaled = forward_symbols_elastic(cov.scaled(s), model, 2)
        for (j, r, t), (_, rs, ts) in zip(base.orders, scaled.orders):
            np.testing.assert_allclose(rs, s ** j * r, rtol=1e-10, atol=1e-13)
            np.testing.assert_allclose(ts, s ** j * t, rtol=1e-10, atol=1e-13)


def test_mode_matrices_invariant_under_rotation(rng):
    for _ in range(5):
        model = _pair(rng, depth=1)
        b = 0.5 * model.critical_slowness()
        angle = rng.uniform(0.0, 2.0 * np.pi)
        s_a = forward_symbols_elastic(Covector(1.0, (b, 0.0)), model, 1)
        s_b = forward_symbols_elastic(
            Covector(1.0, (b * np.cos(angle), b * np.sin(angle))), model, 1)
        for (_, r1, t1), (_, r2, t2) in zip(s_a.orders, s_b.orders):
            np.testing.assert_allclose(r2, r1, atol=1e-12)
            np.testing.assert_allclose(t2, t1, atol=1e-12)


def test_order0_matches_principal(rng):
    # the principal matrices are order 0 of a flat forward series at
    # every depth, bit for bit, signed zeros included
    for _ in range(4):
        model = _pair(rng, depth=2)
        b_crit = model.critical_slowness()
        for frac in (0.0, 0.4, 0.9, 0.999):
            for angle in (0.0, rng.uniform(0.0, 2.0 * np.pi)):
                b = frac * b_crit
                cov = Covector(1.0, (b * np.cos(angle), b * np.sin(angle)))
                want = repr(_as_lists([principal_rt_matrices(cov, model)]))
                for depth in range(3):
                    series = forward_series_elastic(cov, model.minus,
                                                    model.plus, None, depth)
                    assert repr(_as_lists(series[:1])) == want


def _kernel_columns(ctx_p, ctx_s):
    """The columns of one branch as the contexts' kernel jets give them,
    each traction by the arithmetic of a 3-element array."""
    cols, tracs = [], []
    for ctx, slot in ((ctx_p, elastic.P), (ctx_s, elastic.SV),
                      (ctx_s, elastic.SH)):
        v = np.array([0j if c is None else complex(c[0])
                      for c in ctx.kernels[slot]])
        lam0, mu0, z0, k = (complex(j[0])
                            for j in (ctx.lam, ctx.mu, ctx.zeta, ctx.kt))
        xi_v = k * v[0] + z0 * v[2]
        cols.append(v)
        tracs.append(1j * np.array([mu0 * (k * v[2] + z0 * v[0]),
                                    mu0 * (z0 * v[1]),
                                    lam0 * xi_v + 2.0 * mu0 * z0 * v[2]]))
    return np.array(cols).T, np.array(tracs).T


def _floats(side):
    return ElasticSideJet(*(Jet([float(c) for c in j.coeffs])
                            for j in (side.rho, side.cs, side.cp)))


def _transmitted(ms, plus):
    """The transmitted contexts of `plus` on the minus side `ms`."""
    return elastic._side_ctxs(ms.cov, [plus], ms.kt, ms.stretch, ms.h,
                              ms.depth, ms.tol, ("T",))[1][0]


@pytest.mark.parametrize("curved", [False, True])
def test_value_columns_equal_kernel_columns(rng, curved):
    # the columns built from value scalars carry the bits, signed zeros
    # included, of the contexts' kernel jets, on every branch
    model = random_elastic_model(rng, 2, curved=curved)
    b_crit = model.critical_slowness()
    covs = (Covector(1.0), Covector(1.0, (0.5 * b_crit, 0.3 * b_crit)),
            Covector(-2.0, (0.0, -1.6 * b_crit)))
    for convert, cov, depth in itertools.product((lambda s: s, _floats),
                                                 covs, (0, 2)):
        minus, plus = convert(model.minus), convert(model.plus)
        ms = elastic._MinusSide(cov, minus, model.geometry, depth,
                                GLANCING_TOL)
        # the minus side builds no contexts at depth 0
        incident = elastic._side_ctxs(cov, [minus], ms.kt, ms.stretch, ms.h,
                                      depth, GLANCING_TOL, ("I", "R"))[1][0]
        ctx = {**incident, **_transmitted(ms, plus)}
        for branch in "IRT":
            ctx_p, ctx_s = ctx[branch, "P"], ctx[branch, "S"]
            want = [repr(a.tolist()) for a in _kernel_columns(ctx_p, ctx_s)]
            got = [repr(a.tolist()) for a in np.array(elastic._ctx_columns(
                ctx_p, ctx_s)).reshape(2, 3, 3).swapaxes(1, 2)]
            assert got == want
            if branch != "T":
                assert [repr(ms.S[branch].tolist()),
                        repr(ms.T[branch].tolist())] == want


def _values(side):
    return side.rho[0], side.cs[0], side.cp[0]


def test_order0_errors_are_the_sources(rng, monkeypatch):
    # a glancing, an evanescent and a non-convex plus side stop the stack
    # with the error building its transmitted contexts gives, the first
    # of them winning, whether the candidates come as values (the cp
    # scan) or as plus sides (a depth-0 group), and whether their class
    # runs its body or has recorded its tape
    model = random_elastic_model(rng, 0)
    b = 0.5 * model.critical_slowness()
    ms = elastic._MinusSide(Covector(1.0, (b, 0.0)), model.minus, None, 0,
                            GLANCING_TOL)
    good, rho, cs = model.plus, model.plus.rho, model.plus.cs
    bad = [ElasticSideJet(rho, cs, Jet([1.0 / b])),
           ElasticSideJet(rho, cs, Jet([1.1 / b])),
           ElasticSideJet(Jet([1e-200]), Jet([1e-100]), Jet([1.0]))]
    errors = [outcome(_transmitted, ms, p) for p in bad]
    assert [e.split(":")[0] for e in errors] == [
        "GlancingError", "EvanescentError", "ConvexityViolation"]
    for replayed in (False, True):
        if replayed:
            monkeypatch.setattr(tape, "_TAPES", {})
            monkeypatch.setattr(tape, "_CALLS", collections.Counter())
            monkeypatch.setattr(elastic, "_WARM", 1)
            elastic._order0(ms, [_values(good)])  # the class records
        for error, first in zip(errors, bad):
            for then in bad:
                sides = [good, first, then]
                assert outcome(elastic._order0, ms,
                               [_values(p) for p in sides]) == error
                assert outcome(elastic._group, ms, sides) == error
    assert any(key[0] is elastic._columns_body and tape._miss not in runs.values()
               for key, (_, runs) in tape._TAPES.items())


@pytest.mark.parametrize("replayed", [False, True])
def test_value_scalar_columns_equal_context_columns(rng, request, replayed):
    # the depth-0 unit builds a side's columns from its values alone,
    # with the bits, signed zeros included, of `_ctx_columns` on the
    # contexts `_side_ctxs` builds: float and np.float64 values, normal
    # incidence (kt = 0), tau < 0 and a curved stretch, on the unit's
    # body and on its tape
    if replayed:
        request.getfixturevalue("fresh_tapes")
    model = random_elastic_model(rng, 0)
    b_crit = model.critical_slowness()
    covs = (Covector(1.0), Covector(1.0, (0.5 * b_crit, 0.3 * b_crit)),
            Covector(-2.0, (0.0, -1.6 * b_crit)))
    kts = set()
    for kind, cov, geometry in itertools.product(
            ("float", "float64"), covs, (None, InterfaceGeometry(0.7, -0.4))):
        minus, plus = _typed(model.minus, kind), _typed(model.plus, kind)
        ms = elastic._MinusSide(cov, minus, geometry, 0, GLANCING_TOL)
        assert not hasattr(ms, "ctx")
        kts.add(ms.kt[0] == 0.0)
        for _ in range(2):  # recorded, then replayed
            for side, branches in ((minus, ("I", "R")), (plus, ("T",))):
                ctx = elastic._side_ctxs(cov, [side], ms.kt, ms.stretch,
                                         ms.h, 0, GLANCING_TOL, branches)[1][0]
                want = [repr(elastic._ctx_columns(ctx[b, "P"], ctx[b, "S"]))
                        for b in branches]
                got = elastic._order0_columns(ms, branches, *_values(side))
                assert [repr(c) for c in got] == want
    assert kts == {False, True}


def test_depth_cap_and_model_depth():
    side = ElasticSideJet(Jet([1.0] + [0.0] * 3), Jet([1.0] + [0.0] * 3),
                          Jet([2.0] + [0.0] * 3))
    model = InterfaceModel(side, side)
    with pytest.raises(DepthExceeded):
        forward_symbols_elastic(Covector(1.0, (0.1, 0.0)), model,
                                ELASTIC_DEPTH_CAP + 1)
    shallow = InterfaceModel(side.truncate(0), side.truncate(0))
    with pytest.raises(DepthExceeded):
        forward_symbols_elastic(Covector(1.0, (0.1, 0.0)), shallow, 1)


_ACOUSTIC_MODEL = InterfaceModel(AcousticSideJet(Jet([1.0]), Jet([1.0])),
                                 AcousticSideJet(Jet([1.0]), Jet([2.0])))
_SIDE0 = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
_SIDE1 = ElasticSideJet(Jet([1.0, 0.0]), Jet([1.0, 0.0]), Jet([2.0, 0.0]))
_COV = Covector(1.0, (0.3, 0.0))


@pytest.mark.parametrize("call, error", [
    (lambda: forward_series_elastic(_COV, _SIDE0, _SIDE0, None, -1),
     "ValueError: depth must be non-negative"),
    (lambda: forward_series_elastic(_COV, _SIDE0, _SIDE1, None, 1),
     "DepthExceeded: symbol depth 1 exceeds model depth 0"),
    (lambda: forward_series_elastic(_COV, _SIDE1, _SIDE0, None, 1),
     "DepthExceeded: symbol depth 1 exceeds model depth 0"),
    (lambda: forward_symbols_elastic(_COV, _ACOUSTIC_MODEL, 0),
     "TypeError: elastic engine requires an elastic model"),
    (lambda: principal_rt_matrices(_COV, _ACOUSTIC_MODEL),
     "TypeError: elastic engine requires an elastic model"),
    (lambda: forward_symbols_elastic(_COV, InterfaceModel(_SIDE0, _SIDE0), 1),
     "DepthExceeded: symbol depth 1 exceeds model depth 0"),
    (lambda: forward_series_elastic(_COV, _SIDE1, _SIDE1, None, 3),
     "DepthExceeded: symbol depth 3 exceeds model depth 1"),
])
def test_engine_rejects_bad_depth_and_kind(call, error):
    # a negative depth, a side shallower than the depth asked for (one
    # message, in the series and the symbols, and named before the cap),
    # and an acoustic model, each named before any engine work
    assert outcome(call) == error


def test_mode_converted_evanescent_rejected():
    minus = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    plus = ElasticSideJet(Jet([1.0]), Jet([1.1]), Jet([4.0]))
    model = InterfaceModel(minus, plus)
    # S hyperbolic everywhere but P evanescent on the plus side
    with pytest.raises(EvanescentError):
        principal_rt_matrices(Covector(1.0, (0.4, 0.0)), model)


def _as_lists(series):
    return [(r.tolist(), t.tolist()) for r, t in series]


def _unit_group(plus, depth, tops=(0.0, 1.0)):
    """The plus sides of a recovery order: `plus` below coefficient
    `depth`, with the top coefficients zero (the base side) and in turn
    each field's top set to each nonzero value of `tops`."""
    fields = ("rho", "cs", "cp")

    def side(top):
        return ElasticSideJet(*(Jet(getattr(plus, f).coeffs[:depth] + (t,))
                                for f, t in zip(fields, top)))

    return [side((0.0, 0.0, 0.0))] + [
        side(tuple(t if f == g else 0.0 for g in fields))
        for f in fields for t in tops if t != 0.0]


@pytest.mark.parametrize("curved", [False, True])
def test_group_equals_separate_runs(rng, curved):
    # a group shares the interface, the reflected cascade and the zeta
    # jets between its plus sides; every output keeps the bits of a
    # separate run, signed zeros included (compared by repr)
    geometry = InterfaceGeometry(0.7, -0.4) if curved else None
    for depth in (0, 1, 2):
        model = _pair(rng, depth=2)
        if depth == 0:
            pluses = [model.plus] + [_pair(rng, depth=2).plus
                                     for _ in range(3)]
        else:
            pluses = _unit_group(model.plus, depth, (0.0, 1.0, -0.3))
        b_crit = 1.0 / max(model.speeds() + tuple(
            s for p in pluses for s in p.speeds))
        for frac in (0.0, 0.5, 0.999):
            cov = Covector(1.0, (0.8 * frac * b_crit, 0.6 * frac * b_crit))
            ms = elastic._MinusSide(cov, model.minus, geometry, depth,
                                    GLANCING_TOL)
            group = elastic._group(ms, pluses)
            separate = [elastic._group(ms, [p])[0] for p in pluses]
            fresh = [forward_series_elastic(cov, model.minus, p, geometry,
                                            depth) for p in pluses]
            assert (repr([_as_lists(s) for s in group])
                    == repr([_as_lists(s) for s in separate])
                    == repr([_as_lists(s) for s in fresh]))


def test_group_rejects_plus_sides_differing_below_top(rng):
    model = _pair(rng, depth=2)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.1))
    ms = elastic._MinusSide(cov, model.minus, None, 2, GLANCING_TOL)
    pluses = _unit_group(model.plus, 2)
    cp = list(pluses[1].cp.coeffs)
    cp[1] = math.nextafter(cp[1], math.inf)  # one ulp off below the top
    pluses[1] = ElasticSideJet(pluses[1].rho, pluses[1].cs, Jet(cp))
    with pytest.raises(ValueError, match="below the top"):
        elastic._group(ms, pluses)
    # members run on the first one's coefficients below the top, so those
    # must agree in bits, signs of zero and scalar types, not only by ==
    plus = model.plus
    rho0 = float(plus.rho[0])

    def side(value, slope):
        return ElasticSideJet(Jet((value, slope, plus.rho[2])), plus.cs,
                              plus.cp)

    zero = side(rho0, 0.0)
    for other in (side(rho0, -0.0), side(np.float64(rho0), 0.0)):
        for pair in ([zero, other], [other, zero]):
            with pytest.raises(ValueError, match="below the top"):
                elastic._group(ms, pair)
    assert repr(elastic._group(ms, [zero, zero])) == repr(
        2 * elastic._group(ms, [zero]))


@pytest.mark.parametrize("curved", [False, True])
def test_reused_minus_side_changes_nothing(rng, curved):
    # a minus side reused after other plus sides gives exactly what a
    # fresh run gives
    for depth in (0, 1, 2):
        model = _pair(rng, depth=2)
        others = [_pair(rng, depth=2).plus for _ in range(2)]
        speeds = model.speeds() + tuple(s for p in others for s in p.speeds)
        b = 0.7 / max(speeds)
        cov = Covector(1.1, (0.6 * b * 1.1, 0.5 * b * 1.1))
        geometry = InterfaceGeometry(0.7, -0.4) if curved else None
        fresh = forward_series_elastic(cov, model.minus, model.plus,
                                       geometry, depth)
        ms = elastic._MinusSide(cov, model.minus, geometry, depth,
                                GLANCING_TOL)
        for plus in others:
            elastic._group(ms, [plus])[0]
        reused = elastic._group(ms, [model.plus])[0]
        assert _as_lists(reused) == _as_lists(fresh)


def test_incident_incompatibility_raises_fresh_and_reused(rng, monkeypatch):
    model = _pair(rng, depth=2)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.0))
    ms = elastic._MinusSide(cov, model.minus, None, 1, GLANCING_TOL)
    ms2 = elastic._MinusSide(cov, model.minus, None, 2, GLANCING_TOL)

    def fresh():
        return forward_series_elastic(cov, model.minus, model.plus, None, 1)

    def reused():
        return elastic._group(ms, [model.plus])[0]

    def group():
        return elastic._group(ms2, _unit_group(model.plus, 2))

    with monkeypatch.context() as patch:
        # a negative relative tolerance: no right-hand side is compatible
        patch.setattr(elastic, "_COMPAT_RTOL", -1.0)
        for run in (fresh, reused, reused, group, group):
            with pytest.raises(CascadeIncompatible, match="incident P-mode"):
                run()
    reused()  # the checks pass at the real tolerance
    group()
    monkeypatch.setattr(elastic, "_COMPAT_RTOL", -1.0)
    with pytest.raises(CascadeIncompatible, match="incident P-mode"):
        fresh()
    with pytest.raises(CascadeIncompatible, match="incident P-mode"):
        reused()  # a reused minus side after a passing run still checks


@pytest.mark.parametrize("rtol", [-1e-11, -3e-12])
def test_group_raises_its_first_failing_members_error(monkeypatch, rtol):
    # a group's members run their orders step by step together, yet a
    # group reports the error of its first member that fails alone; at
    # these tolerances some steps fail and others pass, and on these
    # models a member's columns fail at different steps
    monkeypatch.setattr(elastic, "_COMPAT_RTOL", rtol)
    for seed in range(6):
        model = random_elastic_model(np.random.default_rng(seed), 2,
                                     curved=seed % 2 == 1)
        b_crit = model.critical_slowness()
        pluses = _unit_group(model.plus, 2)
        for frac in (0.3, 0.6, 0.9):
            cov = Covector(1.0, (frac * b_crit, 0.2 * frac * b_crit))
            ms = elastic._MinusSide(cov, model.minus, model.geometry, 2,
                                    GLANCING_TOL)
            alone = [outcome(elastic._group, ms, [p]) for p in pluses]
            failed = [a for a in alone if not a.startswith("[")]
            want = failed[0] if failed else "[%s]" % ", ".join(
                a[1:-1] for a in alone)
            assert outcome(elastic._group, ms, pluses) == want


def _elastic_order_run(minus):
    """The `run` that `elastic_recover_jets` hands the recovery driver:
    one engine call per order and geometry, for all its covectors."""
    with pytest.MonkeyPatch.context() as patch:
        # the driver's eighth argument is the `run` it is handed
        patch.setattr(inversion, "_recover_jets", lambda *args: args[7])
        return elastic_recover_jets([], minus, 0)


def _per_order(run, covs, geometry, k, pluses):
    """The order-k reflections at each of `covs` from one `run` call."""
    columns = run(covs, geometry, k, k, pluses)
    return [[c[9 * i:9 * i + 9].tolist() for c in columns]
            for i in range(len(covs))]


def _per_covector(covs, minus, geometry, k, pluses):
    """`_per_order` from a minus side and a group per covector."""
    return [[s[k][0].ravel().tolist() for s in elastic._group(
        elastic._MinusSide(cov, minus.truncate(k), geometry, k,
                           GLANCING_TOL), pluses)] for cov in covs]


@pytest.mark.parametrize("rtol", [None, -1e-11])
@pytest.mark.parametrize("curved", [False, True])
def test_order_run_keeps_each_covectors_bits(rng, monkeypatch, curved, rtol):
    # the recovery's one engine call per order gives every plus side's
    # reflection at every covector with the bits of that covector's own
    # group, at depths 1 and 2; at a tolerance where some steps fail and
    # others pass, it raises the error of the first covector that fails
    if rtol is not None:
        monkeypatch.setattr(elastic, "_COMPAT_RTOL", rtol)
    model = random_elastic_model(rng, 2, curved=curved)
    covs = hyperbolic_grid(model, 5)
    run = _elastic_order_run(model.minus)
    alone = []
    for depth in (1, 2):
        pluses = _unit_group(model.plus, depth, (-0.0, 1.0))
        args = (model.geometry, depth, pluses)
        result = outcome(_per_order, run, covs, *args)
        assert result == outcome(_per_covector, covs, model.minus, *args)
        alone.append([outcome(_per_covector, [cov], model.minus, *args)[:2]
                      for cov in covs])
    if rtol is None:
        assert {a for order in alone for a in order} == {"[["}
    else:  # the first covector passes, and a later one fails
        assert any(a[0] == "[[" and "Ca" in a for a in alone)


def test_order_run_raises_the_first_covectors_error():
    # covector by covector: the first covector that fails raises its
    # error, whether its minus side fails or its plus sides do; the
    # minus side is faster than the plus side in cp and slower in cs
    minus = ElasticSideJet(Jet([1.0, 0.3]), Jet([1.3, -0.2]),
                           Jet([2.2, 0.1]))
    plus = ElasticSideJet(Jet([1.2, -0.5]), Jet([1.0, 0.6]), Jet([2.6, 0.2]))
    pluses = _unit_group(plus, 1)
    ok, past_minus, past_plus, glancing = (
        Covector(1.0, xi) for xi in ((0.3, 0.0), (0.8, 0.0), (0.42, 0.0),
                                     (0.0, 1.0 / 2.2)))
    run = _elastic_order_run(minus)
    errors = []
    for covs in ([ok, past_minus, past_plus], [ok, past_plus, past_minus],
                 [past_plus, ok], [ok, glancing, past_plus]):
        args = (InterfaceGeometry(), 1, pluses)
        result = outcome(_per_order, run, covs, *args)
        assert result == outcome(_per_covector, covs, minus, *args)
        errors.append(result)
    # per list: the minus side's cp 2.2 or the plus sides' cp 2.6
    assert [e.split(" for ")[1][:9] for e in errors] == [
        "speed 2.2", "speed 2.6", "speed 2.6", "speed 2.2"]
    assert errors[3].startswith("GlancingError: ")


@pytest.mark.parametrize("curved", [False, True])
def test_transmitted_group_records_each_shared_operation_once(
        rng, monkeypatch, curved):
    # a group's plus sides agree below their top coefficients, so the one
    # tape of their transmitted contexts makes their shared operations
    # once: a group of three records fewer than twice the lines of a
    # group of one, and each member of a group of four gets the contexts
    # of its own build
    model = random_elastic_model(rng, 2, curved=curved)
    cov = Covector(1.0, (0.3 * model.critical_slowness(), 0.1))
    lines = []
    real = tape._Recording.compile

    def counted(self, *args):
        lines.append(len(self.lines))
        return real(self, *args)

    monkeypatch.setattr(tape._Recording, "compile", counted)
    monkeypatch.setattr(elastic, "_WARM", 1)
    for depth in (1, 2):
        ms = elastic._MinusSide(cov, model.minus, model.geometry, depth,
                                GLANCING_TOL)
        pluses = _unit_group(model.plus, depth)

        def build(members):
            return elastic._side_ctxs(cov, members, ms.kt, ms.stretch, ms.h,
                                      depth, GLANCING_TOL, ("T",))

        counts = []
        for members in (pluses[:1], pluses[:3]):
            monkeypatch.setattr(tape, "_TAPES", {})
            monkeypatch.setattr(tape, "_CALLS", collections.Counter())
            del lines[:]
            group = build(members)
            counts.append(lines[0])
        assert counts[1] < 2 * counts[0]
        group = build(pluses)
        separate = [build([p]) for p in pluses]
        assert repr(group[1]) == repr([ctxs for _, (ctxs,) in separate])
        assert all(repr(cols) == repr(group[0]) for cols, _ in separate)


def _svd_loop(m6):
    """The condition check the certified bound stands in for."""
    for cond in np.linalg.cond(m6):
        if not np.isfinite(cond) or cond > elastic._COND_LIMIT:
            raise SingularInterfaceSystem(
                f"elastic interface system is singular (cond={cond:.3e})",
                condition=cond)
    return "passes"


def _verdict(call, *args):
    """The outcome of `call`, with the condition of its error."""
    try:
        call(*args)
    except Exception as exc:
        return (f"{type(exc).__name__}: {exc}",
                repr(getattr(exc, "condition", None)))
    return "passes"


def test_condition_check_gives_the_svd_loops_verdict(rng, monkeypatch):
    # the certified bound skips the SVD only where the SVD would pass: a
    # matrix just above the limit, one holding a NaN and an exactly
    # singular one each give the error, message and condition of the SVD
    # loop, the first in the stack winning, and a stack that passes gets
    # the bits of a solve of its right-hand side alone
    model = random_elastic_model(rng, 0)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.0))
    ms = elastic._MinusSide(cov, model.minus, None, 0, GLANCING_TOL)
    good = elastic._order0_columns(ms, ("T",), *_values(model.plus))[0]
    other = elastic._order0_columns(ms, ("T",), model.plus.rho[0],
                                    model.plus.cs[0],
                                    1.1 * model.plus.cp[0])[0]
    nan = (complex("nan"),) + good[1:]
    singular = (0j,) * 3 + good[3:9] + (0j,) * 3 + good[12:]
    cond = np.linalg.cond(elastic._interface(ms, [other])[0][0])
    stacks = ([good, other], [good, nan], [good, singular],
              [singular, nan], [nan, singular], [other, good])
    for limit in (elastic._COND_LIMIT, math.nextafter(cond, 0.0)):
        monkeypatch.setattr(elastic, "_COND_LIMIT", limit)
        for tops in stacks:
            m6 = elastic._interface(ms, [good] * len(tops))[0]
            m6[:, :, 3:] = np.array(tops).reshape(-1, 2, 3, 3).swapaxes(
                2, 3).reshape(-1, 6, 3)
            want = _verdict(_svd_loop, m6)
            assert _verdict(elastic._interface, ms, tops) == want
            if want == "passes":
                sol = elastic._interface(ms, tops)[1]
                assert repr(sol.tolist()) == repr(np.linalg.solve(
                    m6, ms.order0_rhs).tolist())
    assert _verdict(_svd_loop, m6) == _verdict(
        elastic._interface, ms, [other]) != "passes"


def test_stacked_numpy_forms_keep_the_one_column_bits(rng):
    # a group's stacked steps rest on three numpy facts, checked here on
    # the engine's own 6x6 matrices: each column of a multi-column solve
    # has the bits of its one-column solve, a batched matmul has the
    # matrix-vector bits, and a stacked elementwise product has each
    # row's bits
    def bits(a):
        return np.ascontiguousarray(a).view(np.float64).tolist()

    for curved in (False, True):
        model = random_elastic_model(rng, 1, curved=curved)
        b_crit = model.critical_slowness()
        for frac in (0.0, 0.5, 0.95):
            cov = Covector(1.0, (frac * b_crit, 0.3 * frac * b_crit))
            ms = elastic._MinusSide(cov, model.minus, model.geometry, 1,
                                    GLANCING_TOL)
            m6 = elastic._interface(ms, [elastic._ctx_columns(
                *_transmitted(ms, model.plus).values())])[0][0]
            rhs = rng.standard_normal((6, 12)) + 1j * rng.standard_normal(
                (6, 12))
            multi = np.linalg.solve(m6, rhs)
            for j in range(12):
                assert bits(multi[:, j]) == bits(
                    np.linalg.solve(m6, rhs[:, j].copy()))
            vecs = rhs.T.copy().reshape(-1, 3)
            for mat in (ms.S["I"], ms.T["I"], np.linalg.inv(m6[:3, 3:])):
                batched = np.matmul(mat, vecs[:, :, None])[:, :, 0]
                assert bits(batched) == bits([mat @ v for v in vecs])
            stacked = vecs[:12] * vecs[12:]
            assert bits(stacked) == bits(
                [a.copy() * b.copy() for a, b in zip(vecs[:12], vecs[12:])])


def test_engine_calls_retain_nothing(rng):
    # the engines keep nothing between calls: a call's covector is freed
    # once its caller drops it
    acoustic_model = random_acoustic_model(rng, 2, curved=True)
    elastic_model = random_elastic_model(rng, 2, curved=True)
    for model, forward in ((acoustic_model, forward_series),
                           (elastic_model, forward_series_elastic)):
        cov = Covector(1.0, (0.3 * model.critical_slowness(), 0.1))
        ref = weakref.ref(cov)
        forward(cov, model.minus, model.plus, model.geometry, 2)
        del cov
        gc.collect()
        assert ref() is None


def test_incompatibility_raises_under_optimization():
    # the checks are package errors, not asserts, so `python -O` keeps them
    code = (
        "import numpy as np\n"
        "from reflectjet import elastic\n"
        "from reflectjet.errors import CascadeIncompatible\n"
        "from reflectjet.medium import Covector\n"
        "from reflectjet.sampling import random_elastic_model\n"
        "model = random_elastic_model(np.random.default_rng(3), 1)\n"
        "cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.0))\n"
        "elastic._COMPAT_RTOL = -1.0\n"
        "try:\n"
        "    elastic.forward_series_elastic(cov, model.minus, model.plus,\n"
        "                                   None, 1)\n"
        "except CascadeIncompatible:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


# --- tapes ------------------------------------------------------------------


def _typed(side, kind):
    """`side` with plain float or np.float64 coefficients."""
    cast = np.float64 if kind == "float64" else float
    return ElasticSideJet(*(Jet([cast(c) for c in j])
                            for j in (side.rho, side.cs, side.cp)))


def _with_tops(plus, depth, tops):
    return ElasticSideJet(*(Jet(j.coeffs[:depth] + (t,)) for j, t in
                            zip((plus.rho, plus.cs, plus.cp), tops)))


def _group_lists(cov, minus, geometry, depth, pluses):
    """A fresh minus side's group, as lists: every bit, signed zeros
    included, shows in their repr."""
    ms = elastic._MinusSide(cov, minus, geometry, depth, GLANCING_TOL)
    return [_as_lists(s) for s in elastic._group(ms, pluses)]


@pytest.fixture
def fresh_tapes(monkeypatch):
    """No class recorded yet, and each records on its first call."""
    monkeypatch.setattr(tape, "_TAPES", {})
    monkeypatch.setattr(tape, "_CALLS", collections.Counter())
    monkeypatch.setattr(elastic, "_WARM", 1)


@pytest.mark.parametrize("kind", ["float", "float64"])
@pytest.mark.parametrize("curved", [False, True])
def test_tape_equals_source(rng, monkeypatch, fresh_tapes, curved, kind):
    # every class of mode contexts and branch steps replays the source's
    # own bits: depths 0-2, normal and oblique incidence, groups of 1-4
    # plus sides with -0.0 and 1.0 tops; the second round runs on the
    # tapes alone
    model = random_elastic_model(rng, 2, curved=curved)
    minus, plus = _typed(model.minus, kind), _typed(model.plus, "float")
    b_crit = model.critical_slowness()
    covs = [Covector(1.0, (0.0, -0.0)),
            Covector(1.0, (0.6 * b_crit, 0.3 * b_crit))]
    for replayed in (False, True):
        if replayed:
            replays_only(monkeypatch)
        for depth in range(3):
            if depth:
                pluses = [_with_tops(plus, depth, tops) for tops in (
                    (-0.0, -0.0, -0.0), (-0.0, 1.0, -0.0),
                    (1.0, -0.0, -0.0), (-0.0, -0.0, 1.0))]
            else:
                pluses = [ElasticSideJet(*(Jet([f * j[0]]) for j in
                                           (plus.rho, plus.cs, plus.cp)))
                          for f in (1.0, 0.9, 1.2, 0.8)]
            for cov, n in itertools.product(covs, range(1, 5)):
                args = (cov, minus, model.geometry, depth, pluses[:n])
                assert (outcome(_group_lists, *args)
                        == by_source(_group_lists, *args))


def test_tape_key_holds_absent_kernel_jets(rng, fresh_tapes):
    # kt / |Xi| underflows to zero where kt does not: the P kernel's kt
    # entry is absent while the depth operators keep kt, and the branch
    # steps on such contexts are a class of their own, recorded or not.
    # No covector gets there: |xi'|^2 underflows, or |Xi|^2 overflows,
    # first.
    model = random_elastic_model(rng, 2)
    cov, stretch = Covector(1e24, (0.0, 0.0)), Jet([0.0, 0.0, 0.0])
    vals = np.array([1.0, 0.5, 0.0], dtype=complex)

    def cascade(kt):
        ctx = elastic._side_ctxs(cov, [model.minus], kt, stretch, None, 2,
                                 GLANCING_TOL, ("I",))[1][0]
        ctxs = (ctx["I", "P"], ctx["I", "S"])
        branch, steps = elastic._branches(ctxs)[elastic.P], []
        for d in (2, 1):  # each step fills order -(2-d) and steps past it
            elastic._branch_step(branch, vals, d)
            steps.append(branch.step)
        return [c.kernels for c in ctxs], branch.amps, steps

    for kt in (Jet([1e-3, 0.0, 0.0]), Jet([1e-300, 0.0, 0.0])) * 2:
        assert outcome(cascade, kt) == by_source(cascade, kt)
    assert "(None, None, Jet(" in by_source(cascade, kt)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_tape_errors_are_the_sources(rng, fresh_tapes):
    # glancing and evanescent covectors, a depth beyond the cap and a
    # side jet whose cascade overflows raise the source's error, with
    # its type and message, whether their class records or replays
    model = random_elastic_model(rng, 2)
    huge = ElasticSideJet(Jet([model.minus.rho[0], 1e300, 0.0]),
                          model.minus.cs, model.minus.cp)
    b_minus = 1.0 / model.minus.cp[0]
    b_plus = 1.0 / model.plus.cp[0]
    good = Covector(1.0, (0.3 * model.critical_slowness(), 0.1))
    cases = [(Covector(1.0, (b_minus, 0.0)), model.minus, 2),
             (Covector(1.0, (1.01 * b_plus, 0.0)), model.minus, 2),
             (good, model.minus, 3), (good, huge, 2), (good, huge, 1)]

    def series(cov, minus, depth):
        return _as_lists(forward_series_elastic(cov, minus, model.plus, None,
                                                depth))

    outcomes = set()
    for _ in range(2):
        for args in cases:
            result = outcome(series, *args)
            assert result == by_source(series, *args)
            outcomes.add(result.split(":")[0])
    assert {"GlancingError", "EvanescentError", "DepthExceeded",
            "CascadeIncompatible"} <= outcomes


def test_second_round_trip_replays_every_class(monkeypatch, fresh_tapes):
    # after one depth-2 round trip every class of the next one has a
    # tape, none of its guards misses and no class fell back to its body
    model = random_elastic_model(np.random.default_rng(7), 2)
    covs = hyperbolic_grid(model, 6)

    def round_trip():
        series = [forward_symbols_elastic(c, model, 2) for c in covs]
        samples = SymbolSamples.from_elastic_series(series)
        return elastic_recover_jets(samples, model.minus, 2,
                                    geometry=InterfaceGeometry())

    first = round_trip()
    classes = {(key, types) for key, (_, runs) in tape._TAPES.items()
               for types in runs}
    assert all(key[0].__module__ == "reflectjet.elastic"
               for key, _ in classes)
    replays_only(monkeypatch)
    assert repr(round_trip().plus) == repr(first.plus)
    assert classes == {(key, types) for key, (_, runs) in tape._TAPES.items()
                       for types in runs}
