"""Acoustic symbol engine: worked coefficients, an independently derived
order -1 closed form, flux conservation, homogeneity, curvature terms."""

import itertools
import math
import operator
import subprocess
import sys

import numpy as np
import pytest

from conftest import by_source, child_env, outcome, replays_only
from reflectjet import acoustic, inversion, tape
from reflectjet.acoustic import (
    _group,
    _minus_side,
    flux_residual,
    forward_series,
    forward_symbols,
    principal_rt,
)
from reflectjet.errors import (
    DepthExceeded,
    EvanescentError,
    GlancingError,
    RegimeError,
)
from reflectjet.jets import Jet
from reflectjet.medium import (
    GLANCING_TOL,
    AcousticSideJet,
    Covector,
    ElasticSideJet,
    InterfaceGeometry,
    InterfaceModel,
    Regime,
    classify_regime,
    vertical_wavenumber,
)
from reflectjet.sampling import (
    cross_grid,
    hyperbolic_grid,
    random_acoustic_model,
)


def _model(rho_m, cs_m, rho_p, cs_p, kappas=(0.0, 0.0)):
    return InterfaceModel(
        AcousticSideJet(Jet(rho_m), Jet(cs_m)),
        AcousticSideJet(Jet(rho_p), Jet(cs_p)),
        InterfaceGeometry(*kappas),
    )


CONTRAST = _model([1.0], [1.0], [1.0], [2.0])  # mu- = 1, mu+ = 4


def test_principal_rt_no_contrast():
    model = _model([1.3], [0.9], [1.3], [0.9])
    r0, t0 = principal_rt(Covector(1.0, (0.4, 0.0)), model)
    assert r0 == pytest.approx(0.0, abs=1e-15)
    assert t0 == pytest.approx(1.0)


def test_principal_rt_normal_incidence():
    r0, t0 = principal_rt(Covector(1.0, (0.0, 0.0)), CONTRAST)
    assert r0 == pytest.approx(-1.0 / 3.0)
    assert t0 == pytest.approx(2.0 / 3.0)


def test_principal_rt_post_critical():
    with pytest.raises(EvanescentError):
        principal_rt(Covector(1.0, (0.6, 0.0)), CONTRAST)


def test_flux_examples():
    # hand arithmetic: 1*1*(8/9) - 4*0.5*(4/9) = 0
    assert flux_residual(Covector(1.0, (0.0, 0.0)), CONTRAST) == pytest.approx(
        0.0, abs=1e-15)
    same = _model([1.1], [1.2], [1.1], [1.2])
    assert flux_residual(Covector(1.0, (0.3, 0.0)), same) == 0.0


def test_flux_property(rng):
    for _ in range(100):
        model = random_acoustic_model(rng, 0)
        b = rng.uniform(0.0, 0.85 * model.critical_slowness())
        cov = Covector(1.0, (b, 0.0))
        xi_i = vertical_wavenumber(cov, model.minus.cs[0])
        mu_m = model.minus.rho[0] * model.minus.cs[0] ** 2
        assert abs(flux_residual(cov, model)) <= 1e-12 * mu_m * xi_i


def test_transparent_interface_all_orders():
    side = AcousticSideJet(Jet([1.2, 0.4, -0.3, 0.2]), Jet([0.9, 0.1, 0.5, -0.1]))
    model = InterfaceModel(side, side)
    series = forward_symbols(Covector(1.0, (0.3, 0.0)), model, 3)
    for j, a_r, a_t in series.orders:
        assert abs(a_r) <= 1e-14
        assert abs(a_t - (1.0 if j == 0 else 0.0)) <= 1e-14


def test_piecewise_constant_lower_orders_vanish():
    model = _model([1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [1.3, 0, 0])
    series = forward_symbols(Covector(1.0, (0.4, 0.0)), model, 2)
    assert abs(series.orders[1][1]) == 0.0
    assert abs(series.orders[2][1]) == 0.0


def _hand_order_minus1(tau, xi, rho_m, cs_m, rho_p, cs_p, kappas=(0.0, 0.0)):
    """Order -1 reflection symbol from the transmission-condition jump,
    written out independently of the engine.

    The transport bracket is B = Lrho/2 + Lc (1 - tau^2/(2 c^2 z^2))
    + H/2 + (k1 x1^2 + k2 x2^2)/(2 z^2), the last term being the
    shape-operator stretch of the tangential wavenumber.
    """
    k_sq = xi[0] ** 2 + xi[1] ** 2
    z_i = math.sqrt(tau ** 2 / cs_m[0] ** 2 - k_sq)
    z_t = math.sqrt(tau ** 2 / cs_p[0] ** 2 - k_sq)
    mu_m = rho_m[0] * cs_m[0] ** 2
    mu_p = rho_p[0] * cs_p[0] ** 2
    den = mu_m * z_i + mu_p * z_t
    r0 = (mu_m * z_i - mu_p * z_t) / den
    t0 = 1.0 + r0
    h = kappas[0] + kappas[1]
    qp_half = kappas[0] * xi[0] ** 2 + kappas[1] * xi[1] ** 2

    def bracket(rho, cs, z):
        l_rho = rho[1] / rho[0]
        l_c = cs[1] / cs[0]
        return (l_rho / 2.0
                + l_c * (1.0 - tau ** 2 / (2.0 * cs[0] ** 2 * z ** 2))
                + h / 2.0 + qp_half / (2.0 * z ** 2))

    jump = t0 * (mu_p * bracket(rho_p, cs_p, z_t)
                 - mu_m * bracket(rho_m, cs_m, z_i))
    return -1j * jump / den


@pytest.mark.parametrize("kappas", [(0.0, 0.0), (0.5, -0.2), (1.0, 1.0)])
def test_order_minus1_hand_recursion(kappas):
    rho_m, cs_m = [1.1, 0.3], [1.0, -0.2]
    rho_p, cs_p = [0.9, -0.5], [1.4, 0.7]
    model = _model(rho_m, cs_m, rho_p, cs_p, kappas)
    for xi in ((0.5, 0.0), (0.0, 0.35), (0.3, 0.3)):
        series = forward_symbols(Covector(1.0, xi), model, 1)
        oracle = _hand_order_minus1(1.0, xi, rho_m, cs_m, rho_p, cs_p, kappas)
        assert series.orders[1][1] == pytest.approx(oracle, rel=1e-12)


def test_curvature_difference_is_h_term_at_normal_incidence():
    # q vanishes at xi' = 0, so differencing a curved against a flat run
    # isolates the explicit H/2 coefficient
    rho_m, cs_m = [1.2, 0.4], [1.0, 0.3]
    rho_p, cs_p = [0.8, -0.2], [1.5, -0.4]
    kappas = (1.0 / 1.7, 1.0 / 1.7)  # sphere-like
    cov = Covector(1.0, (0.0, 0.0))
    curved = forward_symbols(cov, _model(rho_m, cs_m, rho_p, cs_p, kappas), 1)
    flat = forward_symbols(cov, _model(rho_m, cs_m, rho_p, cs_p), 1)
    diff = curved.orders[1][1] - flat.orders[1][1]
    z_i = 1.0 / cs_m[0]
    z_t = 1.0 / cs_p[0]
    mu_m = rho_m[0] * cs_m[0] ** 2
    mu_p = rho_p[0] * cs_p[0] ** 2
    den = mu_m * z_i + mu_p * z_t
    t0 = 1.0 + (mu_m * z_i - mu_p * z_t) / den
    h = sum(kappas)
    expected = -1j * t0 * (mu_p - mu_m) * (h / 2.0) / den
    assert diff == pytest.approx(expected, rel=1e-12)


def test_order0_independent_of_curvature(rng):
    for _ in range(10):
        model = random_acoustic_model(rng, 2, curved=True)
        flat = InterfaceModel(model.minus, model.plus)
        cov = Covector(1.0, (0.5 * model.critical_slowness(), 0.2))
        s_curved = forward_symbols(cov, model, 2)
        s_flat = forward_symbols(cov, flat, 2)
        assert s_curved.orders[0][1] == pytest.approx(s_flat.orders[0][1],
                                                      rel=1e-13)


def test_homogeneity_each_order(rng):
    for _ in range(10):
        model = random_acoustic_model(rng, 3, curved=True)
        b = rng.uniform(0.1, 0.75) * model.critical_slowness()
        s = rng.uniform(0.3, 4.0)
        cov = Covector(1.0, (b, 0.4 * b))
        base = forward_symbols(cov, model, 3)
        scaled = forward_symbols(cov.scaled(s), model, 3)
        for (j, a_r, a_t), (_, b_r, b_t) in zip(base.orders, scaled.orders):
            assert b_r == pytest.approx(s ** j * a_r, rel=1e-11, abs=1e-13)
            assert b_t == pytest.approx(s ** j * a_t, rel=1e-11, abs=1e-13)


def test_transmission_consistency_every_order(rng):
    for _ in range(10):
        model = random_acoustic_model(rng, 4, curved=True)
        cov = Covector(1.0, (0.6 * model.critical_slowness(), 0.0))
        series = forward_symbols(cov, model, 4)
        for j, a_r, a_t in series.orders:
            incident = 1.0 if j == 0 else 0.0
            assert a_t - a_r == pytest.approx(incident, abs=1e-13)


def test_depth_exceeded():
    with pytest.raises(DepthExceeded):
        forward_symbols(Covector(1.0, (0.0, 0.0)), CONTRAST, 1)


def _ulps(x, n):
    """`x` moved by `n` ulps."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


def test_regime_is_classify_regimes_at_the_curved_band(rng):
    # the engine raises a RegimeError exactly where classify_regime calls
    # either side's speed glancing or evanescent, within 3 ulps of each
    # edge of each band of curved models; reading |xi'| as sqrt(q(0)),
    # not Covector.xi_norm, gave this covector an order -2 of 9.7e21
    model = _model([1.0, 0.2, -0.1], [1.0, 0.1, 0.05], [1.5, 0.1, 0.2],
                   [0.5, 0.1, -0.1], (0.5, -0.5))
    cov = Covector(1.0, (0.9999960795025631, 0.0027999963399347695))
    with pytest.raises(GlancingError):
        forward_symbols(cov, model, 2)
    cases = [(model, cov)]
    for _ in range(60):
        model = random_acoustic_model(rng, 2, curved=True)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        for side in (model.minus, model.plus):
            for edge in (1.0 - GLANCING_TOL, 1.0 + GLANCING_TOL):
                for n in range(-3, 4):
                    b = _ulps(math.sqrt(edge) / side.cs[0], n)
                    cases.append((model, Covector(1.0, (b * math.cos(angle),
                                                        b * math.sin(angle)))))
    flagged = 0
    for model, cov in cases:
        want = any(classify_regime(cov, side.cs[0]) is not Regime.HYPERBOLIC
                   for side in (model.minus, model.plus))
        try:
            forward_series(cov, model.minus, model.plus, model.geometry, 2)
            got = False
        except RegimeError:
            got = True
        assert got == want, cov
        flagged += want
    assert 0 < flagged < len(cases)


def _with_top(side, depth, rho_top, cs_top):
    """`side` at `depth` with its top coefficients replaced."""
    return AcousticSideJet(Jet(side.rho.coeffs[:depth] + (rho_top,)),
                           Jet(side.cs.coeffs[:depth] + (cs_top,)))


@pytest.mark.parametrize("curved", [False, True])
def test_group_equals_separate_runs(rng, curved):
    # a group shares its reflected cascade and its cs^2 and zeta jets, and
    # a minus side built deeper serves a lower depth: each plus side's
    # series is still the one it gets alone, bit for bit
    model = random_acoustic_model(rng, 4, curved=curved)
    covs = hyperbolic_grid(model, 3) + cross_grid(model, 3)
    for depth in range(1, 5):
        pluses = [_with_top(model.plus, depth, r, c)
                  for r, c in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))]
        pluses.append(model.plus.truncate(depth))
        for cov in covs:
            alone = [forward_series(cov, model.minus, p, model.geometry,
                                    depth) for p in pluses]
            for built in range(depth, 5):
                ms = _minus_side(cov, model.minus, model.geometry, built,
                                 GLANCING_TOL)
                assert repr(_group(ms, depth, pluses)) == repr(alone)


def test_group_checks_its_contract(rng):
    model = random_acoustic_model(rng, 2)
    cov = Covector(1.0, (0.2, 0.1))
    ms = _minus_side(cov, model.minus, None, 2, GLANCING_TOL)
    plus = model.plus
    cs1 = plus.cs[1]
    below = AcousticSideJet(plus.rho,
                            Jet((plus.cs[0], math.nextafter(cs1, 2 * cs1),
                                 plus.cs[2])))
    with pytest.raises(ValueError, match="below the top"):
        _group(ms, 2, [plus, below])
    # members run on the first one's coefficients below the top, so those
    # must agree in bits, signs of zero and scalar types, not only by ==
    rho0 = float(plus.rho[0])

    def side(value, slope):
        return AcousticSideJet(Jet((value, slope, plus.rho[2])), plus.cs)

    zero = side(rho0, 0.0)
    for other in (side(rho0, -0.0), side(np.float64(rho0), 0.0)):
        for pair in ([zero, other], [other, zero]):
            with pytest.raises(ValueError, match="below the top"):
                _group(ms, 2, pair)
    assert repr(_group(ms, 2, [zero, zero])) == repr(2 * _group(ms, 2, [zero]))


def _order_run(minus):
    """The `run` that `acoustic_recover_jets` hands the recovery driver:
    one engine call per order and geometry, for all its covectors."""
    with pytest.MonkeyPatch.context() as patch:
        # the driver's eighth argument is the `run` it is handed
        patch.setattr(inversion, "_recover_jets", lambda *args: args[7])
        return inversion.acoustic_recover_jets([], minus, 0)


def _per_order(run, covs, geometry, k, deepest, pluses):
    """The order-k reflections at each of `covs` from one `run` call."""
    columns = run(covs, geometry, k, deepest, pluses)
    return [[complex(c[i]) for c in columns] for i in range(len(covs))]


def _per_covector(covs, minus, geometry, k, deepest, pluses):
    """`_per_order` from a minus side and a group per covector."""
    return [[complex(s[k][0]) for s in _group(
        _minus_side(cov, minus, geometry, deepest, GLANCING_TOL), k, pluses)]
        for cov in covs]


@pytest.mark.parametrize("kind", ["float", "float64"])
@pytest.mark.parametrize("curved", [False, True])
def test_order_run_keeps_each_covectors_bits(rng, curved, kind):
    # the recovery's one engine call per order gives every plus side's
    # reflection at every covector with the bits of that covector's own
    # group: depths 1-4, tops of -0.0 and 1.0, minus sides built at the
    # order's depth and deeper
    model = random_acoustic_model(rng, 4, curved=curved)
    minus, plus = _typed(model.minus, kind), _typed(model.plus, kind)
    covs = hyperbolic_grid(model, 3) + cross_grid(model, 3)
    run = _order_run(minus)
    for depth in range(1, 5):
        pluses = [_with_top(plus, depth, r, c)
                  for r, c in ((-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0))]
        for deepest in sorted({depth, 4}):
            args = (model.geometry, depth, deepest, pluses)
            result = outcome(_per_order, run, covs, *args)
            assert result.startswith("[[")
            assert result == outcome(_per_covector, covs, minus, *args)


def test_order_run_raises_the_first_covectors_error():
    # covector by covector: the first covector that fails raises its
    # error, whether its minus side fails or its plus sides do
    model = _model([1.0, 0.3, -0.2], [1.0, -0.2, 0.1],
                   [1.2, -0.5, 0.4], [2.0, 0.6, -0.3])
    pluses = [_with_top(model.plus, 2, r, c)
              for r, c in ((-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0))]
    ok, past_minus, past_plus, glancing = (
        Covector(1.0, xi) for xi in ((0.3, 0.0), (1.2, 0.0), (0.7, 0.0),
                                     (0.0, 1.0)))
    errors = []
    for covs in ([ok, past_minus, past_plus], [ok, past_plus, past_minus],
                 [past_plus, ok], [ok, glancing, past_plus]):
        for deepest in (2, 3):
            minus = model.minus if deepest == 2 else AcousticSideJet(
                Jet([1.0, 0.3, -0.2, 0.1]), Jet([1.0, -0.2, 0.1, 0.2]))
            args = (InterfaceGeometry(), 2, deepest, pluses)
            result = outcome(_per_order, _order_run(minus), covs, *args)
            assert result == outcome(_per_covector, covs, minus, *args)
            errors.append(result)
    # per list: the minus side's speed 1 or the plus sides' speed 2
    assert [e.split(" for ")[1][:7] for e in errors[::2]] == [
        "speed 1", "speed 2", "speed 2", "speed 1"]
    assert errors[6].startswith("GlancingError: ")


# --- tapes ---------------------------------------------------------------


def _typed(side, kind):
    """`side` with float coefficients (as the CLI reads them), np.float64
    ones (as `sampling` makes them), or the two alternating."""
    def jet(coeffs, odd):
        return Jet([np.float64(c) if kind == "float64"
                    or kind == "mixed" and (i + odd) % 2 else float(c)
                    for i, c in enumerate(coeffs)])

    return AcousticSideJet(jet(side.rho, 0), jet(side.cs, 1))


@pytest.mark.parametrize("kind", ["float", "float64", "mixed"])
@pytest.mark.parametrize("curved", [False, True])
def test_tape_equals_source(rng, monkeypatch, curved, kind):
    # every class of minus side and group replays the source's own bits:
    # depths 0-4, minus sides built deeper, groups of 1-4 plus sides with
    # shared and distinct cs jets and -0.0 tops, b up to 0.999 b_crit;
    # the second round runs on the tapes alone
    model = random_acoustic_model(rng, 4, curved=curved)
    minus, plus = _typed(model.minus, kind), _typed(model.plus, "mixed")
    b_crit = model.critical_slowness()
    covs = [Covector(1.0, (0.0, -0.0)), Covector(1.0, (0.6 * b_crit, 0.0)),
            Covector(1.0, (0.999 * 0.6 * b_crit, 0.999 * 0.8 * b_crit))]
    for replayed in (False, True):
        if replayed:
            replays_only(monkeypatch)
        for depth in range(5):
            if depth:
                pluses = [_with_top(plus, depth, r, c) for r, c in
                          ((-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0))]
            else:
                pluses = [AcousticSideJet(Jet([2.0 * plus.rho[0]]),
                                          plus.cs.truncate(0))]
            pluses.append(plus.truncate(depth))
            for cov, built in itertools.product(covs, {depth, 4}):
                args = (cov, minus, model.geometry, built, GLANCING_TOL)
                taped = _minus_side(*args)
                assert repr(taped) == by_source(_minus_side, *args)
                for n in range(1, len(pluses) + 1):
                    group = (taped, depth, pluses[:n])
                    assert (outcome(_group, *group)
                            == by_source(_group, *group))


@pytest.mark.parametrize("curved", [False, True])
def test_tape_errors_are_the_sources(rng, monkeypatch, curved):
    # glancing and evanescent covectors raise the source's error whether
    # their class is being recorded or replayed, in the minus side and in
    # the group (the slower side swapped), and valid covectors of the
    # class replay afterwards
    model = random_acoustic_model(rng, 2, curved=curved)
    for minus, plus in ((model.minus, model.plus), (model.plus, model.minus)):
        monkeypatch.setattr(tape, "_TAPES", {})
        bad = [Covector(1.0, (f * 0.6 / c, f * 0.8 / c)) for f in (1.0, 1.01)
               for c in (minus.cs[0], plus.cs[0])]
        good = Covector(1.0, (0.3 * model.critical_slowness(), 0.0))
        args = (minus, plus, model.geometry, 2)
        for cov in bad + [good] + bad + [good]:
            result = outcome(forward_series, cov, *args)
            assert result == by_source(forward_series, cov, *args)
            assert result.startswith(("GlancingError: ", "EvanescentError: ",
                                       "[("))
    ms = _minus_side(good, minus, model.geometry, 2, GLANCING_TOL)
    below = _with_top(plus, 1, 1.0, 1.0).truncate(2)
    result = outcome(_group, ms, 2, [plus, below])
    assert result == by_source(_group, ms, 2, [plus, below])
    assert result.startswith("ValueError: ")

    replays_only(monkeypatch)
    assert (repr(forward_series(good, *args))
            == by_source(forward_series, good, *args))


@pytest.mark.parametrize("value", [1.5, np.float64(-0.0), 1.5 - 0.5j])
def test_tape_escapes_raise_at_record_time(value):
    var = tape._Recording().var(value)
    stand_in = tape._STAND_INS["complex"]
    assert isinstance(var, stand_in) == isinstance(value, complex)
    for escape in (float, bool, hash, complex, operator.index, round,
                   lambda x: f"{x:.3g}"):
        with pytest.raises(tape._Escape):
            escape(var)


def test_tape_of_escaping_body_runs_the_body(monkeypatch):
    monkeypatch.setattr(tape, "_TAPES", {})
    assert tape._replay(lambda x: float(x) * 2.0, (), (1.5,), ()) == 3.0
    [(_, runs)] = tape._TAPES.values()
    assert list(runs.values()) == [tape._miss]


def test_class_records_on_its_warm_call(monkeypatch):
    # a class runs its body until its `warm`th call, which records it
    monkeypatch.setattr(tape, "_TAPES", {})
    bodies = []

    def source(x):
        bodies.append(type(x).__name__)
        return x * 2.0

    for x in (1.5, 2.5, 3.5, 4.5):
        assert tape._replay(source, (), (x,), (), 3) == 2.0 * x
    assert bodies == ["float", "float", "_Var"]


def test_folded_tape_keeps_the_order_of_operations(monkeypatch):
    # `x` is folded into its use after `y`, yet still runs first: a
    # replay raises the source's first error, not the overflow
    def source(a, b):
        x = a / b
        y = a ** 1e10
        return y + x

    monkeypatch.setattr(tape, "_TAPES", {})
    assert tape._replay(source, (), (1.0, 2.0), ()) == 1.5
    with pytest.raises(ZeroDivisionError):
        tape._replay(source, (), (10.0, 0.0), ())


def test_folded_tape_keeps_precedence(monkeypatch):
    # a value folded into its use gets the parentheses its precedence
    # needs there, and no others: the replay is the source's value
    def source(a, b, c):
        return [a / (b * c), a - (b - c), (a + b) * c, -(a * b), a * -b,
                (a ** b) ** c, a ** -(b * c), (-a) ** b, a ** b ** c,
                abs(a - b) * c, (a - b) / (c + a), a - b - c, a * (b / c),
                a ** (b * c), a + (b + c)]

    monkeypatch.setattr(tape, "_TAPES", {})
    for xs in ((1.5, 0.7, 2.25), (0.1, 0.2, 0.3)):
        assert repr(tape._replay(source, (), xs, ())) == repr(source(*xs))


def test_recording_logs_a_repeated_operation_once():
    # an operation or guard on the values of an earlier one returns its
    # value and logs no line; the same values under other numbers, or
    # another operation on them, log their own
    rec = tape._Recording()
    a, b, b_again = rec.var(1.5), rec.var(2.5), rec.var(2.5)
    product = a * b
    assert a * b is product
    assert (a < b) is (a < b) is True
    assert len(rec.lines) == 2
    assert a * b_again is not product and b * a is not product
    assert (a < b_again) is True
    assert len(rec.lines) == 5


def _repeating(a, b):
    """A body that repeats operations and a comparison."""
    ratio = a / b if a < b else b / a
    again = a / b if a < b else b / a
    return [ratio, again, ratio * again - a / b, -(a * b) + a * b]


def test_value_numbered_tape_keeps_the_sources_bits(monkeypatch):
    monkeypatch.setattr(tape, "_TAPES", {})
    for xs in ((1.5, 2.5), (-0.0, 3.0), (0.1, 0.7), (np.float64(0.3), 0.9)):
        assert (repr(tape._replay(_repeating, (), xs, ()))
                == repr(_repeating(*xs)))


def test_value_numbered_guard_that_disagrees_runs_the_body(monkeypatch):
    # the repeated comparison is one guard; when it disagrees, the body
    # runs on the real values and gives its own result
    monkeypatch.setattr(tape, "_TAPES", {})
    bodies = []

    def source(a, b):
        bodies.append(type(a).__name__)
        return _repeating(a, b)

    for xs in ((1.5, 2.5), (1.5, 2.25), (2.5, 1.5)):
        assert repr(tape._replay(source, (), xs, ())) == repr(_repeating(*xs))
    assert bodies == ["_Var", "float"]


@pytest.mark.parametrize("curved", [False, True])
def test_group_records_each_shared_operation_once(rng, monkeypatch, curved):
    # a group's members agree below their top coefficients, so its tape
    # makes their shared operations once: the two members beside the
    # first record fewer lines together than a group of one does
    model = random_acoustic_model(rng, 4, curved=curved)
    cov = Covector(1.0, (0.3 * model.critical_slowness(), 0.0))
    lines = []
    real = tape._Recording.compile

    def counted(self, *args):
        lines.append(len(self.lines))
        return real(self, *args)

    monkeypatch.setattr(tape._Recording, "compile", counted)
    for depth in range(1, 5):
        ms = _minus_side(cov, model.minus, model.geometry, depth,
                         GLANCING_TOL)
        pluses = [_with_top(model.plus, depth, r, c)
                  for r, c in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0))]
        for members in (pluses[:1], pluses):
            monkeypatch.setattr(tape, "_TAPES", {})
            _group(ms, depth, members)
        one, three = lines[-2:]
        assert three < 2 * one


def test_acoustic_recording_loads_no_elastic_engine():
    # a recording swaps its stand-ins into the loaded engine modules only
    code = (
        "import sys\n"
        "from reflectjet import acoustic, tape\n"
        "from reflectjet.jets import Jet\n"
        "from reflectjet.medium import AcousticSideJet, Covector\n"
        "side = AcousticSideJet(Jet([1.0, 0.2]), Jet([1.0, -0.1]))\n"
        "plus = AcousticSideJet(Jet([1.3, 0.1]), Jet([1.5, 0.2]))\n"
        "acoustic.forward_series(Covector(1.0, (0.3, 0.0)), side, plus,\n"
        "                        None, 1)\n"
        "assert len(tape._TAPES) == 2\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m in ('numpy', 'reflectjet.elastic')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_long_tape_replays_across_chunks():
    # values made early and used late pass through every chunk, and a
    # guard that disagrees in a late chunk hands over to the source
    def source(xs):
        acc = xs[0]
        for i in range(3 * tape._CHUNK):
            acc = acc * 0.5 + xs[i % 4]
            if i % 100 == 99 and acc > 1.0:
                acc = acc - 1.0
        return acc, xs[1], [xs[2] * acc]

    for xs in ((0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.6),
               (0.1, 0.2, 0.3, 0.4)):
        assert repr(tape._replay(source, (), (xs,), ())) == repr(source(xs))


_ELASTIC_SIDE = ElasticSideJet(Jet([1.0, 0.1]), Jet([1.0, 0.1]),
                               Jet([2.0, 0.1]))
_ELASTIC_MODEL = InterfaceModel(_ELASTIC_SIDE, _ELASTIC_SIDE)
_COV = Covector(1.0, (0.3, 0.0))

def _deep(side):
    """`side` with a zero first derivative."""
    return AcousticSideJet(Jet([side.rho[0], 0.0]), Jet([side.cs[0], 0.0]))


@pytest.mark.parametrize("call, error", [
    (lambda: forward_series(_COV, CONTRAST.minus, CONTRAST.plus, None, -1),
     "ValueError: depth must be non-negative"),
    (lambda: forward_series(_COV, CONTRAST.minus, _deep(CONTRAST.plus), None,
                            1),
     "DepthExceeded: symbol depth 1 exceeds model depth 0"),
    (lambda: forward_series(_COV, _deep(CONTRAST.minus), CONTRAST.plus, None,
                            1),
     "DepthExceeded: symbol depth 1 exceeds model depth 0"),
    (lambda: forward_symbols(_COV, _ELASTIC_MODEL, 0),
     "TypeError: acoustic engine requires an acoustic model"),
    (lambda: principal_rt(_COV, _ELASTIC_MODEL),
     "TypeError: acoustic engine requires an acoustic model"),
    (lambda: flux_residual(_COV, _ELASTIC_MODEL),
     "TypeError: acoustic engine requires an acoustic model"),
])
def test_engine_rejects_bad_depth_and_kind(call, error):
    # a negative depth, a side shallower than the depth asked for, and an
    # elastic model, each named before any engine work
    assert outcome(call) == error
