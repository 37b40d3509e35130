"""Elastic matrix-symbol engine: polarization bases, the 6x6 solve vs the
SH closed form, block structure, and the acoustic engine as the oracle
for the decoupled SH channel."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from reflectjet import elastic
from reflectjet.acoustic import forward_symbols
from reflectjet.elastic import (
    ELASTIC_DEPTH_CAP,
    forward_series_elastic,
    forward_symbols_elastic,
    polarization_basis,
    principal_rt_matrices,
    sh_reflection,
)
from reflectjet.errors import CascadeIncompatible, DepthExceeded, EvanescentError
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
from reflectjet.sampling import random_elastic_model


def _pair(rng, depth=0, contrast=2.0):
    return random_elastic_model(rng, depth, contrast=contrast)


def test_polarization_basis_invariants(rng):
    side = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    for _ in range(30):
        tau = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.05, 0.45)
        angle = rng.uniform(0.0, 2 * np.pi)
        cov = Covector(tau, (b * tau * np.cos(angle), b * tau * np.sin(angle)))
        for branch in ("incident", "reflected", "transmitted"):
            pb = polarization_basis(cov, side, branch)
            frame = np.array([pb.N1, pb.N2, pb.xiS / np.linalg.norm(pb.xiS)])
            assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-12
            assert abs(pb.N @ pb.N - 1.0) <= 1e-12
            assert abs(pb.M1 @ np.array([*cov.xi, 0.0])) <= 1e-12
            assert abs(pb.M1[2]) == 0.0
            assert abs(pb.M2 @ pb.xiP) <= 1e-12
            assert np.abs(pb.M - (-1j) * pb.xiS).max() <= 1e-12


def test_polarization_basis_m1_example():
    side = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    cov = Covector(1.0, (0.25, 0.1))
    pb = polarization_basis(cov, side, "incident")
    np.testing.assert_allclose(pb.M1, -1j * np.array([-0.1, 0.25, 0.0]))


def test_polarization_basis_in_plane_p():
    side = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    cov = Covector(1.0, (0.3, 0.0))
    pb = polarization_basis(cov, side, "incident")
    z = vertical_wavenumber(cov, 2.0)
    expected = np.array([0.3, 0.0, z])
    np.testing.assert_allclose(pb.N, expected / np.linalg.norm(expected),
                               atol=1e-14)


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
    # the SH channel (slot 3) decouples from P-SV at every order, and the
    # coupling entries are exactly +0.0, which the CSV output shows
    for curved in (False, True) * 5:
        model = random_elastic_model(rng, 2, curved=curved)
        b_crit = model.critical_slowness()
        for b in (0.0, rng.uniform(0.05, 0.8) * b_crit, 0.999 * b_crit):
            for angle in (0.0, rng.uniform(0.0, 2.0 * np.pi)):
                cov = Covector(1.0, (b * np.cos(angle), b * np.sin(angle)))
                series = forward_symbols_elastic(cov, model, 2)
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
    # a cold run and on a cached one
    model = _pair(rng, depth=2)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.1))
    keys = []
    check = elastic._check_compatible

    def record(key, *args):
        keys.append(key)
        return check(key, *args)

    monkeypatch.setattr(elastic, "_check_compatible", record)
    elastic._minus_side.cache_clear()
    for _ in range(2):
        keys.clear()
        forward_series_elastic(cov, model.minus, model.plus, None, 2)
        # 3 columns (P, SV, SH) times steps 1 and 2
        assert keys == list(elastic._CHECK_KEYS) * 3 * 2


def test_sh_channel_equals_acoustic_engine(rng):
    # the decoupled SH sub-problem must reproduce the acoustic symbols
    # with the (rho, cs) identification, including curvature
    for curved in (False, True):
        for _ in range(5):
            model = random_elastic_model(rng, 1, curved=curved)
            acoustic_model = InterfaceModel(
                AcousticSideJet(model.minus.rho, model.minus.cs),
                AcousticSideJet(model.plus.rho, model.plus.cs),
                model.geometry,
            )
            b = rng.uniform(0.05, 0.8) * model.critical_slowness()
            cov = Covector(1.0, (b, 0.3 * b))
            es = forward_symbols_elastic(cov, model, 1)
            as_ = forward_symbols(cov, acoustic_model, 1)
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
    model = _pair(rng, depth=2)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.0))
    series = forward_symbols_elastic(cov, model, 2)
    r0, t0 = principal_rt_matrices(cov, model)
    np.testing.assert_allclose(series.orders[0][1], r0, atol=1e-13)
    np.testing.assert_allclose(series.orders[0][2], t0, atol=1e-13)


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


def test_mode_converted_evanescent_rejected():
    minus = ElasticSideJet(Jet([1.0]), Jet([1.0]), Jet([2.0]))
    plus = ElasticSideJet(Jet([1.0]), Jet([1.1]), Jet([4.0]))
    model = InterfaceModel(minus, plus)
    # S hyperbolic everywhere but P evanescent on the plus side
    with pytest.raises(EvanescentError):
        principal_rt_matrices(Covector(1.0, (0.4, 0.0)), model)


def _copy_side(side):
    """Equal jets in new objects: a cold start for the minus-side cache."""
    return ElasticSideJet(Jet(list(side.rho)), Jet(list(side.cs)),
                          Jet(list(side.cp)))


def _as_lists(series):
    return [(r.tolist(), t.tolist()) for r, t in series]


@pytest.mark.parametrize("curved", [False, True])
def test_minus_side_cache_changes_nothing(rng, curved):
    # the cached incident/reflected half, reused after other plus sides,
    # gives exactly what a cold run gives
    for depth in (0, 1, 2):
        model = _pair(rng, depth=2)
        others = [_pair(rng, depth=2).plus for _ in range(2)]
        speeds = model.speeds() + tuple(s for p in others for s in p.speeds)
        b = 0.7 / max(speeds)
        cov = Covector(1.1, (0.6 * b * 1.1, 0.5 * b * 1.1))
        geometry = InterfaceGeometry(0.7, -0.4) if curved else None
        elastic._minus_side.cache_clear()
        cold = forward_series_elastic(
            Covector(cov.tau, cov.xi), _copy_side(model.minus), model.plus,
            InterfaceGeometry(0.7, -0.4) if curved else None, depth)
        for plus in others:
            forward_series_elastic(cov, model.minus, plus, geometry, depth)
        hot = forward_series_elastic(cov, model.minus, model.plus, geometry,
                                     depth)
        assert elastic._minus_side(cov, model.minus, geometry, depth,
                                   GLANCING_TOL) \
            is elastic._minus_side(cov, model.minus, geometry, depth,
                                   GLANCING_TOL)
        assert _as_lists(hot) == _as_lists(cold)


def test_incident_incompatibility_raises_cold_and_cached(rng, monkeypatch):
    model = _pair(rng, depth=1)
    cov = Covector(1.0, (0.4 * model.critical_slowness(), 0.0))

    def run():
        return forward_series_elastic(cov, model.minus, model.plus, None, 1)

    elastic._minus_side.cache_clear()
    with monkeypatch.context() as patch:
        # a negative relative tolerance: no right-hand side is compatible
        patch.setattr(elastic, "_COMPAT_RTOL", -1.0)
        with pytest.raises(CascadeIncompatible, match="incident P-mode"):
            run()  # cold: the incident cascade is computed here
        with pytest.raises(CascadeIncompatible, match="incident P-mode"):
            run()  # cached incident cascade, checks evaluated again
    run()  # the checks pass at the real tolerance
    monkeypatch.setattr(elastic, "_COMPAT_RTOL", -1.0)
    with pytest.raises(CascadeIncompatible, match="incident P-mode"):
        run()  # a cache hit after a passing run still checks


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
