"""End-to-end oracle: the symbol series against the wave equation itself.

The frozen model reduces the wave equations to ODEs along the normal.
With a constant minus side the incident/reflected decomposition above
the interface is exact plane waves (no transport factors), and a C-inf
plus side that matches prescribed jets near the interface and flattens
to constants produces only sub-exponentially small extra reflections.
High-accuracy numerical integration of those ODEs therefore yields the
true reflection response R(omega), and subtracting the engine's series
through order -K must leave a remainder that decays like omega^-(K+1):
every retained order removes exactly one power.

This validates the full construction (transport recursions, jump
conditions, sign conventions, remainder accumulation) against first
principles, with no shared code between oracle and engine.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reflectjet.acoustic import forward_symbols
from reflectjet.elastic import forward_symbols_elastic
from reflectjet.jets import Jet
from reflectjet.medium import AcousticSideJet, Covector, ElasticSideJet, InterfaceModel

OMEGAS = (500.0, 1000.0)
S_FLAT, S_END = 0.2, 1.4  # jets exact on [0, S_FLAT], constant beyond S_END
_FACTORIALS = [math.factorial(k) for k in range(8)]


def _poly(jet, s):
    return sum(c * s ** k / _FACTORIALS[k] for k, c in enumerate(jet))

def _bump(t):
    return math.exp(-1.0 / t) if t > 0 else 0.0

def _chi(s):
    if s <= S_FLAT:
        return 1.0
    if s >= S_END:
        return 0.0
    t = (s - S_FLAT) / (S_END - S_FLAT)
    rising = _bump(1 - t)
    return rising / (rising + _bump(t))

def _profile(jet):
    tail = _poly(jet, S_FLAT * 1.5)

    def value(s):
        chi = _chi(s)
        return chi * _poly(jet, s) + (1 - chi) * tail

    return value


def _decay_check(remainders, expected_power, lo=0.6, hi=1.5):
    """remainders[i] at OMEGAS[i] must scale like omega^-expected_power."""
    want = OMEGAS[1] / OMEGAS[0]  # doubling
    ratio = remainders[0] / remainders[1]
    assert lo * want ** expected_power <= ratio <= hi * want ** expected_power, \
        f"remainder decays like omega^-{math.log(ratio, 2):.2f}, " \
        f"expected omega^-{expected_power}"


def test_acoustic_series_matches_wave_equation():
    rho_j = [1.3, 0.4, -0.5, 0.6]
    c_j = [1.5, -0.3, 0.4, -0.2]
    rho_m, c_m = 1.0, 1.0
    b = 0.35
    rho_p, c_p = _profile(rho_j), _profile(c_j)
    mu_p = lambda s: rho_p(s) * c_p(s) ** 2
    assert min(1.0 / c_p(s) ** 2 - b * b
               for s in np.linspace(0, S_END, 400)) > 0

    zeta_m = math.sqrt(1.0 / c_m ** 2 - b * b)
    mu_m = rho_m * c_m ** 2
    mu_t = mu_p(S_END)
    zeta_t = math.sqrt(1.0 / c_p(S_END) ** 2 - b * b)

    def exact_rt(omega):
        def rhs(s, y):
            # each profile once per call; mu is mu_p(s)
            rho = rho_p(s)
            mu = rho * c_p(s) ** 2
            u = y[0] + 1j * y[1]
            w = y[2] + 1j * y[3]
            up = w / mu
            wp = -omega ** 2 * (rho - mu * b * b) * u
            return [up.real, up.imag, wp.real, wp.imag]

        # start on the constant tail with the outgoing wave only
        y0 = [1.0, 0.0, 0.0, mu_t * omega * zeta_t]
        sol = solve_ivp(rhs, (S_END, 0.0), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        u0 = sol.y[0, -1] + 1j * sol.y[1, -1]
        w0 = sol.y[2, -1] + 1j * sol.y[3, -1]
        q = w0 / (1j * omega * zeta_m * mu_m)
        amp_in = (u0 + q) / 2.0
        return (u0 - q) / 2.0 / amp_in, u0 / amp_in

    model = InterfaceModel(
        AcousticSideJet(Jet([rho_m, 0, 0, 0]), Jet([c_m, 0, 0, 0])),
        AcousticSideJet(Jet(rho_j), Jet(c_j)),
    )
    series = forward_symbols(Covector(1.0, (b, 0.0)), model, 3)
    a_r = [series.orders[k][1] for k in range(4)]
    a_t = [series.orders[k][2] for k in range(4)]

    exact = [exact_rt(w) for w in OMEGAS]
    for coeffs, values in ((a_r, [e[0] for e in exact]),
                           (a_t, [e[1] for e in exact])):
        for K in range(4):
            rem = [abs(v - sum(w ** (-j) * coeffs[j] for j in range(K + 1)))
                   for w, v in zip(OMEGAS, values)]
            _decay_check(rem, K + 1)
            if K < 3:
                # the remainder's leading magnitude is the next coefficient
                est = rem[1] * OMEGAS[1] ** (K + 1)
                assert est == pytest.approx(abs(coeffs[K + 1]), rel=0.35)
        assert rem[1] <= 1e-11  # order -3 matched to integrator precision


def test_elastic_series_matches_wave_equation():
    rho_j = [1.3, 0.3, -0.4]
    cs_j = [1.1, -0.2, 0.3]
    cp_j = [2.1, 0.3, -0.5]
    rho_m, cs_m, cp_m = 1.0, 0.9, 1.9
    b = 0.3
    rho_p, cs_p, cp_p = _profile(rho_j), _profile(cs_j), _profile(cp_j)
    grid = np.linspace(0, S_END, 400)
    assert min(1.0 / cp_p(s) ** 2 - b * b for s in grid) > 0
    assert min(cp_p(s) ** 2 - 4.0 / 3.0 * cs_p(s) ** 2 for s in grid) > 0

    def lame(rho, cs, cp):
        mu = rho * cs * cs
        return rho * cp * cp - 2 * mu, mu

    def mode_y(d1, d3, kap3, lam, mu, omega):
        """(u1, u3, sig13, sig33) of a plane mode at unit phase."""
        return np.array([
            d1, d3,
            1j * omega * mu * (kap3 * d1 + b * d3),
            1j * omega * (lam * b * d1 + (lam + 2 * mu) * kap3 * d3),
        ])

    def exact_r(omega):
        lam_t, mu_t = lame(rho_p(S_END), cs_p(S_END), cp_p(S_END))
        zp_t = math.sqrt(1.0 / cp_p(S_END) ** 2 - b * b)
        zs_t = math.sqrt(1.0 / cs_p(S_END) ** 2 - b * b)

        def rhs(s, y):
            u1 = y[0] + 1j * y[1]
            u3 = y[2] + 1j * y[3]
            s13 = y[4] + 1j * y[5]
            s33 = y[6] + 1j * y[7]
            rho = rho_p(s)  # each profile once per call
            lam, mu = lame(rho, cs_p(s), cp_p(s))
            lp2m = lam + 2 * mu
            u1p = s13 / mu - 1j * omega * b * u3
            u3p = (s33 - 1j * omega * b * lam * u1) / lp2m
            s13p = (-rho * omega ** 2
                    + omega ** 2 * b * b * 4 * mu * (lam + mu) / lp2m) * u1 \
                - 1j * omega * b * lam / lp2m * s33
            s33p = -rho * omega ** 2 * u3 - 1j * omega * b * s13
            return [u1p.real, u1p.imag, u3p.real, u3p.imag,
                    s13p.real, s13p.imag, s33p.real, s33p.imag]

        tails = []
        for d, kap in (((b * cp_p(S_END), zp_t * cp_p(S_END)), zp_t),
                       ((zs_t * cs_p(S_END), -b * cs_p(S_END)), zs_t)):
            y0c = mode_y(d[0], d[1], kap, lam_t, mu_t, omega)
            y0 = np.empty(8)
            for i, z in enumerate(y0c):
                y0[2 * i] = z.real
                y0[2 * i + 1] = z.imag
            sol = solve_ivp(rhs, (S_END, 0.0), y0, method="DOP853",
                            rtol=1e-12, atol=1e-14)
            yv = sol.y[:, -1]
            tails.append(np.array([yv[0] + 1j * yv[1], yv[2] + 1j * yv[3],
                                   yv[4] + 1j * yv[5], yv[6] + 1j * yv[7]]))

        lam_m, mu_m = lame(rho_m, cs_m, cp_m)
        zp = math.sqrt(1.0 / cp_m ** 2 - b * b)
        zs = math.sqrt(1.0 / cs_m ** 2 - b * b)
        # unit polarizations matching the engine's (P, SV) mode basis
        inc = {"P": mode_y(b * cp_m, zp * cp_m, zp, lam_m, mu_m, omega),
               "SV": mode_y(zs * cs_m, -b * cs_m, zs, lam_m, mu_m, omega)}
        ref_p = mode_y(b * cp_m, -zp * cp_m, -zp, lam_m, mu_m, omega)
        ref_sv = mode_y(-zs * cs_m, -b * cs_m, -zs, lam_m, mu_m, omega)
        a = np.column_stack([-ref_p, -ref_sv, tails[0], tails[1]])
        return {name: np.linalg.solve(a, y)[:2] for name, y in inc.items()}

    model = InterfaceModel(
        ElasticSideJet(Jet([rho_m, 0, 0]), Jet([cs_m, 0, 0]),
                       Jet([cp_m, 0, 0])),
        ElasticSideJet(Jet(rho_j), Jet(cs_j), Jet(cp_j)),
    )
    series = forward_symbols_elastic(Covector(1.0, (b, 0.0)), model, 2)
    r_mats = [series.orders[k][1] for k in range(3)]

    exact = [exact_r(w) for w in OMEGAS]
    for qi, qname in ((0, "P"), (1, "SV")):
        for ri in (0, 1):
            values = [e[qname][ri] for e in exact]
            for K in range(3):
                rem = [abs(v - sum(w ** (-j) * r_mats[j][ri, qi]
                                   for j in range(K + 1)))
                       for w, v in zip(OMEGAS, values)]
                _decay_check(rem, K + 1)
            assert rem[1] <= 5e-9  # order -2 matched through the remainder
