"""Acoustic reflection/transmission symbol series at an interface.

The engine evaluates the polyhomogeneous symbol orders (aR)_J, (aT)_J,
J = 0, -1, ..., -K, of the interface reflection and transmission
operators at one covector, for a laterally frozen model: material jets
along the normal only, with the interface shape entering through the
mean-curvature profile (divergence term) and the metric stretch of the
tangential wavenumber (vertical-wavenumber jet).

Construction, order by order:

* order 0 is the classical two-point solve
      R0 = (mu- xi3I - mu+ xi3T) / (mu- xi3I + mu+ xi3T),  T0 = 1 + R0;
* each amplitude (a)_J is carried as a jet along the normal whose
  higher coefficients follow from the transport recursion
      d(a)_J/dnu = G * (a)_J + S_J,
  with G = (P phi) / (2 rho c^2 zeta) and S_J built from the wave
  operator applied to the already-known order J+1 amplitude jet.  The
  value coefficient of (a)_J for J < 0 comes from the jump condition,
  which ties (aR)_J = (aT)_J to the normal derivatives of the three
  order J+1 amplitudes;
* remainder terms are never dropped: they are exactly the lower jet
  coefficients propagated by the recursion.

Sign conventions (fixed once, used by forward and inverse paths): the
vertical wavenumber is the positive root, the reflected branch carries
-xi3, and the order-0 transport bracket is

    d(a)_0/dnu = -[dlog(sqrt rho) + dlog(c)(1 - tau^2/(2 c^2 xi3^2))
                   + H/2 + (k1 xi1^2 + k2 xi2^2)/(2 xi3^2)] (a)_0,

i.e. the plus sign on the dlog(c) term, re-derived once from the
transport equations and pinned by the independently written order -1
closed form in the test suite.

The engine runs in two halves: `_minus_side` (all that the plus side
does not touch) and `_group`, which runs plus sides on it.  A jet's
coefficient m comes from coefficients <= m by the same operations at any
length, so a minus side built deeper serves every lower depth with the
same bits.  A group's plus sides must agree below their top coefficients
in bits and types (else ValueError, `medium.check_group`); then their
orders 0..-(depth-1) agree.  Each runs on the first plus side's
coefficients below the top, so the tape makes each operation they share
once.  The vertical-wavenumber jets and the regime test come from
`medium.zeta_jet`, which the elastic engine runs too, and the depth
checks from `medium.check_depth`.
Each half replays a tape (`reflectjet.tape`) of its body's scalar
operations.  A class key holds the depth, the depth the minus side was
built at, flat or curved, the number of plus sides and which share a cs
jet, and the type of every input scalar; the first call of a class
records it.  Every comparison the body makes (`jet_inv`'s zero test,
`jet_log`'s positivity test, the regime test, which reads |xi'| as
`Covector.xi_norm`, as `classify_regime` does) is a guard of the tape;
on a miss the body runs and raises its own error.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DepthExceeded
from .jets import (
    Jet,
    jet_derivative,
    jet_inv,
    jet_mul,
    jet_scale,
)
from .jets import _jet, _leibniz_terms
from .medium import (
    GLANCING_TOL,
    AcousticSideJet,
    Covector,
    InterfaceModel,
    SymbolSeries,
    _exact,
    check_depth,
    check_group,
    curvature_jets,
    vertical_wavenumber,
    zeta_jet,
)


# Per-branch transport data, as coefficient tuples: g (d(a)/dnu = g*a + s)
# and 1/(rho c^2 zeta) at depth K-1, mu at depth K; and the signed value
# of the vertical wavenumber.
_BranchState = namedtuple("_BranchState", "g inv_rcz mu zeta0")


def _convolve_coeff(m, a, b):
    """Coefficient m of the Leibniz product of coefficient sequences
    (accumulated as in `jets.jet_mul`)."""
    acc = 0
    for c, i, j in _leibniz_terms(m + 1)[m]:
        acc += c * a[i] * b[j]
    return acc


def _fill(value, branch: _BranchState, source, depth: int):
    """Amplitude jet coefficients from d(a)/dnu = g*a + source."""
    coeffs = [value]
    g = branch.g
    for m in range(depth):
        cm = _convolve_coeff(m, g, coeffs)
        if source is not None:
            cm = cm + source[m]
        coeffs.append(cm)
    return coeffs


def _wave_operator_source(branch: _BranchState, amp, h_coeffs, depth):
    """S_J = (1/(2i rho c^2 zeta)) * P(a_{J+1}), coefficients 0..depth-1.

    P(a) in the frozen model is -(mu a')' - mu H a'; `amp` is the order
    J+1 coefficient list (depth+2 entries), which is exactly enough to
    fill a depth-`depth` jet at order J.
    """
    if depth == 0:
        return ()
    da = amp[1:]
    mu = branch.mu
    mu_da = [_convolve_coeff(m, mu, da) for m in range(depth + 1)]
    out = []
    for m in range(depth):
        val = -mu_da[m + 1]
        if h_coeffs is not None:
            val -= _convolve_coeff(m, h_coeffs, mu_da)
        out.append(val)
    # 1/(2i) = -i/2 times 1/(rho c^2 zeta)
    inv = branch.inv_rcz
    return [(-0.5j) * _convolve_coeff(m, inv, out) for m in range(depth)]


def _branch_state(rho: Jet, cs2: Jet, zeta: Jet, h: Jet | None, depth: int):
    """Transport data for one branch from its side's rho and cs^2 jets and
    its signed zeta jet, all at `depth`."""
    mu = jet_mul(rho, cs2)
    if depth == 0:
        return _BranchState((), (), mu.coeffs, zeta[0])
    d = depth - 1
    mu_zeta = jet_mul(mu, zeta)
    p_phi = jet_scale(jet_derivative(mu_zeta), -1.0)
    if h is not None:
        p_phi = p_phi - jet_mul(h.truncate(d), mu_zeta.truncate(d))
    rcz = jet_mul(rho.truncate(d), jet_mul(cs2.truncate(d), zeta.truncate(d)))
    inv_rcz = jet_inv(rcz)
    g = jet_mul(p_phi, jet_scale(inv_rcz, 0.5))
    return _BranchState(g.coeffs, inv_rcz.coeffs, mu.coeffs, zeta[0])


def _minus_side(cov: Covector, minus: AcousticSideJet, geometry, depth: int,
                tol: float):
    """The covector's tau and |xi'|, the tolerance, the curvature jets,
    the incident and reflected branch states and the incident amplitude
    jets of every order: all that does not depend on the plus side.
    `_group` runs plus sides on it at this depth or any lower one."""
    from .tape import _replay  # loaded on first use, not at import

    h, stretch = curvature_jets(cov, geometry, depth)
    head = (cov.tau, tol, cov.xi_norm, h, stretch)
    return head + _replay(_minus_body, (depth,), head + (
        minus.rho.truncate(depth), minus.cs.truncate(depth)), h is None)


def _minus_body(depth, tau, tol, xi_norm, h, stretch, rho, cs):
    """The branch states and incident amplitude jets of `_minus_side`."""
    cs2 = jet_mul(cs, cs)
    z_minus = zeta_jet(tau, tol, xi_norm, cs, stretch)
    br_i = _branch_state(rho, cs2, z_minus, h, depth)
    br_r = _branch_state(rho, cs2, jet_scale(z_minus, -1.0), h, depth)
    amp_i = [_fill(1.0 + 0.0j, br_i, None, depth)]
    h_coeffs = h.coeffs if h is not None else None
    for k in range(1, depth + 1):
        d = depth - k
        s_i = _wave_operator_source(br_i, amp_i[-1], h_coeffs, d)
        amp_i.append(_fill(0.0j, br_i, s_i, d))
    return br_i, br_r, tuple(tuple(a) for a in amp_i)


def forward_series(
    cov: Covector,
    minus: AcousticSideJet,
    plus: AcousticSideJet,
    geometry,
    depth: int,
    tol: float = GLANCING_TOL,
) -> list:
    """Symbol orders [(aR_J, aT_J) for J = 0..-depth] at one covector.

    `geometry` is an InterfaceGeometry or None (flat).  The inversion
    runs groups of plus sides through the same two halves, `_minus_side`
    and `_group`, and reuses each minus side it builds.
    """
    check_depth(depth, minus, plus)
    return _group(_minus_side(cov, minus, geometry, depth, tol), depth,
                  [plus])[0]


def _group(minus_side, depth: int, pluses) -> list:
    """`forward_series` at `depth` for each of `pluses`, on a minus side
    built at `depth` or deeper (see the module note)."""
    return _plus_group(depth, pluses)(minus_side)


def _plus_group(depth: int, pluses):
    """`_group` of `pluses` as a function of the minus side: the checks
    and truncations of the plus sides run once, here."""
    from .tape import _replay

    check_group(pluses, depth)
    sides = tuple((p.rho.truncate(depth), p.cs.truncate(depth))
                  for p in pluses)
    first = {}  # cs coefficients -> the first plus side with them
    share = tuple(first.setdefault(_exact(cs.coeffs), i)
                  for i, (_, cs) in enumerate(sides))

    def group(minus_side):
        h, amp_i = minus_side[3], minus_side[-1]
        return _replay(_group_body, (depth, share), minus_side + (sides,),
                       (len(amp_i), h is None))
    return group


def _group_body(depth, share, tau, tol, xi_norm, h, stretch, br_i, br_r,
                amp_i, sides):
    """`_group`'s series of the plus sides' (rho, cs) jets in `sides`, each
    run on the first one's coefficients below the top and its own top
    coefficients, the cs one taken from plus side share[i]."""
    h_coeffs = h.coeffs if h is not None else None
    mu_m = br_i.mu[0]
    rho_1, cs_1 = sides[0]
    out = []
    for (rho, _), first in zip(sides, share):
        rho = _jet(rho_1.coeffs[:depth] + rho.coeffs[depth:])
        cs = _jet(cs_1.coeffs[:depth] + sides[first][1].coeffs[depth:])
        cs2 = jet_mul(cs, cs)
        br_t = _branch_state(rho, cs2, zeta_jet(tau, tol, xi_norm, cs,
                                                stretch), h, depth)
        mu_p = br_t.mu[0]
        denom = mu_m * br_i.zeta0 + mu_p * br_t.zeta0
        r0 = (mu_m * br_i.zeta0 - mu_p * br_t.zeta0) / denom
        amp_r = _fill(complex(r0), br_r, None, depth)
        amp_t = _fill(complex(1.0 + r0), br_t, None, depth)
        series = [(complex(r0), complex(1.0 + r0))]
        for k in range(1, depth + 1):
            d = depth - k
            s_t = _wave_operator_source(br_t, amp_t, h_coeffs, d)
            jump = mu_m * (amp_i[k - 1][1] + amp_r[1]) - mu_p * amp_t[1]
            val = -1j * jump / denom
            s_r = _wave_operator_source(br_r, amp_r, h_coeffs, d)
            amp_r = _fill(val, br_r, s_r, d)
            amp_t = _fill(val, br_t, s_t, d)
            series.append((val, val))
        out.append(series)
    return out


def forward_symbols(cov: Covector, model: InterfaceModel, depth: int,
                    tol: float = GLANCING_TOL) -> SymbolSeries:
    """Full symbol series (aR)_J, (aT)_J, J = 0..-depth, at one covector."""
    if model.is_elastic:
        raise TypeError("acoustic engine requires an acoustic model")
    if depth > model.depth:
        raise DepthExceeded(f"depth {depth} exceeds model depth {model.depth}")
    values = forward_series(cov, model.minus, model.plus, model.geometry,
                            depth, tol)
    orders = tuple((-k, aR, aT) for k, (aR, aT) in enumerate(values))
    return SymbolSeries(orders=orders, covector=cov, depth=depth)


def _impedances_r0(cov: Covector, model: InterfaceModel, tol: float):
    """Order-0 impedances mu- xi3I, mu+ xi3T and the reflection R0."""
    if model.is_elastic:
        raise TypeError("acoustic engine requires an acoustic model")
    minus, plus = model.minus, model.plus
    xi_i = vertical_wavenumber(cov, minus.cs[0], tol)
    xi_t = vertical_wavenumber(cov, plus.cs[0], tol)
    z_i = minus.rho[0] * minus.cs[0] ** 2 * xi_i
    z_t = plus.rho[0] * plus.cs[0] ** 2 * xi_t
    return z_i, z_t, (z_i - z_t) / (z_i + z_t)


def principal_rt(cov: Covector, model: InterfaceModel, tol: float = GLANCING_TOL):
    """Order-0 reflection/transmission coefficients (R0, T0 = 1 + R0)."""
    _, _, r0 = _impedances_r0(cov, model, tol)
    return r0, 1.0 + r0


def flux_residual(cov: Covector, model: InterfaceModel, tol: float = GLANCING_TOL) -> float:
    """Order-0 energy-flux identity mu- xi3I (1 - R0^2) - mu+ xi3T T0^2.

    Algebraically zero; the returned round-off residual is bounded by
    1e-12 * mu- xi3I for well-scaled inputs.
    """
    z_i, z_t, r0 = _impedances_r0(cov, model, tol)
    t0 = 1.0 + r0
    return z_i * (1.0 - r0 * r0) - z_t * t0 * t0
