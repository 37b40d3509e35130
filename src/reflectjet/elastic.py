"""Elastic reflection/transmission matrix symbols at an interface.

The 3x3 matrix symbols R_J, T_J act on mode-coefficient vectors in the
polarization basis (P, SV, SH), where SV/SH are defined relative to the
plane of incidence.  Internally the engine rotates coordinates so the
tangential covector is (|xi'|, 0): the SH channel then decouples exactly
from the P-SV block at every order, and the symbol matrices (being mode
coefficients) need no rotation back.

Order 0 is the classical 6x6 interface solve

    [-S_R  S_T; -T_R  T_T] [A_R; A_T] = [S_I; T_I] A_I,

with S the displacement-polarization columns and T the traction images.
Lower orders carry each per-mode amplitude as a 3-vector jet along the
normal whose non-polarized part is the pseudo-inverse of the cascade
equation p(Xi) a_J = -(L1 a_{J+1} + L0 a_{J+2}) and whose polarized part
solves the kernel-projected transport equations; the same 6x6 matrix
closes every order with right-hand sides built from the normal
derivatives of the order J+1 amplitudes.  All remainder contributions
ride along exactly in the jet coefficients.

The plus side enters only through the transmitted branch and the 6x6
system, so a run has two halves.  `_MinusSide` holds what the
covector, minus side, geometry, depth and tolerance fix: the curvature
jets, the incident and reflected mode contexts, their interface
columns, and for each incident column the incident cascade together
with what its compatibility checks need.  `_group` runs plus sides on
it, sharing each distinct speed jet's zeta jet; `_order0` gives a
depth-0 group's order-0 matrices alone, from one stacked condition
check and solve.  A jet's coefficient m comes from coefficients <= m
by the same operations at any length, so plus sides that agree below
their top coefficients (else ValueError) agree in every value that
does not reach the top: at depth >= 1 a group's runs share the
interface (the 6x6 matrix, its check and solve, the inverse columns)
and the reflected cascade, which the first run records.  Every output
keeps the bits of a separate run, and every compatibility check of
every branch still runs in every run, because its bound depends on
the plus side through the run's amplitude and operator scales.

The cascade leaves out what is zero by construction.  In the rotated
frame the P kernel and the SV kernel have no middle component and the
SH kernel has only that one; the transport operators map components 1
and 3 to components 1 and 3 and the middle one to itself, and the
pseudo-inverse's solutions have no middle component.  So the P and SV
incident columns live in the P-SV channel (components 1 and 3, the P
and SV kernels) and the SH column in the SH channel (component 2, the
S-mode SH kernel alone, with no P amplitude at all), and each column
runs only its own channel.  An operator factor that vanishes for the
input, such as kt' on a flat interface or kt at normal incidence, is
left out the same way.  A left-out jet is carried as None, and a left
out product is one whose every coefficient would be exactly zero, so
dropping it changes at most the sign of a zero: every nonzero output is
bit-identical to the full computation.  The compatibility checks of a
zero channel still run, with gap 0 and scale 0.  The 6x6 interface
solve stays whole: it is a small share of the time, and splitting it
into the P-SV and SH blocks could change LAPACK's rounding, while the
whole solve keeps every coupling entry of R_J and T_J an exact +0.0.

The forward depth is capped at two orders below principal
(ELASTIC_DEPTH_CAP): the machinery iterates further, but only orders
0..-2 are validated by the round-trip suite, so deeper requests are
rejected rather than returned unvalidated.

Conventions shared with the acoustic engine: positive vertical
wavenumbers, reflected branch negated, normal jets pointing into the
transmitted side.  At normal incidence the incidence plane degenerates
and the SV/SH axes default to (e1, e2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CascadeIncompatible, DepthExceeded, SingularInterfaceSystem
from .jets import (
    Jet,
    constant_jet,
    jet_derivative,
    jet_inv,
    jet_mul,
    jet_scale,
    jet_sqrt,
)
from .medium import (
    GLANCING_TOL,
    Covector,
    ElasticSideJet,
    InterfaceModel,
    curvature_jets,
    derive_lame_jets,
    vertical_wavenumber,
)

ELASTIC_DEPTH_CAP = 2

_COND_LIMIT = 1e12

P, SV, SH = 0, 1, 2  # mode-coefficient slots


@dataclass(frozen=True)
class ElasticSymbolSeries:
    """orders[k] = (J, R_J, T_J) with 3x3 complex matrices, J = -k."""

    orders: tuple
    covector: Covector
    depth: int

    def reflection(self, order: int) -> np.ndarray:
        return self.orders[-order][1]

    def transmission(self, order: int) -> np.ndarray:
        return self.orders[-order][2]


def sh_reflection(cov: Covector, minus: ElasticSideJet, plus: ElasticSideJet,
                  tol: float = GLANCING_TOL) -> float:
    """Closed-form SH reflection coefficient; oracle for the 6x6 solve."""
    zi = vertical_wavenumber(cov, minus.cs[0], tol)
    zt = vertical_wavenumber(cov, plus.cs[0], tol)
    mu_m = minus.rho[0] * minus.cs[0] ** 2
    mu_p = plus.rho[0] * plus.cs[0] ** 2
    return (mu_m * zi - mu_p * zt) / (mu_m * zi + mu_p * zt)


# --- frozen-model transport machinery ---------------------------------------
#
# Everything below works in the rotated frame xi' = (|xi'|, 0).
# Amplitudes are 3-vectors of jets; Xi = (kt(x3), 0, zeta(x3)) with zeta
# the signed vertical-wavenumber jet of the branch/mode and kt the
# (stretched) tangential wavenumber jet.
#
# A jet that is zero by construction is absent: it is carried as None and
# takes part in no product or sum (see the module docstring).

# the kernel slots of each channel
_PSV, _SH = (P, SV), (SH,)

_ABSENT = (None, None, None)


def _channel(q: int):
    return _SH if q == SH else _PSV


def _nz(j: Jet):
    """`j`, or None when every coefficient of `j` is exactly zero."""
    for c in j.coeffs:
        if c != 0:
            return j
    return None


def _mul(a, b):
    if a is None or b is None:
        return None
    return jet_mul(a, b)


def _sum(*terms):
    """The present terms added left to right, as `a + b + ...` adds them."""
    out = None
    for t in terms:
        if t is not None:
            out = t if out is None else out + t
    return out


def _sub(a, b):
    if b is None:
        return a
    return jet_scale(b, -1.0) if a is None else a - b


def _scale(a, s):
    return None if a is None else jet_scale(a, s)


def _max_abs(j) -> float:
    return 0.0 if j is None else max(abs(c) for c in j.coeffs)


class _ModeCtx:
    """Per (branch, mode) transport context.

    `kt` is the jet of the tangential wavenumber along the normal: the
    constant |xi'| for a flat interface, sqrt of the shape-operator
    stretch profile otherwise, which keeps |Xi|^2 = kt^2 + zeta^2 equal
    to tau^2/c^2 exactly at every depth.  The operator jets `_l1` and
    `_pinv` use at a depth depend on the material and the phase alone;
    `ops[d]` holds them for every depth d a cascade uses, 0..depth-1.
    `kernels` maps each kernel slot of the mode to its vector, with the
    vector's zero entries absent.
    """

    __slots__ = ("kt", "zeta", "rho", "lam", "mu", "lam_mu", "h", "mode",
                 "tau", "xi_sq", "kernels", "q0", "p_diag", "op_scale",
                 "ops")

    def __init__(self, kt, zeta, rho, lam, mu, h, mode, tau):
        self.kt = kt
        self.zeta = zeta
        self.rho = rho
        self.lam = lam
        self.mu = mu
        self.lam_mu = lam + mu
        self.h = h
        self.mode = mode
        self.tau = tau
        depth = zeta.depth
        self.xi_sq = _xi_norm_sq(kt, zeta)
        inv_norm = jet_inv(jet_sqrt(self.xi_sq))
        kz = _nz(jet_mul(kt, inv_norm))  # absent at normal incidence
        zn = jet_mul(zeta, inv_norm)
        p33 = lam + jet_scale(mu, 2.0)
        if mode == "P":
            self.kernels = {P: (kz, None, zn)}
            c2 = p33
        else:
            self.kernels = {SV: (zn, None, _scale(kz, -1.0)),
                            SH: (None, constant_jet(1.0, depth), None)}
            c2 = mu
        # q = -2i (rho c^2) zeta is the kernel-transport divisor; only its
        # value coefficient divides, the rest rides in the projected jets.
        self.q0 = -2j * c2[0] * zeta[0]
        self.p_diag = (mu, mu, p33)
        # this context's share of the round-off yardstick of the cascade
        # compatibility checks
        self.op_scale = abs(self.q0) + max(abs(c) for c in p33.coeffs) \
            * (1.0 + abs(zeta[0]))
        self.ops = [_DepthOps(self, d) for d in range(depth)]


class _DepthOps:
    """The material-and-phase jets of one context at depth d: the factors
    of `_l1` that do not involve the amplitude, and the inverses `_pinv`
    divides by.  A factor that vanishes for the input is absent: `kt'`
    and `mu kt'` on a flat interface, `kt` at normal incidence, and the
    derivative factors of a side whose material is constant."""

    __slots__ = ("kt", "zeta", "lam", "lm", "mu_p", "lam_p", "kt_p",
                 "zeta_p", "d_mu_zeta", "mu_zeta", "two_mu_zeta", "mu_kt_p",
                 "mu_zeta_p", "mu_p_zeta", "h", "hmu", "inv_xi_sq",
                 "inv_m", "inv_lm_xi4")

    def __init__(self, ctx: _ModeCtx, d: int):
        self.kt = _nz(_fit(ctx.kt, d))
        self.zeta = zeta = _fit(ctx.zeta, d)
        self.lam = _fit(ctx.lam, d)
        self.lm = lm = _fit(ctx.lam_mu, d)
        mu = _fit(ctx.mu, d)
        mu_p = _fit(jet_derivative(ctx.mu), d)
        kt_p = _fit(jet_derivative(ctx.kt), d)
        zeta_p = _fit(jet_derivative(ctx.zeta), d)
        self.mu_p, self.kt_p, self.zeta_p = _nz(mu_p), _nz(kt_p), _nz(zeta_p)
        self.lam_p = _nz(_fit(jet_derivative(ctx.lam), d))
        self.d_mu_zeta = _nz(_fit(jet_derivative(jet_mul(ctx.mu, ctx.zeta)),
                                  d))
        self.mu_zeta = jet_mul(mu, zeta)
        self.two_mu_zeta = jet_scale(self.mu_zeta, 2.0)
        self.mu_kt_p = _nz(jet_mul(mu, kt_p))
        self.mu_zeta_p = _nz(jet_mul(mu, zeta_p))
        self.mu_p_zeta = _nz(jet_mul(mu_p, zeta))
        self.h = self.hmu = None
        if ctx.h is not None:
            self.h = h = _fit(ctx.h, d)
            self.hmu = jet_mul(h, mu)
        xi_sq = _fit(ctx.xi_sq, d)
        self.inv_xi_sq = jet_inv(xi_sq)
        self.inv_m = self.inv_lm_xi4 = None
        if ctx.mode == "P":
            m = jet_scale(_fit(ctx.rho, d), ctx.tau * ctx.tau) \
                - jet_mul(mu, xi_sq)
            self.inv_m = jet_inv(m)
        else:
            self.inv_lm_xi4 = jet_inv(jet_mul(lm, jet_mul(xi_sq, xi_sq)))


def _xi_norm_sq(kt, zeta):
    return jet_mul(zeta, zeta) + jet_mul(kt, kt)


def _fit(j: Jet, d: int) -> Jet:
    if len(j.coeffs) <= d:
        raise ValueError("jet shallower than requested depth")
    return j.truncate(d)


def _jv_fit(v, d):
    return tuple(None if c is None else _fit(c, d) for c in v)


def _jv_add(*vs):
    return tuple(_sum(*cs) for cs in zip(*vs))


def _jv_deriv(v):
    return tuple(None if c is None else jet_derivative(c) for c in v)


def _jv_scale_jet(v, s: Jet):
    return tuple(_mul(c, s) for c in v)


def _jv_values(v, k: int = 0):
    """Coefficient k of each component, an absent one as 0."""
    return np.array([0j if c is None else complex(c[k]) for c in v])


def _l1(ctx: _ModeCtx, a, d: int):
    """Degree-(+1) transport operator applied to an amplitude jet-vector.

    Needs `a` to depth d+1 and returns depth d.  Includes the
    mean-curvature divergence correction (ctx.h) and the normal
    variation Xi' = (kt', 0, zeta') of the phase gradient.  Components
    1 and 3 map to components 1 and 3, and component 2 to component 2.
    """
    op = ctx.ops[d]
    kt, zeta, lm, two_mu_zeta = op.kt, op.zeta, op.lm, op.two_mu_zeta
    d_mu_zeta = op.d_mu_zeta
    da1, da2, da3 = _jv_fit(_jv_deriv(a), d)
    a1, a2, a3 = _jv_fit(a, d)
    xi_da = _sum(_mul(kt, da1), _mul(zeta, da3))
    xi_a = _sum(_mul(kt, a1), _mul(zeta, a3))
    xi_p_a = _sum(_mul(op.kt_p, a1), _mul(op.zeta_p, a3))

    o1 = _sum(_mul(kt, _mul(lm, da3)), _mul(two_mu_zeta, da1),
              _mul(kt, _mul(op.mu_p, a3)), _mul(op.mu_kt_p, a3),
              _mul(d_mu_zeta, a1))
    o2 = _sum(_mul(two_mu_zeta, da2), _mul(d_mu_zeta, a2))
    o3 = _sum(_mul(lm, _sum(_mul(zeta, da3), xi_da)), _mul(op.lam, xi_p_a),
              _mul(op.mu_zeta_p, a3), _mul(two_mu_zeta, da3),
              _mul(op.lam_p, xi_a), _mul(op.mu_p_zeta, a3),
              _mul(d_mu_zeta, a3))
    if op.h is not None:
        hmu = op.hmu
        o1 = _sum(o1, _mul(hmu, _sum(_mul(kt, a3), _mul(zeta, a1))))
        o2 = _sum(o2, _mul(hmu, _mul(zeta, a2)))
        o3 = _sum(o3, _mul(op.h, _sum(_mul(op.lam, xi_a),
                                      _scale(_mul(op.mu_zeta, a3), 2.0))))
    return _scale(o1, -1j), _scale(o2, -1j), _scale(o3, -1j)


def _l0(ctx: _ModeCtx, a, d: int):
    """Degree-0 part: -(P a')' - H P a'; needs `a` to depth d+2."""
    out = []
    for pc, dc in zip(ctx.p_diag, _jv_deriv(a)):
        if dc is None:
            out.append(None)
            continue
        p_da = jet_mul(_fit(pc, d + 1), _fit(dc, d + 1))
        o = jet_scale(jet_derivative(p_da), -1.0)
        if ctx.h is not None:
            o = o - jet_mul(_fit(ctx.h, d), _fit(p_da, d))
        out.append(o)
    return tuple(out)


def _rhs_scale(rhs):
    return max(_max_abs(c) for c in rhs)


# relative tolerance of the cascade compatibility checks
_COMPAT_RTOL = 1e-8


def _pinv(ctx: _ModeCtx, rhs, d: int):
    """Minimal-norm solution of p(Xi) x = rhs on the mode's eikonal branch.

    Solvability is not assumed: the kernel component of `rhs` vanishes
    identically when the transport fills of the higher orders were
    consistent.  Returns the solution and the compatibility check of
    `rhs`, for `_check_compatible`: its gaps, each the largest
    coefficient of a part of `rhs` that must vanish, their bound's factor
    and the scale of `rhs`.  The check is kept apart from the solve
    because its bound depends on every branch of the run.  The middle
    component of every solution is absent: an S solution lies along Xi,
    and no P amplitude has a middle component for `_l1` and `_l0` to
    carry into a P right-hand side.
    """
    op = ctx.ops[d]
    kt, zeta = op.kt, op.zeta
    rhs = _jv_fit(rhs, d)
    xi_rhs = _sum(_mul(kt, rhs[0]), _mul(zeta, rhs[2]))
    scale = _rhs_scale(rhs)
    coef_dir = _mul(xi_rhs, op.inv_xi_sq)
    if ctx.mode == "P":
        # p = -m I + (lam+mu) Xi (x) Xi with m = rho tau^2 - mu |Xi|^2 > 0;
        # range = kernel-orthogonal complement, so Xi . rhs must vanish.
        check = ((_max_abs(xi_rhs),), 1.0 + abs(zeta[0]), scale)
        return tuple(_mul(_scale(_sub(r, _mul(coef_dir, xi_c)), -1.0),
                          op.inv_m)
                     for r, xi_c in zip(rhs, (kt, None, zeta))), check
    # S: p = (lam+mu) Xi (x) Xi; range = span(Xi), so the part of rhs
    # orthogonal to Xi must vanish.  The factor 1.0 leaves the bound
    # exact.
    gaps = tuple(_max_abs(_sub(r, _mul(coef_dir, xi_c)))
                 for r, xi_c in zip(rhs, (kt, None, zeta)))
    coef = _mul(xi_rhs, op.inv_lm_xi4)
    return (_mul(coef, kt), None, _mul(coef, zeta)), (gaps, 1.0, scale)


_BRANCH_NAMES = {"I": "incident", "R": "reflected", "T": "transmitted"}


def _check_compatible(key, check, noise_floor: float):
    """Raise CascadeIncompatible unless every gap of `check` is within
    its bound.

    The bound is a relative tolerance on the scale of the right-hand
    side plus `noise_floor`, the round-off scale of the cancellations
    that produced it (amplitude scale times operator scale), which keeps
    the check meaningful when a mode is inactive and its right-hand side
    is pure round-off.  A violation is a bookkeeping or operator bug, so
    it fails loudly instead of returning a silently wrong symbol.
    """
    gaps, factor, scale = check
    bound = factor * (_COMPAT_RTOL * scale + noise_floor)
    for gap in gaps:
        if not gap <= bound:
            branch, mode = key
            raise CascadeIncompatible(
                f"{_BRANCH_NAMES[branch]} {mode}-mode cascade compatibility "
                f"violated (gap {gap:.3e} > bound {bound:.3e})"
            )


def _kernel_fill(ctx: _ModeCtx, w, kernels, a_next, d: int):
    """Amplitude jet w + sum_k alpha_k e_k with kernel transports enforced.

    kernels: (value coefficient of alpha_k, kernel vector e_k) per kernel
    direction of the column's channel.  a_next: order J+1 amplitude
    (depth d+1) or None.  Returns a depth-d jet-vector.
    """
    out = _jv_fit(w, d)
    if not kernels:
        return out
    kvs = [_jv_fit(kv, d) for _, kv in kernels]
    alphas = [[complex(a)] for a, _ in kernels]
    if d >= 1:
        projs = [_jv_fit(kv, d - 1) for kv in kvs]
        source = _l0(ctx, a_next, d - 1) if a_next is not None else None
    for m in range(d):
        partial = out
        for al, kv in zip(alphas, kvs):
            pad = Jet(tuple(al) + (0.0,) * (d + 1 - len(al)))
            partial = _jv_add(partial, _jv_scale_jet(kv, pad))
        rhs = _l1(ctx, partial, d - 1)
        if source is not None:
            rhs = _jv_add(rhs, source)
        for al, kv in zip(alphas, projs):
            g = _sum(*map(_mul, kv, rhs))
            al.append(0j if g is None else -g[m] / ctx.q0)
    for al, kv in zip(alphas, kvs):
        out = _jv_add(out, _jv_scale_jet(kv, Jet(al)))
    return out


def _traction_phase(ctx: _ModeCtx, v):
    """Phase part of the traction of a value 3-vector: i B(x, dphi) v."""
    lam0 = complex(ctx.lam[0])
    mu0 = complex(ctx.mu[0])
    z0 = complex(ctx.zeta[0])
    k = complex(ctx.kt[0])
    xi_v = k * v[0] + z0 * v[2]
    return 1j * np.array([
        mu0 * (k * v[2] + z0 * v[0]),
        mu0 * (z0 * v[1]),
        lam0 * xi_v + 2.0 * mu0 * z0 * v[2],
    ])


# --- one branch's cascade step ------------------------------------------------
#
# A branch is its (P, S) mode contexts and, per mode, its amplitude
# jet-vectors keyed by order.  The incident branch and the reflected and
# transmitted ones run through the same three steps; only the solve that
# fixes each order's kernel values differs.  A column's amplitudes have
# components in its channel only, so in the SH column the P amplitudes
# are absent altogether.


def _branch_particular(ctxs, amps, J: int, d: int):
    """Order-J particular solutions of one branch from its order J+1 and
    J+2 amplitudes, with the scales of the order J+1 amplitudes and the
    pending compatibility checks, both in (P, S) order."""
    ws, scales, checks = [], [], []
    for ctx, amp in zip(ctxs, amps):
        rhs = tuple(_scale(c, -1.0) for c in _l1(ctx, amp[J + 1], d))
        nxt = amp.get(J + 2)
        if nxt is not None:
            rhs = tuple(map(_sub, rhs, _l0(ctx, nxt, d)))
        w, check = _pinv(ctx, rhs, d)
        ws.append(w)
        scales.append(_rhs_scale(amp[J + 1]))
        checks.append(check)
    return ws, scales, checks


def _branch_fill(ctxs, ws, vals, channel, amps, J: int, d: int):
    """Order-J amplitude jets of one branch, from its particular solutions
    and the kernel values `vals` in (P, SV, SH) slots; only the slots of
    `channel` are filled, the others being zero."""
    for ctx, w, amp in zip(ctxs, ws, amps):
        kernels = [(vals[slot], ctx.kernels[slot])
                   for slot in channel if slot in ctx.kernels]
        amp[J] = _kernel_fill(ctx, w, kernels, amp.get(J + 1), d)


def _branch_traction(ctxs, ws, amps, J: int):
    """F = sum_modes [tr1(values) + P_side d(a)_{J+1}/dnu] at x3 = 0."""
    total = np.zeros(3, dtype=complex)
    for ctx, w, amp in zip(ctxs, ws, amps):
        total += _traction_phase(ctx, _jv_values(w))
        pd = np.array([complex(ctx.p_diag[i][0]) for i in range(3)])
        total += pd * _jv_values(amp[J + 1], 1)
    return total


def _columns(ctx_p: _ModeCtx, ctx_s: _ModeCtx):
    """Displacement and traction columns (P, SV, SH) of one branch."""
    cols, tracs = [], []
    for ctx, slot in ((ctx_p, P), (ctx_s, SV), (ctx_s, SH)):
        v = _jv_values(ctx.kernels[slot])
        cols.append(v)
        tracs.append(_traction_phase(ctx, v))
    return np.array(cols).T, np.array(tracs).T


def _side_ctxs(cov: Covector, side: ElasticSideJet, kt, stretch, h,
               depth: int, tol: float, branches, zetas: dict):
    """Mode contexts of the named branches ("I", "R", "T") on one side;
    the reflected branch carries the negated vertical wavenumber, and
    `zetas` caches the zeta jet of each speed jet across calls."""
    tau = cov.tau
    rho = side.rho.truncate(depth)
    lam, mu = derive_lame_jets(side.truncate(depth))
    modes = []
    for mode, speed in (("P", side.cp), ("S", side.cs)):
        c = speed.truncate(depth)
        zeta = zetas.get(c.coeffs)
        if zeta is None:
            vertical_wavenumber(cov, speed[0], tol)
            inv_c2 = jet_inv(jet_mul(c, c))
            radicand = jet_scale(inv_c2, tau * tau) - stretch.truncate(depth)
            zeta = zetas[c.coeffs] = jet_sqrt(radicand)
        modes.append((mode, zeta))
    ctx = {}
    for branch in branches:
        for mode, zeta in modes:
            if branch == "R":
                zeta = jet_scale(zeta, -1.0)
            ctx[branch, mode] = _ModeCtx(kt, zeta, rho, lam, mu, h, mode,
                                         tau)
    return ctx


class _MinusSide:
    """The part of one covector's run that the plus side does not touch:
    curvature jets, the incident and reflected contexts and columns, and
    per incident column the incident branch's cascade.  `_group` runs
    any number of plus sides on it."""

    def __init__(self, cov: Covector, minus: ElasticSideJet, geometry,
                 depth: int, tol: float):
        self.cov, self.depth, self.tol = cov, depth, tol
        self.h, self.stretch = curvature_jets(cov, geometry, depth)
        if self.stretch[0] > 0.0:
            self.kt = jet_sqrt(self.stretch)
        else:
            self.kt = constant_jet(0.0, depth)  # normal incidence: q vanishes
        self.ctx = _side_ctxs(cov, minus, self.kt, self.stretch, self.h,
                              depth, tol, ("I", "R"), {})
        self.S, self.T = {}, {}
        for branch in ("I", "R"):
            self.S[branch], self.T[branch] = _columns(self.ctx[branch, "P"],
                                                      self.ctx[branch, "S"])
        self.order0_rhs = np.vstack([self.S["I"], self.T["I"]]).astype(complex)
        self.incident = [self._incident_cascade(q) for q in (P, SV, SH)]

    def _incident_cascade(self, q: int):
        """Per order J = 0..-depth, what the cascade of incident column q
        gives the interface solve: None at order 0, then the amplitude
        scales and pending checks of the incident modes, the incident
        displacement and its traction at the interface."""
        K = self.depth
        channel = _channel(q)
        ctxs = (self.ctx["I", "P"], self.ctx["I", "S"])
        amps = ({}, {})
        steps = []
        for step in range(K + 1):
            J, d = -step, K - step
            if step == 0:
                ws = (_ABSENT, _ABSENT)
                # the trace of the incident field vanishes below the
                # principal order
                alpha = np.zeros(3, dtype=complex)
                alpha[q] = 1.0
                steps.append(None)
            else:
                ws, scales, checks = _branch_particular(ctxs, amps, J, d)
                w_val = _jv_values(ws[0]) + _jv_values(ws[1])
                alpha = np.linalg.solve(self.S["I"].astype(complex), -w_val)
                # (u_I)_J at the interface: zero by construction, kept
                # explicit
                disp = w_val + self.S["I"] @ alpha
                trac = _branch_traction(ctxs, ws, amps, J)
                trac += self.T["I"] @ alpha
                steps.append((scales, checks, disp, trac))
            if step < K:
                _branch_fill(ctxs, ws, alpha, channel, amps, J, d)
        return steps


_CHECK_KEYS = (("I", "P"), ("I", "S"), ("R", "P"), ("R", "S"),
               ("T", "P"), ("T", "S"))


class _ElasticRun:
    """One plus side on a minus side: its transmitted contexts, with the
    round-off yardstick of its cascade checks."""

    def __init__(self, ms: _MinusSide, plus: ElasticSideJet, zetas: dict):
        self.ctx = dict(ms.ctx)
        self.ctx.update(_side_ctxs(ms.cov, plus, ms.kt, ms.stretch, ms.h,
                                   ms.depth, ms.tol, ("T",), zetas))
        self.op_scale = max(ctx.op_scale for ctx in self.ctx.values())


def _interface(ms: _MinusSide, runs):
    """The 6x6 interface matrices of `runs` and their order-0 solutions,
    as stacks.  One condition check and one solve serve the stack: numpy
    runs LAPACK on each matrix alone, so each result has the bits of a
    call on that matrix alone.  The first singular matrix raises."""
    m6 = np.zeros((len(runs), 6, 6), dtype=complex)
    m6[:, :3, :3] = -ms.S["R"]
    m6[:, 3:, :3] = -ms.T["R"]
    for m, run in zip(m6, runs):
        m[:3, 3:], m[3:, 3:] = _columns(run.ctx["T", "P"], run.ctx["T", "S"])
    for cond in np.linalg.cond(m6):
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularInterfaceSystem(
                f"elastic interface system is singular (cond={cond:.3e})",
                condition=cond,
            )
    rhs = np.broadcast_to(ms.order0_rhs, (len(runs), 6, 3))
    return m6, np.linalg.solve(m6, rhs)


def _order0(ms: _MinusSide, pluses) -> list:
    """Order-0 (R0, T0) of each of `pluses` on a depth-0 minus side:
    the stacked order-0 solutions of a depth-0 `_group`, without its
    symbol columns."""
    zetas = {}
    _, sol = _interface(ms, [_ElasticRun(ms, p, zetas) for p in pluses])
    return [(x[:3], x[3:]) for x in sol]


def _group(ms: _MinusSide, pluses) -> list:
    """`forward_series_elastic` for each of `pluses` on the minus side
    `ms` (see the module note on groups)."""
    K = ms.depth
    if len({(p.rho.coeffs[:K], p.cs.coeffs[:K], p.cp.coeffs[:K])
            for p in pluses}) > 1:
        raise ValueError("a group's plus sides differ below the top coefficient")
    zetas = {}
    runs = [_ElasticRun(ms, p, zetas) for p in pluses]
    # below depth 0 the plus sides share coefficient 0, so one interface
    # serves the group
    m6, sol = _interface(ms, runs if K == 0 else runs[:1])
    s_inv_r = np.linalg.inv(ms.S["R"])
    s_inv_t = np.linalg.inv(m6[:, :3, 3:])
    reflected = ([], [], [])  # per column, filled by the first run
    out = []
    for i, run in enumerate(runs):
        j = i if K == 0 else 0
        cols = [_column(ms, run, q, m6[j], sol[j], (s_inv_r, s_inv_t[j]),
                        reflected[q]) for q in (P, SV, SH)]
        out.append([(np.column_stack([c[k][0] for c in cols]),
                     np.column_stack([c[k][1] for c in cols]))
                    for k in range(K + 1)])
    return out


def _column(ms: _MinusSide, run: _ElasticRun, q: int, m6, sol0, s_inv,
            reflected):
    """Symbol columns [(R_J[:, q], T_J[:, q]) for J = 0..-depth] of one
    run.  The first run of a group records in `reflected` what the
    reflected branch gives each step; the others read it, because the
    group's reflected values agree at every order that fills it."""
    K = ms.depth
    channel = _channel(q)
    incident = ms.incident[q]
    ctx_r = (ms.ctx["R", "P"], ms.ctx["R", "S"])
    ctx_t = (run.ctx["T", "P"], run.ctx["T", "S"])
    first = not reflected
    amp_r, amp_t = ({}, {}), ({}, {})
    out = []
    for step in range(K + 1):
        J, d = -step, K - step
        if step == 0:
            w_r = w_t = (_ABSENT, _ABSENT)
            x_r, x_t = sol0[:3, q].copy(), sol0[3:, q].copy()
            val_r = np.zeros(3, dtype=complex)
        else:
            scales_i, checks_i, disp_i, trac_i = incident[step]
            if first:
                w_r, scales_r, checks_r = _branch_particular(ctx_r, amp_r, J,
                                                             d)
                reflected.append((scales_r, checks_r,
                                  _jv_values(w_r[0]) + _jv_values(w_r[1]),
                                  _branch_traction(ctx_r, w_r, amp_r, J)))
            scales_r, checks_r, val_r, f_r = reflected[step - 1]
            w_t, scales_t, checks_t = _branch_particular(ctx_t, amp_t, J, d)
            amp_scale = 0.0
            for s in scales_i + scales_r + scales_t:
                amp_scale = max(amp_scale, s)
            floor = 1e-12 * amp_scale * run.op_scale
            for key, check in zip(_CHECK_KEYS,
                                  checks_i + checks_r + checks_t):
                _check_compatible(key, check, floor)
        val_t = _jv_values(w_t[0]) + _jv_values(w_t[1])
        if step > 0:
            rhs6 = np.zeros(6, dtype=complex)
            rhs6[:3] = disp_i + val_r - val_t
            f_t = _branch_traction(ctx_t, w_t, amp_t, J)
            rhs6[3:] = trac_i + f_r - f_t
            sol = np.linalg.solve(m6, rhs6)
            x_r, x_t = sol[:3], sol[3:]
        if step < K:
            if first:
                _branch_fill(ctx_r, w_r, x_r, channel, amp_r, J, d)
            _branch_fill(ctx_t, w_t, x_t, channel, amp_t, J, d)
        out.append((x_r + s_inv[0] @ val_r, x_t + s_inv[1] @ val_t))
    return out


def forward_series_elastic(
    cov: Covector,
    minus: ElasticSideJet,
    plus: ElasticSideJet,
    geometry,
    depth: int,
    tol: float = GLANCING_TOL,
) -> list:
    """[(R_J, T_J) for J = 0..-depth] at one covector.

    `geometry` is an InterfaceGeometry or None (flat): a group of one
    plus side (see the module note).
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth > ELASTIC_DEPTH_CAP:
        raise DepthExceeded(
            f"elastic forward depth is capped at {ELASTIC_DEPTH_CAP}"
        )
    if minus.depth < depth or plus.depth < depth:
        raise DepthExceeded(
            f"symbol depth {depth} exceeds model depth {min(minus.depth, plus.depth)}"
        )
    return _group(_MinusSide(cov, minus, geometry, depth, tol), [plus])[0]


def forward_symbols_elastic(cov: Covector, model: InterfaceModel, depth: int,
                            tol: float = GLANCING_TOL) -> ElasticSymbolSeries:
    """Matrix symbol series R_J, T_J, J = 0..-depth, at one covector."""
    if not model.is_elastic:
        raise TypeError("elastic engine requires an elastic model")
    if depth > model.depth:
        raise DepthExceeded(f"depth {depth} exceeds model depth {model.depth}")
    values = forward_series_elastic(cov, model.minus, model.plus,
                                    model.geometry, depth, tol)
    orders = tuple((-k, r, t) for k, (r, t) in enumerate(values))
    return ElasticSymbolSeries(orders=orders, covector=cov, depth=depth)


def principal_rt_matrices(cov: Covector, model: InterfaceModel,
                          tol: float = GLANCING_TOL):
    """Order-0 reflection/transmission matrices from the 6x6 solve."""
    if not model.is_elastic:
        raise TypeError("elastic engine requires an elastic model")
    ms = _MinusSide(cov, model.minus.truncate(0), None, 0, tol)
    return _order0(ms, [model.plus.truncate(0)])[0]
