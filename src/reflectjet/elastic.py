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
system, so a run has two halves.  `_MinusSide` holds what the covector,
minus side, geometry, depth and tolerance fix: the curvature jets, the
incident and reflected mode contexts (at depth >= 1), their interface
columns and the order-0 right-hand side.  `_group` runs plus sides on
it.  Order 0 needs no mode context: a jet's value coefficient is the
same at any length, so `_order0_columns` builds a side's interface
columns from its interface values (rho, cs, cp) alone, by the Lame, zeta
and column code run on depth-0 jets, and `_order0` takes the cp root
scan's candidates as such values; one stacked condition check and solve
serve them.  A depth-0 group is `_order0`'s matrices plus 0.0.  A jet's
coefficient m comes from coefficients <= m by the same operations at any
length, so plus sides that agree below their top coefficients, in bits,
signs of zero and scalar types (else ValueError), agree in every value
that does not reach the top: at depth >= 1 a group's runs share the
interface (the 6x6 matrix, its check and solve, the inverse columns) and
the incident and reflected cascades, and their transmitted contexts are
made on the first plus side's coefficients below the top.  A group runs
its orders step-major: each order reads the particular steps of every
column (P, SV, SH) of every run, then runs their numpy work as stacked
calls, one 6x6 solve of all their right-hand sides; one branch step then
fills each branch's amplitudes of the order and makes its particular
step of the next, each branch's operations in the order of a separate
run.  numpy gives each column of a multi-column solve, each item of a
batched matmul and each row of an elementwise product the bits it has
alone (a 2-D matmul would not), so every output keeps the bits of a
separate run.  Every compatibility check of every branch still runs in
every run, because its bound depends on the plus side through the run's
amplitude and operator scales, and a group raises the error that running
its columns one by one, run by run, raises first.

The 6x6 condition check reads the inverse that one solve of
[rhs | I] gives: ||A||_F ||A^-1||_F bounds cond_2(A), and where the
computed bound is at most 1e-3 `_COND_LIMIT` for every matrix of a
stack, the rounding of the computed inverse and of an SVD cannot put a
matrix past the limit, so no SVD runs.  Otherwise, a non-finite or
singular matrix included, `np.linalg.cond` runs matrix by matrix and
the first one past the limit raises, as the SVD loop always did (see
`_interface`).

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
into the P-SV and SH blocks could change LAPACK's rounding.  Every
coupling entry of R_J and T_J is an exact +0.0 at every forward order
and in `principal_rt_matrices`, but not in the raw `_order0` stack,
which keeps the solver's zeros, -0.0 among them; adding 0.0 makes them
+0.0.

The jet work replays tapes (`reflectjet.tape`) of three units:
`_sides_body` (the Lame and zeta jets, mode contexts and interface
columns of a minus side's incident and reflected branches, or of a
group's transmitted branches, each plus side on the first one's
coefficients below the top, so that value numbering makes each shared
operation once), `_columns_body` (a side's interface columns from its
interface values, for order 0) and `_step_body` (a branch step:
`_fill_body`, its `_kernel_fill` at depth d, then `_particular_body`,
its `_l1`, `_l0`, `_pinv` and `_rhs_scale` at depth d - 1, so one replay
advances a branch by one order).  A class key holds what the control
flow reads: the depth; the branches, flat or curved, the number of sides
and which of the input coefficients are zero (a proxy for the `_nz`
tests, which are guards); normal incidence for a depth-0 unit; a branch
step's channel and its contexts' absent jets (`sig`).  A side's
convexity check and each speed's regime check (`check_hyperbolic` in
`medium.zeta_jet`, on `Covector.xi_norm`) run in the tapes in the
source's order as guards; a side that fails one raises in the body, from
`derive_lame_jets`, `vertical_wavenumber` or `zeta_jet`.  A recording
costs some 20 to 45 runs of its unit, so a class records on its
`_WARM`th call, once its runs have cost about as much.  The branch
tractions and the numpy 6x6 systems with their checks and solves stay
outside, and so do the compatibility checks, whose bound reads
`_COMPAT_RTOL` at each call.

The forward depth is capped at two orders below principal
(ELASTIC_DEPTH_CAP): the machinery iterates further, but only orders
0..-2 are validated by the round-trip suite, so deeper requests are
rejected rather than returned unvalidated.

Conventions shared with the acoustic engine: positive vertical
wavenumbers, reflected branch negated, normal jets pointing into the
transmitted side.  At normal incidence the incidence plane degenerates
and the SV/SH axes default to (e1, e2).  The rules the two engines
share live in `medium`: the regime-checked vertical-wavenumber jet
(`zeta_jet`), the group rule (`check_group`) and the depth checks
(`check_depth`).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import tape
from .errors import CascadeIncompatible, DepthExceeded, SingularInterfaceSystem
from .jets import (
    Jet,
    _jet,
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
    SymbolSeries,
    check_depth,
    check_group,
    curvature_jets,
    derive_lame_jets,
    vertical_wavenumber,
    zeta_jet,
)

ELASTIC_DEPTH_CAP = 2

_COND_LIMIT = 1e12

_WARM = 32  # the call of a class that records its tape (`tape._replay`)

P, SV, SH = 0, 1, 2  # mode-coefficient slots


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


_ModeCtx = namedtuple("_ModeCtx", "mode kt zeta rho lam mu lam_mu h tau "
                      "xi_sq kernels q0 p_diag op_scale ops sig")


def _mode_ctx(kt, zeta, rho, lam, mu, h, mode, tau):
    """Per (branch, mode) transport context.

    `kt` is the jet of the tangential wavenumber along the normal: the
    constant |xi'| for a flat interface, sqrt of the shape-operator
    stretch profile otherwise, which keeps |Xi|^2 = kt^2 + zeta^2 equal
    to tau^2/c^2 exactly at every depth.  The operator jets `_l1` and
    `_pinv` use at a depth depend on the material and the phase alone;
    `ops[d]` holds them for every depth d a cascade uses, 0..depth-1.
    `kernels[slot]` is the vector of each kernel slot of the mode, with
    the vector's zero entries absent (None for the other mode's slots).
    `sig` marks the absent jets of `ops` and `kernels`.
    """
    depth = zeta.depth
    xi_sq = jet_mul(zeta, zeta) + jet_mul(kt, kt)
    inv_norm = jet_inv(jet_sqrt(xi_sq))
    kz = _nz(jet_mul(kt, inv_norm))  # absent at normal incidence
    zn = jet_mul(zeta, inv_norm)
    p33 = lam + jet_scale(mu, 2.0)
    if mode == "P":
        kernels, c2 = ((kz, None, zn), None, None), p33
    else:
        kernels = (None, (zn, None, _scale(kz, -1.0)),
                   (None, constant_jet(1.0, depth), None))
        c2 = mu
    # q = -2i (rho c^2) zeta is the kernel-transport divisor; only its
    # value coefficient divides, the rest rides in the projected jets.
    q0 = -2j * c2[0] * zeta[0]
    # this context's share of the round-off yardstick of the cascade
    # compatibility checks
    op_scale = abs(q0) + max(abs(c) for c in p33.coeffs) * (1.0 + abs(zeta[0]))
    ctx = _ModeCtx(mode, kt, zeta, rho, lam, mu, lam + mu, h, tau, xi_sq,
                   kernels, q0, (mu, mu, p33), op_scale, (), "")
    ops = tuple(_depth_ops(ctx, d) for d in range(depth))
    sig = "".join("." if j is None else "+"
                  for part in (*ops, *filter(None, kernels)) for j in part)
    return ctx._replace(ops=ops, sig=sig)


_DepthOps = namedtuple("_DepthOps", "kt zeta lam lm mu_p lam_p kt_p zeta_p "
                       "d_mu_zeta mu_zeta two_mu_zeta mu_kt_p mu_zeta_p "
                       "mu_p_zeta h hmu inv_xi_sq inv_m inv_lm_xi4")


def _depth_ops(ctx: _ModeCtx, d: int) -> _DepthOps:
    """The material-and-phase jets of one context at depth d: the factors
    of `_l1` that do not involve the amplitude, and the inverses `_pinv`
    divides by.  A factor that vanishes for the input is absent: `kt'`
    and `mu kt'` on a flat interface, `kt` at normal incidence, and the
    derivative factors of a side whose material is constant."""
    zeta, lm, mu = _fit(ctx.zeta, d), _fit(ctx.lam_mu, d), _fit(ctx.mu, d)
    mu_p = _fit(jet_derivative(ctx.mu), d)
    kt_p = _fit(jet_derivative(ctx.kt), d)
    zeta_p = _fit(jet_derivative(ctx.zeta), d)
    mu_zeta = jet_mul(mu, zeta)
    h = hmu = inv_m = inv_lm_xi4 = None
    if ctx.h is not None:
        h = _fit(ctx.h, d)
        hmu = jet_mul(h, mu)
    xi_sq = _fit(ctx.xi_sq, d)
    if ctx.mode == "P":
        m = jet_scale(_fit(ctx.rho, d), ctx.tau * ctx.tau) - jet_mul(mu, xi_sq)
        inv_m = jet_inv(m)
    else:
        inv_lm_xi4 = jet_inv(jet_mul(lm, jet_mul(xi_sq, xi_sq)))
    return _DepthOps(
        kt=_nz(_fit(ctx.kt, d)), zeta=zeta, lam=_fit(ctx.lam, d), lm=lm,
        mu_p=_nz(mu_p), lam_p=_nz(_fit(jet_derivative(ctx.lam), d)),
        kt_p=_nz(kt_p), zeta_p=_nz(zeta_p),
        d_mu_zeta=_nz(_fit(jet_derivative(jet_mul(ctx.mu, ctx.zeta)), d)),
        mu_zeta=mu_zeta, two_mu_zeta=jet_scale(mu_zeta, 2.0),
        mu_kt_p=_nz(jet_mul(mu, kt_p)), mu_zeta_p=_nz(jet_mul(mu, zeta_p)),
        mu_p_zeta=_nz(jet_mul(mu_p, zeta)), h=h, hmu=hmu,
        inv_xi_sq=jet_inv(xi_sq), inv_m=inv_m, inv_lm_xi4=inv_lm_xi4)


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


def _traction_phase(k, z0, lam0, mu0, v):
    """Phase part of the traction of a value 3-vector: i B(x, dphi) v,
    from the complex values of kt, zeta, lambda and mu."""
    xi_v = k * v[0] + z0 * v[2]
    return [1j * (mu0 * (k * v[2] + z0 * v[0])), 1j * (mu0 * (z0 * v[1])),
            1j * (lam0 * xi_v + 2.0 * mu0 * z0 * v[2])]


def _interface_columns(kt0, lam0, mu0, zeta_p, zeta_s):
    """Displacement and traction columns (P, SV, SH) of one branch, as one
    tuple of 18 complex values, the displacement columns first, from the
    values of kt, lambda, mu and the branch's signed zetas: `_mode_ctx`'s
    kernel values by its scalar operations, with a zero kz absent as `_nz`
    makes it (+0.0, not -0.0, in the SV column)."""
    inv_p = 1.0 / math.exp(0.5 * math.log(zeta_p * zeta_p + kt0 * kt0))
    inv_s = 1.0 / math.exp(0.5 * math.log(zeta_s * zeta_s + kt0 * kt0))
    kz, zn = kt0 * inv_s, complex(zeta_s * inv_s)
    p = (complex(kt0 * inv_p), 0j, complex(zeta_p * inv_p))
    sv, sh = (zn, 0j, complex(-kz) if kz != 0 else 0j), (0j, 1 + 0j, 0j)
    k, lam0, mu0, z = complex(kt0), complex(lam0), complex(mu0), complex(zeta_s)
    return (*p, *sv, *sh, *_traction_phase(k, complex(zeta_p), lam0, mu0, p),
            *_traction_phase(k, z, lam0, mu0, sv),
            *_traction_phase(k, z, lam0, mu0, sh))


def _ctx_columns(ctx_p: _ModeCtx, ctx_s: _ModeCtx):
    """`_interface_columns` of the branch of the contexts `ctx_p`, `ctx_s`."""
    return _interface_columns(ctx_p.kt[0], ctx_p.lam[0], ctx_p.mu[0],
                              ctx_p.zeta[0], ctx_s.zeta[0])


# --- one branch's cascade step ------------------------------------------------
#
# A branch is its (P, S) mode contexts and, per mode, the list of its
# amplitude jet-vectors, order 0 first.  The incident branch and the
# reflected and transmitted ones run through the same three steps; only
# the solve that fixes each order's kernel values differs.  A column's
# amplitudes have components in its channel only, so in the SH column
# the P amplitudes are absent altogether.


def _branch_step(b, vals, d: int):
    """Append each mode's order-J amplitude jets (depth d >= 1) of the
    branch `b` to its amplitudes, from its last particular step and the
    kernel values `vals` in (P, SV, SH) slots, and make its order J-1
    particular step, from one tape of `_step_body`.  Only the slots of
    the branch's channel are filled, the others being zero."""
    amps = b.amps
    last = tuple(amp[-1] if amp else None for amp in amps)
    filled, b.step = tape._replay(
        _step_body, (b.channel, d), (b.ctxs, b.step[0], tuple(vals), last),
        (len(amps[0]), b.ctxs[0].sig, b.ctxs[1].sig), _WARM)  # see `sig`
    for amp, a in zip(amps, filled):
        amp.append(a)


def _step_body(channel, d, ctxs, ws, vals, last):
    """`_fill_body` at depth d, then `_particular_body` at depth d - 1 on
    the amplitudes it fills and the ones before them, `last`."""
    filled = _fill_body(channel, d, ctxs, ws, vals, last)
    return filled, _particular_body(d - 1, ctxs, tuple(zip(filled, last)))


def _particular_body(d, ctxs, last):
    """Order-J particular solutions of one branch from the (order J+1,
    order J+2 or None) amplitudes `last` of each mode, with the scales
    of the order J+1 amplitudes and the pending compatibility checks, all
    in (P, S) order."""
    ws, scales, checks = [], [], []
    for ctx, (amp1, amp2) in zip(ctxs, last):
        rhs = tuple(_scale(c, -1.0) for c in _l1(ctx, amp1, d))
        if amp2 is not None:
            rhs = tuple(map(_sub, rhs, _l0(ctx, amp2, d)))
        w, check = _pinv(ctx, rhs, d)
        ws.append(w)
        scales.append(_rhs_scale(amp1))
        checks.append(check)
    return ws, scales, checks


def _fill_body(channel, d, ctxs, ws, vals, last):
    """Each mode's order-J amplitude jets from its particular solution in
    `ws`, the kernel values `vals` and its order J+1 amplitudes `last`."""
    return [_kernel_fill(ctx, w, [(vals[slot], ctx.kernels[slot])
                                  for slot in channel
                                  if ctx.kernels[slot] is not None], a, d)
            for ctx, w, a in zip(ctxs, ws, last)]


_Side = namedtuple("_Side", "rho cs cp")  # a side's jets, for `derive_lame_jets`


def _lame_zetas(tau, tol, xi_norm, stretch, side: _Side):
    """The lambda, mu, P zeta and S zeta jets of one side, each check in
    the order the side's jets are made."""
    lam, mu = derive_lame_jets(side)
    return (lam, mu, *(zeta_jet(tau, tol, xi_norm, speed, stretch)
                       for speed in (side.cp, side.cs)))


def _signed(zeta, branch):
    """The vertical-wavenumber jet of `branch`: the reflected one is
    negated."""
    return jet_scale(zeta, -1.0) if branch == "R" else zeta


def _side_ctxs(cov: Covector, sides, kt, stretch, h, depth: int, tol: float,
               branches):
    """The mode contexts of the named branches ("I", "R", "T") on each of
    `sides`, by (branch, mode), and the interface columns of those
    branches on the first side, from one tape of `_sides_body`."""
    jets = tuple(tuple(j.truncate(depth) for j in (s.rho, s.cs, s.cp))
                 for s in sides)
    # what the `_nz` tests read: the zero coefficients of the inputs
    zeros = tuple(not c for j in (kt, stretch, *jets[0]) for c in j.coeffs)
    zeros += tuple(not j[depth] for side in jets[1:] for j in side)
    cols, ctxs = tape._replay(
        _sides_body, (branches, depth),
        (cov.tau, tol, cov.xi_norm, h, kt, stretch, jets),
        (h is None, zeros), _WARM)
    keys = [(b, m) for b in branches for m in "PS"]
    return cols, [dict(zip(keys, c)) for c in ctxs]


def _sides_body(branches, depth, tau, tol, xi_norm, h, kt, stretch, sides):
    """`_side_ctxs` of the (rho, cs, cp) jets in `sides`, each run on the
    first one's coefficients below the top and its own top coefficients,
    so a tape makes each operation they share once."""
    first, ctxs = sides[0], []
    for side in sides:
        side = _Side(*(_jet(a.coeffs[:depth] + b.coeffs[depth:])
                       for a, b in zip(first, side)))
        lam, mu, *zetas = _lame_zetas(tau, tol, xi_norm, stretch, side)
        ctxs.append([_mode_ctx(kt, _signed(zeta, branch), side.rho, lam, mu,
                               h, mode, tau)
                     for branch in branches
                     for mode, zeta in zip("PS", zetas)])
    return [_ctx_columns(*ctxs[0][i:i + 2])
            for i in range(0, len(ctxs[0]), 2)], ctxs


def _order0_columns(ms, branches, rho, cs, cp):
    """The interface columns of the named branches of a side with the
    interface values `rho`, `cs`, `cp` on the minus side `ms`, from one
    tape of `_columns_body`: no jet or mode context is made."""
    return tape._replay(_columns_body, (branches,),
                        (ms.cov.tau, ms.tol, ms.xi_norm, ms.kt[0],
                         ms.stretch[0], rho, cs, cp), not ms.kt[0], _WARM)


def _columns_body(branches, tau, tol, xi_norm, kt0, stretch0, rho, cs, cp):
    """`_order0_columns`: the depth-0 jets of `_sides_body`, whose values
    are those of the jets at any depth, and their columns."""
    side = _Side(*(_jet((v,)) for v in (rho, cs, cp)))
    lam, mu, *zetas = _lame_zetas(tau, tol, xi_norm, _jet((stretch0,)), side)
    return [_interface_columns(kt0, lam[0], mu[0],
                               *(_signed(zeta, branch)[0] for zeta in zetas))
            for branch in branches]


class _MinusSide:
    """The part of one covector's run that the plus side does not touch:
    the curvature jets, the incident and reflected contexts (at depth
    >= 1), their interface columns and the order-0 right-hand side.
    `_group` runs any number of plus sides on it."""

    def __init__(self, cov: Covector, minus: ElasticSideJet, geometry,
                 depth: int, tol: float):
        self.cov, self.depth, self.tol = cov, depth, tol
        self.xi_norm = cov.xi_norm
        self.h, self.stretch = curvature_jets(cov, geometry, depth)
        if self.stretch[0] > 0.0:
            self.kt = jet_sqrt(self.stretch)
        else:
            self.kt = constant_jet(0.0, depth)  # normal incidence: q vanishes
        if depth:
            cols, (self.ctx,) = _side_ctxs(cov, [minus], self.kt,
                                           self.stretch, self.h, depth, tol,
                                           ("I", "R"))
        else:
            cols = _order0_columns(self, ("I", "R"), minus.rho[0],
                                   minus.cs[0], minus.cp[0])
        self.S, self.T = {}, {}
        for branch, c in zip("IR", cols):
            self.S[branch], self.T[branch] = np.array(c).reshape(
                2, 3, 3).swapaxes(1, 2)
        self.order0_rhs = np.vstack([self.S["I"], self.T["I"]])
        # the 6x6 system's reflected columns, and its [rhs | I]
        self.reflected = -np.vstack([self.S["R"], self.T["R"]])
        self.rhs_eye = np.hstack([self.order0_rhs, np.eye(6)])


_CHECK_KEYS = (("I", "P"), ("I", "S"), ("R", "P"), ("R", "S"),
               ("T", "P"), ("T", "S"))


def _interface(ms: _MinusSide, tops):
    """The 6x6 interface matrices whose transmitted columns are `tops`
    (one `_interface_columns` result each) and their order-0 solutions,
    as stacks.  One solve of [rhs | I] serves the stack: numpy runs
    LAPACK on each matrix alone, and each column of a multi-column solve
    has the bits of its one-column solve.  The first singular matrix
    raises.

    The condition check reads the inverse X that the solve gives.
    cond_2(A) <= ||A||_F ||A^-1||_F, and the inverse from a partially
    pivoted LU has ||XA - I|| <= c n u g ||X|| ||A|| (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 14): c a small
    constant, n = 6, u = 1.1e-16 and a growth factor g <= 2^(n-1).  So
    where ||A||_F ||X||_F <= 1e-3 _COND_LIMIT (1e9 as shipped),
    ||XA - I|| <= 2e-5 c, ||A^-1||_F <= ||X||_F / (1 - 2e-5 c), and
    cond_2(A) is within that factor of 1e9, which an SVD computes to
    about u cond_2(A) relative: the factor 1e-3 covers both roundings
    with room, so no matrix that the SVD loop rejects passes.  Elsewhere,
    a non-finite or singular matrix included, the SVD loop runs."""
    m6 = np.empty((len(tops), 6, 6), dtype=complex)
    m6[:, :, :3] = ms.reflected
    m6[:, :, 3:] = np.array(tops, dtype=complex).reshape(
        -1, 2, 3, 3).swapaxes(2, 3).reshape(-1, 6, 3)
    try:
        full = np.linalg.solve(m6, ms.rhs_eye)
        # squared Frobenius norms, from the real and imaginary parts
        a, x = m6.view(float), full.view(float)[:, :, 6:]
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (a * a).sum(axis=(1, 2)) * (x * x).sum(axis=(1, 2))
        if (bound <= (1e-3 * _COND_LIMIT) ** 2).all():
            return m6, np.ascontiguousarray(full[:, :, :3])
    except np.linalg.LinAlgError:
        pass
    for cond in np.linalg.cond(m6):
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularInterfaceSystem(
                f"elastic interface system is singular (cond={cond:.3e})",
                condition=cond,
            )
    return m6, np.linalg.solve(m6, np.broadcast_to(ms.order0_rhs,
                                                   (len(tops), 6, 3)))


def _order0(ms: _MinusSide, sides) -> np.ndarray:
    """The order-0 solutions of the plus sides `sides`, a (rho, cs, cp)
    triple of interface values each, on a depth-0 minus side, as one
    (len(sides), 6, 3) stack: R0 is a solution's rows :3, T0 its rows 3:,
    the solver's zeros keeping their signs."""
    return _interface(ms, [_order0_columns(ms, ("T",), *side)[0]
                           for side in sides])[1]


class _Branch:
    """One branch of one symbol column in a group: its (P, S) contexts,
    the column's channel, each mode's amplitudes so far, the context
    values its traction reads, and its last particular step."""

    __slots__ = "ctxs", "channel", "amps", "consts", "p_diag", "step"

    def __init__(self, ctxs, q: int, values):
        self.ctxs, self.channel, self.amps = ctxs, _channel(q), ([], [])
        self.consts, self.p_diag = values
        self.step = (_ABSENT, _ABSENT), (), ()


def _branches(ctxs):
    """The branches of the columns P, SV and SH on the contexts `ctxs`."""
    values = ([[complex(j.coeffs[0]) for j in (c.kt, c.zeta, c.lam, c.mu)]
               for c in ctxs], [[complex(p.coeffs[0]) for p in c.p_diag]
                                for c in ctxs])
    return [_Branch(ctxs, q, values) for q in (P, SV, SH)]


def _step_values(rows):
    """The summed mode values of each branch's particular step, and its
    traction F = sum_modes [tr1(values) + P_side d(a)_{J+1}/dnu] at
    x3 = 0, as (len(rows), 3) stacks.  The phase products are Python's,
    which round as numpy's scalars do; the P_side products are one numpy
    array product, which rounds each row as a row alone."""
    v, phase, p_diag, dv = ([], []), ([], []), ([], []), ([], [])
    for b in rows:
        for m, (k, pd, w, amp) in enumerate(zip(b.consts, b.p_diag,
                                                 b.step[0], b.amps)):
            vm = [0j if c is None else complex(c.coeffs[0]) for c in w]
            v[m].extend(vm)
            phase[m].extend(_traction_phase(*k, vm))
            p_diag[m].extend(pd)
            dv[m].extend([0j if c is None else complex(c.coeffs[1])
                          for c in amp[-1]])
    v, phase, p_diag, dv = (np.array(a).reshape(2, -1, 3)
                            for a in (v, phase, p_diag, dv))
    trac = np.zeros((len(rows), 3), dtype=complex)
    for m in (0, 1):
        trac += phase[m]
        trac += p_diag[m] * dv[m]
    return v[0] + v[1], trac


def _group(ms: _MinusSide, pluses) -> list:
    """`forward_series_elastic` for each of `pluses` on the minus side
    `ms` (see the module note on groups)."""
    K = ms.depth
    if K == 0:  # adding 0.0 turns the solver's -0.0 into +0.0
        sides = [(p.rho[0], p.cs[0], p.cp[0]) for p in pluses]
        return [[(x[:3] + 0.0, x[3:] + 0.0)] for x in _order0(ms, sides)]
    check_group(pluses, K)
    # the transmitted (P, S) contexts of each plus side, and the round-off
    # yardstick of its cascade checks
    tops, ctxs = _side_ctxs(ms.cov, pluses, ms.kt, ms.stretch, ms.h, K,
                            ms.tol, ("T",))
    ts = [tuple(c.values()) for c in ctxs]
    op_scales = [max(c.op_scale for c in (*ms.ctx.values(), *t)) for t in ts]
    # the plus sides share coefficient 0, so one interface serves the group
    (m6,), (sol,) = _interface(ms, tops)
    s_inv = np.linalg.inv(ms.S["R"]), np.linalg.inv(m6[:3, 3:])
    # the branches of the columns (P, SV, SH): one incident and one
    # reflected per column, shared by the runs, and a transmitted one per
    # column of each run, run by run
    inc, ref = (_branches((ms.ctx[b, "P"], ms.ctx[b, "S"])) for b in "IR")
    tra = [b for t in ts for b in _branches(t)]
    cq = [c % 3 for c in range(len(tra))]
    alpha, x = np.eye(3, dtype=complex), sol.T[cq]
    vals = np.zeros((6 + len(tra), 3), dtype=complex)
    error, orders, nq = None, [], len(inc)
    for step in range(K + 1):
        d = K - step
        if step:
            for c, b in enumerate(tra):
                parts = inc[c % 3].step, ref[c % 3].step, b.step
                amp_scale = max(0.0, *(s for p in parts for s in p[1]))
                floor = 1e-12 * amp_scale * op_scales[c // 3]
                try:
                    for key, check in zip(_CHECK_KEYS, (k for p in parts
                                                        for k in p[2])):
                        _check_compatible(key, check, floor)
                except CascadeIncompatible as exc:
                    # columns run one by one would stop here: the columns
                    # before keep running, as a failure of theirs comes
                    # first, and this one and those after drop out
                    error = exc
                    del inc[c:], ref[c:], tra[c:], cq[c:]
                    break
            if not tra:
                raise error
            nq = len(inc)
            vals, trac = _step_values(inc + ref + tra)
            # the trace of the incident field vanishes below the principal
            # order
            alpha = np.linalg.solve(ms.S["I"], -vals[:nq].T).T.copy()
            s_a, t_a = (np.matmul(m, alpha[:, :, None])[:, :, 0]
                        for m in (ms.S["I"], ms.T["I"]))
            # the incident displacement (u_I)_J at the interface, zero by
            # construction but kept explicit, and the incident traction,
            # each with the reflected branch's share added
            disp = vals[:nq] + s_a + vals[nq:2 * nq]
            trac_ir = trac[:nq] + t_a + trac[nq:2 * nq]
            rhs = np.concatenate([disp[cq] - vals[2 * nq:],
                                  trac_ir[cq] - trac[2 * nq:]], axis=1)
            x = np.linalg.solve(m6, rhs.T).T
        val_r, val_t = vals[nq:2 * nq, :, None], vals[2 * nq:, :, None]
        orders.append((x[:, :3] + np.matmul(s_inv[0], val_r)[cq, :, 0],
                       x[:, 3:] + np.matmul(s_inv[1], val_t)[:, :, 0]))
        if step < K:
            for b, v in zip(inc + ref + tra, [*alpha, *x[:nq, :3], *x[:, 3:]]):
                _branch_step(b, v, d)
    if error is not None:
        raise error
    # column (run, q) of each order's stacks is the run's [:, q]
    mats = [[np.ascontiguousarray(a.reshape(-1, 3, 3).swapaxes(1, 2))
             for a in order] for order in orders]
    return [[(r[i], t[i]) for r, t in mats] for i in range(len(ts))]


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
    check_depth(depth, minus, plus)  # the model's depth first, then the cap
    if depth > ELASTIC_DEPTH_CAP:
        raise DepthExceeded(
            f"elastic forward depth is capped at {ELASTIC_DEPTH_CAP}"
        )
    return _group(_MinusSide(cov, minus, geometry, depth, tol), [plus])[0]


def forward_symbols_elastic(cov: Covector, model: InterfaceModel, depth: int,
                            tol: float = GLANCING_TOL) -> SymbolSeries:
    """Matrix symbol series R_J, T_J, J = 0..-depth, at one covector."""
    if not model.is_elastic:
        raise TypeError("elastic engine requires an elastic model")
    values = forward_series_elastic(cov, model.minus, model.plus,
                                    model.geometry, depth, tol)
    orders = tuple((-k, r, t) for k, (r, t) in enumerate(values))
    return SymbolSeries(orders=orders, covector=cov, depth=depth)


def principal_rt_matrices(cov: Covector, model: InterfaceModel,
                          tol: float = GLANCING_TOL):
    """Order-0 reflection/transmission matrices from the 6x6 solve, as
    order 0 of a flat depth-0 forward series."""
    if not model.is_elastic:
        raise TypeError("elastic engine requires an elastic model")
    return forward_series_elastic(cov, model.minus.truncate(0),
                                  model.plus.truncate(0), None, 0, tol)[0]
