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

from .errors import DepthExceeded, SingularInterfaceSystem
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


@dataclass(frozen=True)
class PolarizationBasis:
    """Unit polarizations, full covectors and co-kernel vectors of one branch."""

    N: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    xiP: np.ndarray
    xiS: np.ndarray
    M: np.ndarray
    M1: np.ndarray
    M2: np.ndarray


_BRANCH_SIGNS = {"incident": 1.0, "reflected": -1.0, "transmitted": 1.0}


def polarization_basis(cov: Covector, side: ElasticSideJet, branch: str,
                       tol: float = GLANCING_TOL) -> PolarizationBasis:
    """Polarization/co-kernel vectors of one branch, in the original frame."""
    try:
        sign = _BRANCH_SIGNS[branch]
    except KeyError:
        raise ValueError(f"branch must be one of {sorted(_BRANCH_SIGNS)}") from None
    xi1, xi2 = cov.xi
    k = cov.xi_norm
    zp = sign * vertical_wavenumber(cov, side.cp[0], tol)
    zs = sign * vertical_wavenumber(cov, side.cs[0], tol)
    xiP = np.array([xi1, xi2, zp])
    xiS = np.array([xi1, xi2, zs])
    if k > 0.0:
        e_par = np.array([xi1 / k, xi2 / k, 0.0])
        e_perp = np.array([-xi2 / k, xi1 / k, 0.0])
    else:
        e_par = np.array([1.0, 0.0, 0.0])
        e_perp = np.array([0.0, 1.0, 0.0])
    N = xiP / np.linalg.norm(xiP)
    N1 = (zs * e_par + np.array([0.0, 0.0, -k])) / np.linalg.norm(xiS)
    N2 = e_perp
    M1 = -1j * np.array([-xi2, xi1, 0.0])
    M2 = -zp * np.array([xi1, xi2, 0.0]) + k * k * np.array([0.0, 0.0, 1.0])
    M = -1j * xiS
    return PolarizationBasis(N=N, N1=N1, N2=N2, xiP=xiP, xiS=xiS,
                             M=M.astype(complex), M1=M1.astype(complex),
                             M2=M2.astype(complex))


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


class _ModeCtx:
    """Per (branch, mode) transport context.

    `kt` is the jet of the tangential wavenumber along the normal: the
    constant |xi'| for a flat interface, sqrt of the shape-operator
    stretch profile otherwise, which keeps |Xi|^2 = kt^2 + zeta^2 equal
    to tau^2/c^2 exactly at every depth.
    """

    __slots__ = ("kt", "zeta", "rho", "lam", "mu", "lam_mu", "h", "kernels",
                 "q0", "p_diag")

    def __init__(self, kt, zeta, rho, lam, mu, h, mode):
        self.kt = kt
        self.zeta = zeta
        self.rho = rho
        self.lam = lam
        self.mu = mu
        self.lam_mu = lam + mu
        self.h = h
        depth = zeta.depth
        norm = jet_sqrt(_xi_norm_sq(kt, zeta))
        inv_norm = jet_inv(norm)
        kz = jet_mul(kt, inv_norm)
        zn = jet_mul(zeta, inv_norm)
        zero = constant_jet(0.0, depth)
        if mode == "P":
            self.kernels = ((kz, zero, zn),)
            c2 = lam + jet_scale(mu, 2.0)
        else:
            one = constant_jet(1.0, depth)
            self.kernels = ((zn, zero, jet_scale(kz, -1.0)), (zero, one, zero))
            c2 = mu
        # q = -2i (rho c^2) zeta is the kernel-transport divisor; only its
        # value coefficient divides, the rest rides in the projected jets.
        self.q0 = -2j * c2[0] * zeta[0]
        self.p_diag = (mu, mu, lam + jet_scale(mu, 2.0))


def _xi_norm_sq(kt, zeta):
    return jet_mul(zeta, zeta) + jet_mul(kt, kt)


def _fit(j: Jet, d: int) -> Jet:
    if j.depth < d:
        raise ValueError("jet shallower than requested depth")
    return j.truncate(d)


def _jv_fit(v, d):
    return tuple(_fit(c, d) for c in v)


def _jv_zero(d):
    z = constant_jet(0.0, d)
    return (z, z, z)


def _jv_add(*vs):
    out = vs[0]
    for v in vs[1:]:
        out = tuple(a + b for a, b in zip(out, v))
    return out


def _jv_deriv(v):
    return tuple(jet_derivative(c) for c in v)


def _jv_scale_jet(v, s: Jet):
    return tuple(jet_mul(c, s) for c in v)


def _jv_values(v):
    return np.array([complex(c[0]) for c in v])


def _xi_dot(ctx, v, d):
    return jet_mul(_fit(ctx.kt, d), _fit(v[0], d)) \
        + jet_mul(_fit(ctx.zeta, d), _fit(v[2], d))


def _l1(ctx: _ModeCtx, a, d: int):
    """Degree-(+1) transport operator applied to an amplitude jet-vector.

    Needs `a` to depth d+1 and returns depth d.  Includes the
    mean-curvature divergence correction (ctx.h) and the normal
    variation Xi' = (kt', 0, zeta') of the phase gradient.
    """
    da = _jv_fit(_jv_deriv(a), d)
    a1, a2, a3 = _jv_fit(a, d)
    kt = _fit(ctx.kt, d)
    kt_p = _fit(jet_derivative(ctx.kt), d)
    zeta = _fit(ctx.zeta, d)
    zeta_p = _fit(jet_derivative(ctx.zeta), d)
    lam = _fit(ctx.lam, d)
    mu = _fit(ctx.mu, d)
    lm = _fit(ctx.lam_mu, d)
    lam_p = _fit(jet_derivative(ctx.lam), d)
    mu_p = _fit(jet_derivative(ctx.mu), d)
    mu_zeta_p = _fit(jet_derivative(jet_mul(ctx.mu, ctx.zeta)), d)
    xi_da = jet_mul(kt, da[0]) + jet_mul(zeta, da[2])
    xi_a = jet_mul(kt, a1) + jet_mul(zeta, a3)
    xi_p_a = jet_mul(kt_p, a1) + jet_mul(zeta_p, a3)
    two_mu_zeta = jet_scale(jet_mul(mu, zeta), 2.0)

    o1 = jet_mul(kt, jet_mul(lm, da[2])) + jet_mul(two_mu_zeta, da[0]) \
        + jet_mul(kt, jet_mul(mu_p, a3)) + jet_mul(jet_mul(mu, kt_p), a3) \
        + jet_mul(mu_zeta_p, a1)
    o2 = jet_mul(two_mu_zeta, da[1]) + jet_mul(mu_zeta_p, a2)
    o3 = jet_mul(lm, jet_mul(zeta, da[2]) + xi_da) + jet_mul(lam, xi_p_a) \
        + jet_mul(jet_mul(mu, zeta_p), a3) \
        + jet_mul(two_mu_zeta, da[2]) + jet_mul(lam_p, xi_a) \
        + jet_mul(jet_mul(mu_p, zeta), a3) + jet_mul(mu_zeta_p, a3)
    if ctx.h is not None:
        h = _fit(ctx.h, d)
        hmu = jet_mul(h, mu)
        o1 = o1 + jet_mul(hmu, jet_mul(kt, a3) + jet_mul(zeta, a1))
        o2 = o2 + jet_mul(hmu, jet_mul(zeta, a2))
        o3 = o3 + jet_mul(h, jet_mul(lam, xi_a)
                          + jet_scale(jet_mul(jet_mul(mu, zeta), a3), 2.0))
    return tuple(jet_scale(o, -1j) for o in (o1, o2, o3))


def _l0(ctx: _ModeCtx, a, d: int):
    """Degree-0 part: -(P a')' - H P a'; needs `a` to depth d+2."""
    da = _jv_fit(_jv_deriv(a), d + 1)
    p_da = tuple(jet_mul(_fit(pc, d + 1), dc) for pc, dc in zip(ctx.p_diag, da))
    out = tuple(jet_scale(jet_derivative(c), -1.0) for c in p_da)
    if ctx.h is not None:
        h = _fit(ctx.h, d)
        out = tuple(o - jet_mul(h, _fit(c, d)) for o, c in zip(out, p_da))
    return out


def _rhs_scale(rhs):
    return max(max(abs(c) for c in comp.coeffs) for comp in rhs)


def _pinv(ctx: _ModeCtx, mode: str, rhs, d: int, tau: float, noise_floor: float):
    """Minimal-norm solution of p(Xi) x = rhs on the mode's eikonal branch.

    Solvability is not assumed: the kernel component of `rhs` vanishes
    identically when the transport fills of the higher orders were
    consistent, and the assertions below turn any violation (a
    bookkeeping or operator bug) into a loud failure instead of a
    silently wrong symbol.  `noise_floor` is the round-off scale of the
    cancellations that produced `rhs` (amplitude scale times operator
    scale), which keeps the check meaningful when a mode is inactive and
    its rhs is pure round-off.
    """
    kt = _fit(ctx.kt, d)
    zeta = _fit(ctx.zeta, d)
    xi_sq = _fit(_xi_norm_sq(ctx.kt, ctx.zeta), d)
    xi_rhs = _xi_dot(ctx, rhs, d)
    tol = 1e-8 * _rhs_scale(rhs) + noise_floor
    if mode == "P":
        # p = -m I + (lam+mu) Xi (x) Xi with m = rho tau^2 - mu |Xi|^2 > 0;
        # range = kernel-orthogonal complement, so Xi . rhs must vanish.
        assert max(abs(c) for c in xi_rhs.coeffs) \
            <= (1.0 + abs(zeta[0])) * tol, \
            "P-mode cascade compatibility violated"
        m = jet_scale(_fit(ctx.rho, d), tau * tau) - jet_mul(_fit(ctx.mu, d), xi_sq)
        inv_m = jet_inv(m)
        coef = jet_mul(xi_rhs, jet_inv(xi_sq))
        proj = (jet_mul(coef, kt), constant_jet(0.0, d), jet_mul(coef, zeta))
        return tuple(jet_mul(jet_scale(r - p, -1.0), inv_m)
                     for r, p in zip(_jv_fit(rhs, d), proj))
    # S: p = (lam+mu) Xi (x) Xi; range = span(Xi), so the part of rhs
    # orthogonal to Xi must vanish.
    coef_dir = jet_mul(xi_rhs, jet_inv(xi_sq))
    for r, xi_c in zip(_jv_fit(rhs, d), (kt, constant_jet(0.0, d), zeta)):
        gap = r - jet_mul(coef_dir, xi_c)
        assert max(abs(c) for c in gap.coeffs) <= tol, \
            "S-mode cascade compatibility violated"
    coef = jet_mul(xi_rhs, jet_inv(jet_mul(_fit(ctx.lam_mu, d),
                                           jet_mul(xi_sq, xi_sq))))
    return (jet_mul(coef, kt), constant_jet(0.0, d), jet_mul(coef, zeta))


def _kernel_fill(ctx: _ModeCtx, w, alpha0, a_next, d: int):
    """Amplitude jet w + sum_d alpha_d e_d with kernel transports enforced.

    alpha0: value coefficients per kernel direction.  a_next: order J+1
    amplitude (depth d+1) or None.  Returns a depth-d jet-vector.
    """
    kernels = [_jv_fit(kv, d) for kv in ctx.kernels]
    alphas = [[complex(a)] for a in alpha0]
    for m in range(d):
        partial = _jv_fit(w, d)
        for al, kv in zip(alphas, kernels):
            pad = Jet(tuple(al) + (0.0,) * (d + 1 - len(al)))
            partial = _jv_add(partial, _jv_scale_jet(kv, pad))
        rhs = _l1(ctx, partial, d - 1) if d >= 1 else None
        if a_next is not None:
            rhs = _jv_add(rhs, _l0(ctx, a_next, d - 1))
        for al, kv in zip(alphas, kernels):
            terms = [jet_mul(_fit(kc, d - 1), rc) for kc, rc in zip(kv, rhs)]
            g = terms[0] + terms[1] + terms[2]
            al.append(-g[m] / ctx.q0)
    out = _jv_fit(w, d)
    for al, kv in zip(alphas, kernels):
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


class _ElasticRun:
    """One covector, one model: contexts, interface matrices, cascades."""

    def __init__(self, cov: Covector, minus: ElasticSideJet,
                 plus: ElasticSideJet, geometry, depth: int, tol: float):
        tau = cov.tau
        self.tau = tau
        self.depth = depth
        h, stretch = curvature_jets(cov, geometry, depth)
        if stretch[0] > 0.0:
            kt = jet_sqrt(stretch)
        else:
            kt = constant_jet(0.0, depth)  # normal incidence: q vanishes
        self.ctx = {}
        for branch, side, sign in (("I", minus, 1.0), ("R", minus, -1.0),
                                   ("T", plus, 1.0)):
            rho = side.rho.truncate(depth)
            lam, mu = derive_lame_jets(side.truncate(depth))
            for mode, speed in (("P", side.cp), ("S", side.cs)):
                vertical_wavenumber(cov, speed[0], tol)
                c = speed.truncate(depth)
                inv_c2 = jet_inv(jet_mul(c, c))
                radicand = jet_scale(inv_c2, tau * tau) \
                    - stretch.truncate(depth)
                zeta = jet_scale(jet_sqrt(radicand), sign)
                self.ctx[branch, mode] = _ModeCtx(kt, zeta, rho, lam, mu, h,
                                                  mode)
        # round-off yardstick for the cascade compatibility assertions
        self.op_scale = max(
            abs(ctx.q0) + max(abs(c) for c in ctx.p_diag[2].coeffs)
            * (1.0 + abs(ctx.zeta[0]))
            for ctx in self.ctx.values()
        )
        self._assemble_interface()

    def _columns(self, branch):
        """Displacement and traction columns (P, SV, SH) of one branch."""
        ctx_p = self.ctx[branch, "P"]
        ctx_s = self.ctx[branch, "S"]
        cols, tracs = [], []
        for ctx, kernel in ((ctx_p, ctx_p.kernels[0]),
                            (ctx_s, ctx_s.kernels[0]),
                            (ctx_s, ctx_s.kernels[1])):
            v = _jv_values(kernel)
            cols.append(v)
            tracs.append(_traction_phase(ctx, v))
        return np.array(cols).T, np.array(tracs).T

    def _assemble_interface(self):
        self.S = {}
        self.T = {}
        for branch in ("I", "R", "T"):
            self.S[branch], self.T[branch] = self._columns(branch)
        m6 = np.zeros((6, 6), dtype=complex)
        m6[:3, :3] = -self.S["R"]
        m6[:3, 3:] = self.S["T"]
        m6[3:, :3] = -self.T["R"]
        m6[3:, 3:] = self.T["T"]
        cond = np.linalg.cond(m6)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularInterfaceSystem(
                f"elastic interface system is singular (cond={cond:.3e})",
                condition=cond,
            )
        self.m6 = m6
        self.s_inv = {b: np.linalg.inv(self.S[b]) for b in ("I", "R", "T")}

    def order0_matrices(self):
        rhs = np.vstack([self.S["I"], self.T["I"]]).astype(complex)
        sol = np.linalg.solve(self.m6, rhs)
        return sol[:3, :], sol[3:, :]

    # -- full cascade for one incident polarization column ------------------

    def run_column(self, q: int):
        """Symbol columns [(R_J[:, q], T_J[:, q]) for J = 0..-depth]."""
        K = self.depth
        amps = {key: {} for key in self.ctx}
        out = []
        r0, t0 = self.order0_matrices()

        for step in range(K + 1):
            J = -step
            d = K - step
            w = {}
            if step > 0:
                rhs_all = {}
                amp_scale = 0.0
                for key, ctx in self.ctx.items():
                    rhs = tuple(jet_scale(c, -1.0)
                                for c in _l1(ctx, amps[key][J + 1], d))
                    nxt = amps[key].get(J + 2)
                    if nxt is not None:
                        rhs = tuple(r - c
                                    for r, c in zip(rhs, _l0(ctx, nxt, d)))
                    rhs_all[key] = rhs
                    amp_scale = max(amp_scale, _rhs_scale(amps[key][J + 1]))
                floor = 1e-12 * amp_scale * self.op_scale
                for key, ctx in self.ctx.items():
                    w[key] = _pinv(ctx, key[1], rhs_all[key], d, self.tau,
                                   floor)
            else:
                for key in self.ctx:
                    w[key] = _jv_zero(d)

            w_val = {b: _jv_values(w[b, "P"]) + _jv_values(w[b, "S"])
                     for b in ("I", "R", "T")}

            # incident kernel values: trace of the incident field vanishes
            # below the principal order.
            if step == 0:
                alpha_i = np.zeros(3, dtype=complex)
                alpha_i[q] = 1.0
                x_r, x_t = r0[:, q].copy(), t0[:, q].copy()
            else:
                alpha_i = np.linalg.solve(self.S["I"].astype(complex),
                                          -w_val["I"])
                rhs6 = np.zeros(6, dtype=complex)
                rhs6[:3] = self._disp_total("I", w, alpha_i) \
                    + w_val["R"] - w_val["T"]
                f_i = self._traction_total("I", amps, w, alpha_i, J, d)
                f_r = self._traction_total("R", amps, w, None, J, d)
                f_t = self._traction_total("T", amps, w, None, J, d)
                rhs6[3:] = f_i + f_r - f_t
                sol = np.linalg.solve(self.m6, rhs6)
                x_r, x_t = sol[:3], sol[3:]

            # fill amplitude jets for every branch/mode
            for key, ctx in self.ctx.items():
                branch, mode = key
                if branch == "I":
                    vals = alpha_i
                elif branch == "R":
                    vals = x_r
                else:
                    vals = x_t
                if mode == "P":
                    alpha0 = (vals[P],)
                else:
                    alpha0 = (vals[SV], vals[SH])
                nxt = amps[key].get(J + 1)
                amps[key][J] = _kernel_fill(ctx, w[key], alpha0, nxt, d)

            out.append((x_r + self.s_inv["R"] @ w_val["R"],
                        x_t + self.s_inv["T"] @ w_val["T"]))
        return out

    def _disp_total(self, branch, w, alpha):
        # (u_I)_J at the interface: zero by construction, kept explicit.
        total = _jv_values(w[branch, "P"]) + _jv_values(w[branch, "S"])
        return total + self.S[branch] @ alpha

    def _traction_total(self, branch, amps, w, alpha, J, d):
        """F = sum_modes [tr1(values) + P_side d(a)_{J+1}/dnu] at x3 = 0."""
        total = np.zeros(3, dtype=complex)
        for mode in ("P", "S"):
            ctx = self.ctx[branch, mode]
            v = _jv_values(w[branch, mode])
            total += _traction_phase(ctx, v)
            prev = amps[branch, mode][J + 1]
            dvals = np.array([complex(c[1]) for c in prev])
            pd = np.array([complex(ctx.p_diag[i][0]) for i in range(3)])
            total += pd * dvals
        if alpha is not None:
            total += self.T[branch] @ alpha
        return total


def forward_series_elastic(
    cov: Covector,
    minus: ElasticSideJet,
    plus: ElasticSideJet,
    geometry,
    depth: int,
    tol: float = GLANCING_TOL,
) -> list:
    """[(R_J, T_J) for J = 0..-depth] at one covector.

    `geometry` is an InterfaceGeometry or None (flat); this is the entry
    point the inversion linearizes against.
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
    run = _ElasticRun(cov, minus, plus, geometry, depth, tol)
    cols = [run.run_column(q) for q in (P, SV, SH)]
    out = []
    for k in range(depth + 1):
        r = np.column_stack([cols[q][k][0] for q in (P, SV, SH)])
        t = np.column_stack([cols[q][k][1] for q in (P, SV, SH)])
        out.append((r, t))
    return out


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
    run = _ElasticRun(cov, model.minus.truncate(0), model.plus.truncate(0),
                      None, 0, tol)
    return run.order0_matrices()
