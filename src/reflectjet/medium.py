"""Material model at the interface: one-sided jets, geometry, covectors.

Conventions fixed here and used consistently everywhere downstream:

* The interface normal points from the known (minus) side into the
  unknown (plus) side; jets are derivatives in that direction.
* The vertical wavenumber is the positive branch
  xi3 = +sqrt(tau^2 / c^2 - |xi'|^2) in the hyperbolic regime.  Incident
  and transmitted phases carry +xi3, the reflected phase carries -xi3.
* The model is laterally frozen: material parameters vary only along the
  normal at the evaluation point.  Tangential variation is handled by
  running the engines point by point along the interface.

The rules both engines share live here once: the regime test, reading
|xi'| as `Covector.xi_norm`, and the jet it guards (`zeta_jet`), the
depth checks (`check_depth`) and the group rule (`check_group`).
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from dataclasses import dataclass, field

from .errors import (
    ConvexityViolation,
    DepthExceeded,
    EvanescentError,
    GlancingError,
    NonPositiveBase,
    RegimeError,
)
from .geometry import CurvatureSpectrum, mean_curvature_jet, tangential_stretch_jet
from .jets import Jet, constant_jet, jet_add, jet_inv, jet_mul, jet_scale, jet_sqrt

GLANCING_TOL = 1e-9
# default bounds of the inversion's solves (reflectjet.inversion)
RESIDUAL_TOL = 1e-8
CONDITION_LIMIT = 1e8


@dataclass(frozen=True)
class AcousticSideJet:
    """Density and wave-speed jets on one side of the interface."""

    rho: Jet
    cs: Jet

    def __post_init__(self):
        if self.rho.depth != self.cs.depth:
            raise ValueError("rho and cs jets must share a depth")
        if not self.rho[0] > 0:
            raise ValueError("density must be positive at the interface")
        if not self.cs[0] > 0:
            raise ValueError("wave speed must be positive at the interface")
        if not all(map(math.isfinite, self.rho.coeffs + self.cs.coeffs)):
            raise ValueError("rho and cs jets must be finite")

    @property
    def depth(self) -> int:
        return self.rho.depth

    @property
    def speeds(self):
        return (self.cs[0],)

    def truncate(self, depth: int) -> "AcousticSideJet":
        return AcousticSideJet(self.rho.truncate(depth), self.cs.truncate(depth))


@dataclass(frozen=True)
class ElasticSideJet:
    """Density, shear-speed and compressional-speed jets on one side."""

    rho: Jet
    cs: Jet
    cp: Jet

    def __post_init__(self):
        if not (self.rho.depth == self.cs.depth == self.cp.depth):
            raise ValueError("rho, cs, cp jets must share a depth")
        check_elastic_side(self.rho[0], self.cs[0], self.cp[0],
                           self.rho.coeffs + self.cs.coeffs + self.cp.coeffs)

    @property
    def depth(self) -> int:
        return self.rho.depth

    @property
    def speeds(self):
        return (self.cs[0], self.cp[0])

    def truncate(self, depth: int) -> "ElasticSideJet":
        """A side is immutable, so one already at `depth` is returned as is."""
        if depth == self.depth:
            return self
        return ElasticSideJet(
            self.rho.truncate(depth), self.cs.truncate(depth), self.cp.truncate(depth)
        )


def check_elastic_side(rho, cs, cp, coeffs):
    """`ElasticSideJet`'s checks of the interface values `rho`, `cs`, `cp`
    and of its coefficients `coeffs`, in its order."""
    if not rho > 0:
        raise ValueError("density must be positive at the interface")
    if not cs > 0:
        raise ValueError("shear speed must be positive at the interface")
    if not cp > 0:
        raise ValueError("compressional speed must be positive at the interface")
    # Equivalent at the interface to mu > 0 and 3*lambda + 2*mu > 0.
    if not cp ** 2 > (4.0 / 3.0) * cs ** 2:
        raise ConvexityViolation(
            f"cp^2 = {cp**2:.6g} must exceed (4/3) cs^2 = "
            f"{(4.0/3.0)*cs**2:.6g}"
        )
    if not all(map(math.isfinite, coeffs)):
        raise ValueError("rho, cs and cp jets must be finite")


def side_to_dict(side) -> dict:
    """The side's jets keyed as in the model JSON."""
    out = {"rho_jet": list(side.rho.coeffs), "cs_jet": list(side.cs.coeffs)}
    if isinstance(side, ElasticSideJet):
        out["cp_jet"] = list(side.cp.coeffs)
    return out


@dataclass(frozen=True)
class InterfaceGeometry:
    """Principal curvatures of the interface at the evaluation point.

    The interface coordinate axes are the principal directions: kappa1
    curves the x1 axis, kappa2 the x2 axis.  A covector's tangential
    components therefore couple to the two curvatures individually
    through the metric-stretch profile.
    """

    kappa1: float = 0.0
    kappa2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.kappa1) and math.isfinite(self.kappa2)):
            raise ValueError("principal curvatures must be finite")

    @property
    def spectrum(self) -> CurvatureSpectrum:
        return CurvatureSpectrum((self.kappa1, self.kappa2))

    @property
    def is_flat(self) -> bool:
        return self.kappa1 == 0.0 and self.kappa2 == 0.0


@dataclass(frozen=True)
class Covector:
    """Frequency-slowness point (tau, xi') at which symbols are evaluated."""

    tau: float
    xi: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.tau == 0.0:
            raise ValueError("tau must be nonzero")
        object.__setattr__(self, "xi", (float(self.xi[0]), float(self.xi[1])))
        if not all(map(math.isfinite, (self.tau,) + self.xi)):
            raise ValueError("tau and xi must be finite")
        # the hash that `dataclass` would compute on every call, once
        object.__setattr__(self, "_hash", hash((self.tau, self.xi)))

    def __hash__(self):
        return self._hash

    @property
    def xi_norm(self) -> float:
        return math.hypot(self.xi[0], self.xi[1])

    @property
    def slowness(self) -> float:
        """b = |xi'| / tau, the incidence-angle parameter."""
        return self.xi_norm / self.tau

    def scaled(self, s: float) -> "Covector":
        return Covector(s * self.tau, (s * self.xi[0], s * self.xi[1]))


@dataclass(frozen=True)
class SymbolSeries:
    """Symbol orders at one covector: orders[k] = (J, R_J, T_J), J = -k,
    with complex scalars (acoustic) or 3x3 complex matrices acting on
    (P, SV, SH) mode coefficients (elastic)."""

    orders: tuple
    covector: Covector
    depth: int


class Regime(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    GLANCING = "glancing"
    EVANESCENT = "evanescent"


def classify_regime(cov: Covector, speed: float, tol: float = GLANCING_TOL) -> Regime:
    """Propagation regime of one wave mode at a covector."""
    scale = cov.tau ** 2 / speed ** 2
    radicand = scale - cov.xi_norm ** 2
    if radicand > tol * scale:
        return Regime.HYPERBOLIC
    if radicand < -tol * scale:
        return Regime.EVANESCENT
    return Regime.GLANCING


def check_hyperbolic(tau, xi_norm, speed, tol: float = GLANCING_TOL) -> None:
    """Raise as `vertical_wavenumber` does unless the covector (tau, xi'),
    |xi'| = `xi_norm`, is hyperbolic for `speed`.  The test is
    `classify_regime`'s arithmetic on plain scalars, so a tape
    (`reflectjet.tape`) records it as guards; a covector that fails it
    reaches `vertical_wavenumber`, which raises."""
    scale = tau ** 2 / speed ** 2 if speed > 0 else 0.0
    zeta2 = scale - xi_norm ** 2
    if not (zeta2 > tol * scale and zeta2 >= 0):
        vertical_wavenumber(Covector(tau, (xi_norm, 0.0)), speed, tol)


def zeta_jet(tau, tol, xi_norm, speed: Jet, stretch: Jet) -> Jet:
    """The jet sqrt(tau^2/c^2 - q) of the speed jet `speed` along the
    normal, at its depth, q the squared tangential wavenumber jet
    `stretch`, once `check_hyperbolic` passes (tau, |xi'| = `xi_norm`,
    the covector's `Covector.xi_norm`, as `classify_regime` reads it).
    The engines' tapes (`reflectjet.tape`) do not log this module's
    `math`, so it calls only jet functions and operators.  The radicand's
    value is rounded another way than the test's, so at `tol` = 0 it can
    be <= 0 where the test passes: the covector is then glancing to
    working precision, and GlancingError is raised."""
    check_hyperbolic(tau, xi_norm, speed[0], tol)
    radicand = jet_scale(jet_inv(jet_mul(speed, speed)), tau * tau)
    try:
        return jet_sqrt(radicand - stretch.truncate(speed.depth))
    except NonPositiveBase:  # jet_sqrt's test: the value is not > 0
        raise GlancingError(
            f"covector glancing to working precision for speed {speed[0]:.6g}"
        ) from None


def vertical_wavenumber(cov: Covector, speed: float, tol: float = GLANCING_TOL) -> float:
    """xi3 = +sqrt(tau^2/c^2 - |xi'|^2) for a hyperbolic covector.

    The reflected branch carries -xi3; callers apply the sign.  Raises
    GlancingError within `tol` (relative) of the glancing set and
    EvanescentError past it.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    regime = classify_regime(cov, speed, tol)
    if regime is Regime.GLANCING:
        # below the normal range the glancing band cannot be resolved
        scale = cov.tau ** 2 / speed ** 2
        if not scale >= sys.float_info.min:
            raise RegimeError(
                f"tau^2/c^2 = {scale:.3g} underflows for tau {cov.tau:.6g} "
                f"and speed {speed:.6g}: no regime can be told"
            )
        raise GlancingError(
            f"covector within glancing tolerance for speed {speed:.6g}"
        )
    if regime is Regime.EVANESCENT:
        raise EvanescentError(
            f"post-critical covector for speed {speed:.6g} "
            f"(|xi'|/tau = {cov.slowness:.6g} > 1/c = {1.0/speed:.6g})"
        )
    return math.sqrt(cov.tau ** 2 / speed ** 2 - cov.xi_norm ** 2)


def curvature_jets(cov: Covector, geometry: InterfaceGeometry | None, depth: int):
    """(mean-curvature jet, tangential-stretch jet) at one interface point.

    The flat case returns (None, constant |xi'|^2).  Both jets are fully
    determined by the shape operator: the mean-curvature profile drives
    the divergence term of the transport equations, the stretch profile
    feeds the vertical-wavenumber jet through the eikonal
    zeta^2 = tau^2/c^2 - q along the normal.
    """
    if geometry is None or geometry.is_flat:
        return None, constant_jet(cov.xi_norm ** 2, depth)
    spec = geometry.spectrum
    h = mean_curvature_jet(spec, depth - 1) if depth > 0 else None
    return h, tangential_stretch_jet(spec, cov.xi, depth)


def check_depth(depth: int, minus, plus) -> None:
    """A forward run's checks of the symbol `depth` against the jets of
    the sides `minus` and `plus`."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if minus.depth < depth or plus.depth < depth:
        raise DepthExceeded(
            f"symbol depth {depth} exceeds model depth {min(minus.depth, plus.depth)}"
        )


def _exact(coeffs):
    """`coeffs` as a key that tells apart bits, signs of zero and scalar
    types, which == does not."""
    return array("d", coeffs).tobytes(), *map(type, coeffs)


def check_group(pluses, depth: int) -> None:
    """Raise ValueError unless the plus sides `pluses` agree below
    coefficient `depth` of each jet, in bits, signs of zero and scalar
    types: then a group runs each on the first one's coefficients below
    the top (see the engines' module notes)."""
    if len(pluses) > 1 and len({
            _exact(sum((j.coeffs[:depth] for j in vars(p).values()), ()))
            for p in pluses}) > 1:  # vars: the side's jets, in field order
        raise ValueError("a group's plus sides differ below the top coefficient")


def derive_lame_jets(side: ElasticSideJet):
    """Lame-parameter jets (lambda, mu) from (rho, cs, cp) jets.

    mu = rho cs^2, lambda = rho cp^2 - 2 mu; re-verifies strong convexity
    at the interface after the arithmetic.
    """
    mu = jet_mul(side.rho, jet_mul(side.cs, side.cs))
    rho_cp2 = jet_mul(side.rho, jet_mul(side.cp, side.cp))
    lam = jet_add(rho_cp2, jet_scale(mu, -2.0))
    if not mu[0] > 0 or not 3.0 * lam[0] + 2.0 * mu[0] > 0:
        raise ConvexityViolation(
            f"derived Lame parameters violate convexity: mu={mu[0]:.6g}, "
            f"3*lambda+2*mu={3.0*lam[0] + 2.0*mu[0]:.6g}"
        )
    return lam, mu


@dataclass(frozen=True)
class InterfaceModel:
    """Two-sided material jets plus interface geometry."""

    minus: AcousticSideJet | ElasticSideJet
    plus: AcousticSideJet | ElasticSideJet
    geometry: InterfaceGeometry = field(default_factory=InterfaceGeometry)

    def __post_init__(self):
        if type(self.minus) is not type(self.plus):
            kinds = ["elastic" if isinstance(side, ElasticSideJet)
                     else "acoustic" for side in (self.minus, self.plus)]
            raise ValueError("both sides must be acoustic or both elastic "
                             "(minus {}, plus {})".format(*kinds))
        if self.minus.depth != self.plus.depth:
            raise ValueError(
                f"both sides must share the jet depth (minus "
                f"{self.minus.depth}, plus {self.plus.depth})")

    @property
    def depth(self) -> int:
        return self.minus.depth

    @property
    def is_elastic(self) -> bool:
        return isinstance(self.minus, ElasticSideJet)

    def speeds(self):
        return self.minus.speeds + self.plus.speeds

    def critical_slowness(self) -> float:
        """Smallest 1/c over the participating modes; b below this is
        hyperbolic for every mode on both sides."""
        return 1.0 / max(self.speeds())
