"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: parse/I-O problems exit with 2,
mathematical inconsistencies (regime violations, failed solves,
inconsistent data) exit with 3.
"""


class ReflectJetError(Exception):
    """Base class for all package errors."""


# --- jet arithmetic ---------------------------------------------------------

class DepthMismatch(ReflectJetError):
    """Binary jet operation on jets of unequal depth."""


class NonPositiveBase(ReflectJetError):
    """jet_log of a jet whose value at the interface is not positive."""


class DivisionByZeroJet(ReflectJetError):
    """jet_inv of a jet whose value at the interface is zero."""


# --- propagation regimes ----------------------------------------------------

class RegimeError(ReflectJetError):
    """Covector outside the hyperbolic regime for some wave mode."""


class GlancingError(RegimeError):
    """Vertical wavenumber within tolerance of zero."""


class EvanescentError(RegimeError):
    """Post-critical covector: negative radicand for the vertical wavenumber."""


class ConvexityViolation(ReflectJetError):
    """Derived Lame parameters violate mu > 0 or 3*lambda + 2*mu > 0."""


# --- forward engines --------------------------------------------------------

class DepthExceeded(ReflectJetError):
    """Requested symbol depth exceeds the model depth or an engine cap."""


class SingularInterfaceSystem(ReflectJetError):
    """The 6x6 elastic interface system is numerically singular."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class CascadeIncompatible(ReflectJetError):
    """An elastic transport cascade right-hand side left the range of the
    eikonal operator: the higher-order fills were inconsistent."""


class FocalPoint(ReflectJetError):
    """Parallel-surface curvature profile evaluated across a focal point."""


# --- inversion --------------------------------------------------------------

class InversionError(ReflectJetError):
    """Base class for reconstruction failures."""


class InconsistentData(InversionError):
    """Over-determined sample set disagrees beyond tolerance."""


class DegenerateAngles(InversionError):
    """Sample slownesses violate the b1 != +-b2 non-degeneracy condition."""


class IllConditioned(InversionError):
    """Design matrix condition number above threshold."""

    def __init__(self, message, order=None, condition=None):
        super().__init__(message)
        self.order = order
        self.condition = condition


class MissingOrder(InversionError):
    """Sample set lacks a symbol order required for the requested depth."""


class NoRoot(InversionError):
    """Bracketed scalar root search found no sign change."""


class AmbiguousRoot(InversionError):
    """Several parameter values are consistent with the data."""

    def __init__(self, message, roots=()):
        super().__init__(message)
        self.roots = tuple(roots)


# --- file formats -----------------------------------------------------------

class ParseError(ReflectJetError):
    """Malformed model JSON or symbol CSV."""
