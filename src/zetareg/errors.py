"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ZetaRegError(Exception):
    """Base class for all errors raised by this package."""


# --- power series ---------------------------------------------------------

class ZeroConstantTermError(ZetaRegError):
    """Operation needs a nonzero constant coefficient (reciprocal, power)."""


# --- special functions ----------------------------------------------------

class PoleAtNonpositiveIntegerError(ZetaRegError):
    """Gamma evaluated at 0, -1, -2, ..."""


class PoleAtOneError(ZetaRegError):
    """zeta(1), or a polylogarithm argument sitting on its w=1 singularity."""


class DivergentArgumentError(ZetaRegError):
    """Polylogarithm series called with |w| >= 1."""


class InvalidOrderError(ZetaRegError):
    """Near-one polylog expansion called with a positive integer order."""


class OutOfDiskError(ZetaRegError):
    """Near-one polylog expansion called with |mu| >= 2*pi."""


class ConvergenceError(ZetaRegError):
    """A capped iteration hit its term budget before reaching tolerance."""


# --- generators -----------------------------------------------------------

class EmptySpecError(ZetaRegError):
    """Generator coefficient list is empty."""


class NonpositiveConstantError(ZetaRegError):
    """Generator requires p(0) = 1/h(0) > 0."""


class NotPolynomialError(ZetaRegError):
    """Global (real-axis) evaluation requested for a series-only generator."""


# --- traces and regulators ------------------------------------------------

class UnsupportedOrderError(ZetaRegError):
    """Closed-form trace identities exist only for m <= 3."""


class HankelConditionsFailedError(ZetaRegError):
    """-Phi(-x) is not positive and increasing; fractional routes refused."""


class QuadratureFailureError(ZetaRegError):
    """Adaptive quadrature exhausted its budget above the requested tolerance."""


class OutOfRegularizationRegionError(ZetaRegError):
    """Regulator requested for Re(alpha) <= -1 (or Z_L for Re(alpha) >= 1)."""


class RouteDisagreementError(ZetaRegError):
    """Cross-checked fractional routes differ beyond tolerance."""


class RadiusTooLargeError(ZetaRegError):
    """Contour radius fails the |Phi| < 2*pi or nearest-branch-point guard."""
