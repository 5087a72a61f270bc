"""Exception types shared across the package."""


class PadicError(Exception):
    """Base class for all package-specific errors."""


class InsufficientPrecision(PadicError):
    """A quantity cannot be decided at the available working precision."""


class BudgetExceeded(PadicError):
    """An enumeration or search exceeded its configured budget."""


class IdenticallyZeroAtPrecision(PadicError):
    """A polynomial vanishes identically at its working precision."""


class CertificationCapExceeded(PadicError):
    """Adaptive precision extension hit its cap without certifying."""


class NotStabilized(PadicError):
    """A point-count sequence did not stabilize within the level budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConsistencyError(PadicError):
    """Two exact computations of one quantity disagree."""


class DimensionMismatch(PadicError):
    """Certified local dimension contradicts the claimed dimension."""


class DomainViolation(PadicError):
    """An input lies outside the domain of the requested map."""


class NonConstantJacobian(PadicError):
    """Sampled Jacobian norms disagree where constancy was required."""


class IsometryViolation(PadicError):
    """A distance equality expected of an isometry failed."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
