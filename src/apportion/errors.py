"""Exception hierarchy shared by all apportion modules."""


class ApportionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ApportionError):
    """Malformed, non-finite, or out-of-domain input."""


class UnsupportedOrderError(ApportionError):
    """Operation not available at this matrix order (e.g. raw-entry input above 3x3)."""


class SingularMatrixError(ApportionError):
    """A matrix required to be nonsingular is singular or numerically rank deficient.

    Carries the reciprocal condition estimate that triggered the refusal.
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class ConstantNotAchievableError(ApportionError):
    """Requested modulus is outside the achievable constant set.

    ``constants`` describes the achievable set when it is known.
    """

    def __init__(self, message, constants=None):
        super().__init__(message)
        self.constants = constants


class SearchBudgetError(ApportionError):
    """Numerical search refused: problem size exceeds the configured budget."""


class ConstructionError(ApportionError):
    """A certificate failed its check, or its construction left the float range."""
