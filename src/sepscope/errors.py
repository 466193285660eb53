"""Exception hierarchy shared across the package.

Two failures have their own class: a quadrature that does not reach its
tolerance and a sample with no survivors.  Malformed arguments raise plain
``ValueError``.
"""


class SepscopeError(Exception):
    """Base class for all errors raised by this package."""


class QuadratureError(SepscopeError, RuntimeError):
    """Requested quadrature tolerance was not reached within budget.

    Attributes
    ----------
    result : the best estimate achieved, or None.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InsufficientSamplesError(SepscopeError, RuntimeError):
    """No samples survived rejection; an estimate cannot be formed."""
