"""Exception hierarchy.

Falsifier errors are the ones whose occurrence would contradict a proved
identity; the verification pipeline catches them and reports a failed check
instead of crashing.
"""


class WplusError(Exception):
    """Base class for all package errors."""


class PrecisionError(WplusError):
    """A series does not carry enough known coefficients for the operation."""


class NotPIntegralError(WplusError):
    """A rational q-expansion has a denominator divisible by p."""


class NonPolynomialQuotientError(WplusError):
    """f / (Delta^m * Etilde) failed to reduce to a polynomial in j."""


class OddMultiplicityError(WplusError):
    """FpPoly.sqrt hit an irreducible factor with odd exponent (falsifier)."""


class InexactDivisionError(WplusError):
    """A polynomial division that should be exact left a remainder (falsifier)."""


class ZeroWronskianError(WplusError):
    """Wronskian vanished: the input forms are linearly dependent."""


class ConsistencyError(WplusError):
    """A fast kernel failed one of its own checks: a fault in the code, not
    a falsifier of the mathematics."""


class NoLiftError(WplusError):
    """A weight-2 form mod p admits no weight-(p+1) level-1 lift (falsifier)."""


class ParityViolationError(WplusError):
    """An exponent that must be even came out odd (falsifier)."""


class ClosedFormMismatchError(WplusError):
    """Product form and closed form of the Eisenstein correction disagree."""


class SplitDegreeMismatchError(WplusError):
    """The quadratic part of the supersingular polynomial has a factor of
    unexpected degree (falsifier)."""


class PrecisionExhaustedError(WplusError):
    """Class polynomial rounding failed at the maximum float precision."""


class BoundExceededError(WplusError):
    """The point-counting supersingular oracle was asked beyond its bound."""


#: Errors that falsify a proved statement rather than signal misuse.
FALSIFIERS = (
    OddMultiplicityError,
    InexactDivisionError,
    NoLiftError,
    ParityViolationError,
    ClosedFormMismatchError,
    SplitDegreeMismatchError,
    NonPolynomialQuotientError,
)
