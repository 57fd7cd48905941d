"""Exception types shared across the package."""


class GaussFisherError(Exception):
    """Base class for all package errors."""


class ValidationError(GaussFisherError, ValueError):
    """Input fails a precondition (shape, range, normalization, symmetry)."""


class NumericalConsistencyError(GaussFisherError, ArithmeticError):
    """A quantity violates an exact inequality beyond numerical tolerance."""


class ChartDomainError(GaussFisherError, ValueError):
    """Point lies outside, or too close to the boundary of, a chart domain."""


class TruncationError(GaussFisherError, RuntimeError):
    """Fock-space truncation is too small for the requested accuracy."""


def overflow_error(what: str) -> ChartDomainError:
    """The error a closed form raises where its double-precision arithmetic overflows.

    On Python floats an overflowing ``**`` raises OverflowError, and a
    divisor whose square underflows to zero raises ZeroDivisionError. Each
    closed form catches these around its own arithmetic and raises this in
    their place; a try block costs nothing until it fires, where a wrapper
    function would cost a call per evaluation.
    """
    return ChartDomainError(f"{what} overflows double precision")


def cancellation_error(k_plus: float, k_minus: float) -> NumericalConsistencyError:
    """The error a fidelity route raises where sqrt(k_plus) - sqrt(k_minus) rounds to 0."""
    return NumericalConsistencyError(f"sqrt(k_plus) - sqrt(k_minus) rounds to 0 at "
                                     f"k_plus = {k_plus:.6e}, k_minus = {k_minus:.6e}")
