"""Exception hierarchy shared by all agefire modules.

Exit-code convention used by the CLI: InputError maps to 2,
AccuracyError (and subclasses) to 3, validation failures to 4.
"""


class AgefireError(Exception):
    """Base class for all package errors."""


class InputError(AgefireError, ValueError):
    """Invalid argument, malformed config, or out-of-domain input."""


class SupercriticalError(InputError):
    """Initial measure has leading eigenvalue above 1; the evolution
    is only defined for critical or subcritical initial data."""


class AccuracyError(AgefireError, ArithmeticError):
    """A numerical accuracy contract was violated (e.g. eigenvalue
    drift exceeding budget); usually fixed by a smaller step size."""


class DegenerateOperatorError(AccuracyError):
    """The min-kernel operator is zero because the measure is
    supported on {0}; no eigenpair exists."""


class IterationLimitError(AccuracyError):
    """Power iteration did not converge within the iteration cap."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold only the
        # message; pass the residual too
        return type(self), (*self.args, self.residual)
