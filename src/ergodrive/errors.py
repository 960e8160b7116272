"""Exception and warning types.

Two families matter for exit-code mapping in the CLI: ``ValidationError``
(bad inputs, exit code 2) and ``ConvergenceError`` (a solver or integrator
failed to meet its contract, exit code 3).
"""


class ErgodriveError(Exception):
    """Base class for all package errors."""


class ValidationError(ErgodriveError):
    """Input fails a precondition."""


class ConvergenceError(ErgodriveError):
    """Iterative routine failed to converge to contract."""


class NotHermitian(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class TooFarFromUnitary(ValidationError):
    pass


class DimMismatch(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class NotAState(ValidationError):
    """Matrix is not a density matrix (trace, positivity, hermiticity)."""


class EnergyOutOfRange(ValidationError):
    pass


class EntropyOutOfRange(ValidationError):
    pass


class NegativeBeta(ValidationError):
    pass


class ParamOutOfRange(ValidationError):
    pass


class ParamInconsistent(ValidationError):
    pass


class DimTooLarge(ValidationError):
    pass


class NoConvergence(ConvergenceError):
    pass


class VerificationFailed(ConvergenceError):
    """Synthesized drive missed its target beyond contract tolerances."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class BranchAmbiguity(UserWarning):
    """A unitary eigenphase sits numerically on the -pi branch cut."""
