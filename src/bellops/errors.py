"""Exception hierarchy for the operator kernel.

Every domain failure raised by this package derives from :class:`KernelError`,
so callers (notably the CLI) can distinguish bad input data from programming
errors.
"""


class KernelError(Exception):
    """Base class for all domain errors raised by the kernel."""


class RealizationMismatchError(KernelError):
    """Operands belong to different ring realizations (or matrix dimensions)."""


class PrecisionExhaustedError(KernelError):
    """A truncated-series operation needs more valid orders than are stored."""


class InsufficientOrderError(PrecisionExhaustedError):
    """A precision budget (x-order vs. requested t-order) is violated up front."""


class TermBudgetError(KernelError):
    """A free-ring product would have more term pairs than the fixed budget."""


class SingularConstantTermError(KernelError):
    """Series inversion failed: the constant coefficient matrix is singular."""


class UnsupportedRealizationError(KernelError):
    """The operation is not defined for this realization (e.g. d0 on plain jets)."""


class IndexRangeError(KernelError):
    """An index is outside its documented range (e.g. B_{n,k} with k > n)."""


class KernelPremiseViolatedError(KernelError):
    """A factorization premise does not hold for the supplied kernel element."""


class DefectNotScalarError(KernelError):
    """The intertwining discrepancy has positive order, signalling a wrong transform."""


class ConsistencyError(KernelError):
    """Two formulas that must agree produced different results (internal cross-check)."""


class ExprSyntaxError(KernelError):
    """Expression text could not be parsed; carries the offending offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UndeclaredGeneratorError(KernelError):
    """An expression references a generator that was never declared."""


class OperatorFileError(KernelError):
    """An operator or initial-condition file is malformed; carries a line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateIndexError(OperatorFileError):
    """The same coefficient or entry index is assigned twice in one file."""
