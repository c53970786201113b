"""Self-verifying kernel for noncommutative differential operators.

Two interoperable ring realizations (an exact free symbolic ring and
matrix-valued truncated power series), Bell-polynomial tables, division of
operators by first-order factors, factorization residuals, and Darboux
transforms with machine-checkable intertwining identities.
"""

from .bell import BellTable
from .darboux import (
    CoefficientAudit,
    DarbouxOutcome,
    MatveevReport,
    audit_transformed_coefficients,
    burgers_rhs,
    darboux_transform,
    intertwine_defect,
    matveev_psi,
    matveev_verify,
    time_propagate,
    transformed_coefficients,
)
from .division import (
    DivisionOutcome,
    divide_left,
    divide_right,
    factor_from_kernel,
    riccati_residual,
)
from .errors import (
    ConsistencyError,
    DefectNotScalarError,
    DuplicateIndexError,
    ExprSyntaxError,
    IndexRangeError,
    InsufficientOrderError,
    KernelError,
    KernelPremiseViolatedError,
    OperatorFileError,
    PrecisionExhaustedError,
    RealizationMismatchError,
    SingularConstantTermError,
    TermBudgetError,
    UndeclaredGeneratorError,
    UnsupportedRealizationError,
)
from .free import FreeElement, FreeRing, Letter
from .jets import BiJet, Jet, MatrixJet, MatrixRealization, exp_jet, log_derivative, x_jet
from .operators import DiffOperator, d_power_operator, identity_operator, make_ls

__all__ = [
    "BellTable",
    "BiJet",
    "CoefficientAudit",
    "ConsistencyError",
    "DarbouxOutcome",
    "DefectNotScalarError",
    "DiffOperator",
    "DivisionOutcome",
    "DuplicateIndexError",
    "ExprSyntaxError",
    "FreeElement",
    "FreeRing",
    "IndexRangeError",
    "InsufficientOrderError",
    "Jet",
    "KernelError",
    "KernelPremiseViolatedError",
    "Letter",
    "MatrixJet",
    "MatrixRealization",
    "MatveevReport",
    "OperatorFileError",
    "PrecisionExhaustedError",
    "RealizationMismatchError",
    "SingularConstantTermError",
    "TermBudgetError",
    "UndeclaredGeneratorError",
    "UnsupportedRealizationError",
    "audit_transformed_coefficients",
    "burgers_rhs",
    "d_power_operator",
    "darboux_transform",
    "divide_left",
    "divide_right",
    "exp_jet",
    "factor_from_kernel",
    "identity_operator",
    "intertwine_defect",
    "log_derivative",
    "make_ls",
    "matveev_psi",
    "matveev_verify",
    "riccati_residual",
    "time_propagate",
    "transformed_coefficients",
    "x_jet",
]
