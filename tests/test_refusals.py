"""Refusals of bad arguments across the package: each raises its documented
class with its message."""

import pytest

from bellops import (
    BellTable,
    BiJet,
    DiffOperator,
    FreeRing,
    IndexRangeError,
    Jet,
    MatrixJet,
    PrecisionExhaustedError,
    RealizationMismatchError,
    UnsupportedRealizationError,
    d_power_operator,
    darboux_transform,
    exp_jet,
    factor_from_kernel,
    log_derivative,
    riccati_residual,
    time_propagate,
    transformed_coefficients,
)

RING = FreeRing(("s", "u"))
S = RING.gen("s")
FREE_L = DiffOperator([S, RING.one], RING)  # D + s
PHI = MatrixJet.scalar(exp_jet(1, 8))
JET_L = DiffOperator([-PHI.one_like(), PHI.one_like()], PHI.realization)  # D - 1
ORDER_0 = DiffOperator([PHI.one_like()], PHI.realization)
BIJET_COEFF = DiffOperator([MatrixJet([[BiJet([[1, 2]], 4, 1)]])], PHI.realization)
SIDES = "side must be 'left' or 'right'"

CASES = [
    ("BellTable.left(-1)", lambda: BellTable(S).left(-1),
     IndexRangeError, "Bell index must be >= 0"),
    ("BellTable.h(-1)", lambda: BellTable(S).h(-1),
     IndexRangeError, "operator index must be >= 0"),
    ("BellTable.h_plus(-1)", lambda: BellTable(S).h_plus(-1),
     IndexRangeError, "operator index must be >= 0"),
    ("darboux_transform of order 0", lambda: darboux_transform(ORDER_0, PHI),
     IndexRangeError, "the transform needs an operator of order >= 1"),
    ("transformed_coefficients of order 0", lambda: transformed_coefficients(ORDER_0, PHI),
     IndexRangeError, "the transform needs an operator of order >= 1"),
    ("time_propagate to t-order -1", lambda: time_propagate(JET_L, PHI, -1),
     IndexRangeError, "t-order must be >= 0"),
    ("time_propagate with a bi-jet coefficient", lambda: time_propagate(BIJET_COEFF, PHI, 1),
     UnsupportedRealizationError,
     "propagation needs time-independent one-variable jet coefficients"),
    ("riccati_residual side up", lambda: riccati_residual(FREE_L, S, "up"), ValueError, SIDES),
    ("factor_from_kernel side up", lambda: factor_from_kernel(JET_L, PHI, "up"),
     ValueError, SIDES),
    ("log_derivative side up", lambda: log_derivative(PHI, "up"), ValueError, SIDES),
    ("empty operator without a realization", lambda: DiffOperator([]),
     ValueError, "a realization is required for the empty operator"),
    ("operator over mixed realizations", lambda: DiffOperator([S, PHI]),
     RealizationMismatchError, "operator coefficients mix realizations"),
    ("operator plus an integer", lambda: FREE_L + 1,
     RealizationMismatchError, "expected a DiffOperator operand"),
    ("scale across realizations", lambda: FREE_L.scale(PHI),
     RealizationMismatchError, "scale factor lives over a different realization"),
    ("apply across realizations", lambda: FREE_L.apply(PHI),
     RealizationMismatchError, "element lives over a different realization"),
    ("D to the power -1", lambda: d_power_operator(RING, -1),
     ValueError, "power must be >= 0"),
    ("generator name not an identifier", lambda: FreeRing(("1s",)),
     ValueError, "generator name '1s' is not an identifier"),
    ("generator name reserved", lambda: FreeRing(("D",)),
     ValueError, "generator name 'D' is reserved"),
    ("jet of order -1", lambda: Jet([1], -1), ValueError, "jet order must be >= 0"),
    ("bi-jet of t-order -1", lambda: BiJet([[1]], 0, -1), ValueError, "t-order must be >= 0"),
    ("bi-jet level past its t-order", lambda: BiJet([[1, 2]], 3, 1).level(2),
     PrecisionExhaustedError, "t^2 beyond valid t-order 1"),
    ("matrix of integers", lambda: MatrixJet([[1]]),
     TypeError, "entries must all be Jet or BiJet values"),
    ("matrix plus a free element", lambda: PHI + S,
     RealizationMismatchError, "expected a MatrixJet operand"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refusal_class_and_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
