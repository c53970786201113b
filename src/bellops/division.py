"""Division of an operator L by the first-order factor L_s = D - s.

Right division L = M L_s + r has the closed solution

    r = sum_n a_n B_n(s),        M = sum_{n>=1} a_n H_{n-1},

so both depend on the Bell table alone (M_k = sum_{n>k} a_n B_{n-1,n-1-k}); r and
each M_k are one sum of products (:func:`bellops.operators.dot`).
Left division L = L_s M^+ + r^+ is solved by the backward recursion

    b_{N-1} = a_N,   b_n = a_{n+1} - L_s(b_{n+1}),   r^+ = a_0 - L_s(b_0),

where L_s(u) = Du - s u acts on coefficients.  Every call certifies its answer
by the defining identity L_s o M^+ + r^+ == L, composed through
:meth:`DiffOperator.compose`, which shares no code with the recursion's
``ls_apply``.  Vanishing remainders are exactly the generalized Riccati
conditions for one-sided factorization.  Every check here, this one and
:func:`factor_from_kernel`'s three, fails through :func:`bellops.operators.certify`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bell import BellTable
from .errors import ConsistencyError, IndexRangeError, KernelPremiseViolatedError
from .jets import MatrixJet, log_derivative
from .operators import DiffOperator, certify, dot, ls_apply, make_ls


@dataclass
class DivisionOutcome:
    """Quotient and remainder of a one-sided division, with the side tag."""

    quotient: DiffOperator
    remainder: object
    side: str
    exact: bool


def _require_divisible(L: DiffOperator):
    if L.order < 1:
        raise IndexRangeError("division needs an operator of order >= 1")


def divide_right(L: DiffOperator, s, table: BellTable = None) -> DivisionOutcome:
    """Split L as (quotient o L_s) + remainder."""
    _require_divisible(L)
    table = table or BellTable(s)
    n_top = L.order
    remainder = _right_remainder(L, table)
    coeffs = [dot((L.coeff(n), table.gen(n - 1, n - 1 - k)) for n in range(k + 1, n_top + 1))
              for k in range(n_top)]
    quotient = DiffOperator(coeffs, L.realization)
    return DivisionOutcome(quotient, remainder, "right", remainder.is_zero())


def _right_remainder(L: DiffOperator, table: BellTable):
    """r = sum_n a_n B_n(s)."""
    return dot((L.coeff(n), table.left(n)) for n in range(L.order + 1))


def divide_left(L: DiffOperator, s) -> DivisionOutcome:
    """Split L as (L_s o quotient) + remainder, certified by composing back."""
    _require_divisible(L)
    n_top = L.order
    b = [None] * n_top
    b[n_top - 1] = L.coeff(n_top)
    for n in range(n_top - 2, -1, -1):
        b[n] = L.coeff(n + 1) - ls_apply(b[n + 1], s)
    remainder = L.coeff(0) - ls_apply(b[0], s)
    quotient = DiffOperator(b, L.realization)
    # certificate on a route without ls_apply: compose pushes D (_push_d) and sums (dot)
    certify(make_ls(s).compose(quotient) + DiffOperator([remainder], L.realization), L,
            ConsistencyError, "left division fails L_s o M^+ + r^+ == L")
    return DivisionOutcome(quotient, remainder, "left", remainder.is_zero())


def riccati_residual(L: DiffOperator, s, side: str, table: BellTable = None):
    """Remainder of the chosen one-sided division.

    On the right it is the Bell sum, computed without the quotient; on the left
    it is the remainder of the certified :func:`divide_left`.  The residual
    vanishes exactly when L factors through L_s on that side, i.e. when s
    solves the corresponding generalized Riccati equation.
    """
    _require_divisible(L)
    if side == "right":
        return _right_remainder(L, table or BellTable(s))
    if side == "left":
        return divide_left(L, s).remainder
    raise ValueError("side must be 'left' or 'right'")


def factor_from_kernel(L: DiffOperator, phi: MatrixJet, side: str):
    """Build the factor element s from a kernel element phi and divide.

    side='right': requires L(phi) = 0 on the valid range; then s = phi' phi^{-1}
    and the right division of L by L_s is exact.  side='left': s = -phi^{-1} phi'
    and exactness of the left division is verified directly (the only
    oracle-checkable direction for this side).
    """
    if side == "right":
        certify(L.apply(phi), phi.zero_like(), KernelPremiseViolatedError,
                "phi is not annihilated by L on the valid range")
        divide, error, message = (divide_right, ConsistencyError,
                                  "kernel element produced a nonzero right-division remainder")
    else:
        divide, error, message = (divide_left, KernelPremiseViolatedError,
                                  "phi does not witness an exact left factorization of L")
    s = log_derivative(phi, side)  # refuses any other side
    outcome = divide(L, s)
    certify(outcome.remainder, outcome.remainder.zero_like(), error, message)
    return s, outcome
