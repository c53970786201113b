"""Darboux transforms, intertwining checks and the generalized Burgers flow.

The transform by the factor element s swaps the factors of the right
division L = M o L_s + r:

    Ltilde = L_s o M + r,

which keeps the order and the leading coefficient and satisfies the t-free
intertwining identity  L_s o L - Ltilde o L_s = Dr + [r, s].  That same order-0
value is the right-hand side of the generalized Burgers equation for s, also
computable term by term as sum_n ( (Da_n - s a_n) B_n + a_n B_{n+1} ).
Every check of these identities fails through :func:`bellops.operators.certify`.

For two-variable checks, :func:`time_propagate` integrates d_t phi = L phi as
a formal Taylor series in t (each t-level costs order(L) x-orders), and
:func:`matveev_verify` runs the full wavefunction-transform consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bell import BellTable
from .division import divide_right
from .errors import (
    ConsistencyError,
    DefectNotScalarError,
    IndexRangeError,
    InsufficientOrderError,
    UnsupportedRealizationError,
)
from .jets import MatrixJet, log_derivative
from .operators import DiffOperator, certify, dot, ls_apply, make_ls


@dataclass
class DarbouxOutcome:
    """Transformed operator plus the identities that certify it."""

    transformed: DiffOperator
    remainder: object
    intertwine_defect: object
    burgers_rhs: object


@dataclass
class MatveevReport:
    """Residuals of the wavefunction-transform consistency check."""

    s: MatrixJet
    transformed: DiffOperator
    psi_tilde: MatrixJet
    residual: MatrixJet
    burgers_residual: MatrixJet
    ok: bool


def darboux_transform(L: DiffOperator, s) -> DarbouxOutcome:
    """Build the transformed operator and verify its defining identities."""
    if L.order < 1:
        raise IndexRangeError("the transform needs an operator of order >= 1")
    table = BellTable(s)
    division = divide_right(L, s, table)
    remainder = division.remainder
    # the Burgers sum needs B_(N+1), the largest Bell entry: built before the
    # transform, it meets a free-ring term budget before the costlier steps do
    rhs = burgers_rhs(L, s, table)
    lsm = make_ls(s).compose(division.quotient).coeffs
    transformed = DiffOperator((lsm[0] + remainder,) + lsm[1:], L.realization)
    defect = intertwine_defect(L, transformed, s)
    expected = remainder.d() + (remainder * s - s * remainder)
    certify(defect, expected, ConsistencyError, "intertwine defect does not equal Dr + [r, s]")
    certify(rhs, expected, ConsistencyError, "Burgers right-hand side does not equal Dr + [r, s]")
    return DarbouxOutcome(transformed, remainder, defect, rhs)


def intertwine_defect(L: DiffOperator, Ltilde: DiffOperator, s):
    """Order-0 coefficient of L_s o L - Ltilde o L_s.  A difference of positive
    order signals a wrong transformed operator and raises: L_s o L must equal
    Ltilde o L_s with its D^0 coefficient swapped for that of L_s o L."""
    ls = make_ls(s)
    left, right = ls.compose(L), Ltilde.compose(ls)
    certify(left, DiffOperator((left.coeff(0),) + right.coeffs[1:], L.realization),
            DefectNotScalarError, "intertwining discrepancy L_s o L - Ltilde o L_s is not scalar")
    return left.coeff(0) - right.coeff(0)


def burgers_rhs(L: DiffOperator, s, table: BellTable = None):
    """Right-hand side of the generalized Burgers equation for s under L.

    The zero operator gives the zero of s's kind and orders, as its terms would.
    """
    if L.is_zero():
        return s * 0
    table = table or BellTable(s)

    def terms():
        for n, a_n in enumerate(L.coeffs):
            yield ls_apply(a_n, s), table.left(n)
            yield a_n, table.left(n + 1)

    return dot(terms())


# wavefunction transform psi -> D psi - s psi
matveev_psi = ls_apply


def transformed_coefficients(L: DiffOperator, s) -> DiffOperator:
    """Transformed operator assembled coefficient by coefficient.

        a_N[1] = a_N
        a_k[1] = sum_{n=k}^{N} ( a_n B_{n,n-k} + (Da_n - s a_n) B_{n-1,n-1-k} )

    with B_{m,j} = 0 whenever the indices leave 0 <= j <= m, which only the
    second part of the n = k term does (index -1).
    """
    if L.order < 1:
        raise IndexRangeError("the transform needs an operator of order >= 1")
    table = BellTable(s)
    n_top = L.order
    ls_a = [ls_apply(L.coeff(n), s) for n in range(n_top + 1)]

    def terms(k):
        yield L.coeff(k), table.gen(k, 0)
        for n in range(k + 1, n_top + 1):
            yield L.coeff(n), table.gen(n, n - k)
            yield ls_a[n], table.gen(n - 1, n - 1 - k)

    coeffs = [dot(terms(k)) for k in range(n_top)] + [L.coeff(n_top)]
    return DiffOperator(coeffs, L.realization)


def time_propagate(L: DiffOperator, phi0: MatrixJet, t_order: int) -> MatrixJet:
    """Taylor-in-t solution of d_t phi = L phi with phi(x, 0) = phi0.

    Level m+1 is L(level m)/(m+1); each level costs order(L) x-orders, so a
    finite starting order J must satisfy J >= order(L) * t_order.
    """
    if t_order < 0:
        raise IndexRangeError("t-order must be >= 0")
    if not isinstance(phi0, MatrixJet) or phi0.kind != "jet":
        raise UnsupportedRealizationError("initial data must be a one-variable matrix jet")
    for c in L.coeffs:
        if not isinstance(c, MatrixJet) or c.kind != "jet":
            raise UnsupportedRealizationError(
                "propagation needs time-independent one-variable jet coefficients"
            )
    n_op = max(L.order, 0)
    if phi0.x_order is not None and phi0.x_order < n_op * t_order:
        raise InsufficientOrderError(
            f"x-order {phi0.x_order} cannot support t-order {t_order} "
            f"under an order-{n_op} operator (needs >= {n_op * t_order})"
        )
    levels = [phi0]
    for m in range(t_order):
        levels.append(L.apply(levels[m]) * Fraction(1, m + 1))
    return MatrixJet.from_t_levels(levels, t_order)


def matveev_verify(
    L: DiffOperator, phi0: MatrixJet, psi0: MatrixJet, t_order: int
) -> MatveevReport:
    """End-to-end check of the wavefunction transform.

    Propagates phi and psi, forms s = phi' phi^{-1} level by level, builds the
    transformed operator and returns the residuals d_t(psi~) - Ltilde(psi~)
    and d_t(s) - burgers_rhs(L, s); both must vanish on the jointly valid
    range.
    """
    phi = time_propagate(L, phi0, t_order)
    psi = time_propagate(L, psi0, t_order)
    s = log_derivative(phi, "right")
    # the transform has certified its Burgers RHS against Dr + [r, s]
    outcome = darboux_transform(L, s)
    transformed = outcome.transformed
    psi_tilde = matveev_psi(psi, s)
    residual = psi_tilde.d0() - transformed.apply(psi_tilde)
    burgers_residual = s.d0() - outcome.burgers_rhs
    ok = residual.is_zero() and burgers_residual.is_zero()
    return MatveevReport(s, transformed, psi_tilde, residual, burgers_residual, ok)
