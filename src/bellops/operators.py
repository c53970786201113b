"""Linear differential operators over a ring realization.

An operator is a finite coefficient list a_0..a_N acting as sum(a_n D^n);
coefficients always multiply powers of D from the left.  Composition and the
Bell rows push D through an operator one power at a time (:func:`_push_d`),
which sums to the Leibniz expansion D^k b = sum_i C(k, i) (D^(k-i) b) D^i.
Every sum of ring products here (each composed coefficient, an applied
operator, and the Bell-weighted sums of the divisions and the transform) is
one call of :func:`dot`: one packed integer matrix product for matrix jets, the
products added in pair order for the free ring.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add

from .errors import RealizationMismatchError
from .free import FreeElement, _joined
from .jets import MatrixJet, _sum_of_products


class DiffOperator:
    """Immutable differential operator; the zero operator has order -1."""

    __slots__ = ("coeffs", "realization")

    def __init__(self, coeffs, realization=None):
        coeffs = list(coeffs)
        if realization is None:
            if not coeffs:
                raise ValueError("a realization is required for the empty operator")
            realization = coeffs[0].realization
        for c in coeffs:
            if c.realization != realization:
                raise RealizationMismatchError("operator coefficients mix realizations")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.realization = realization

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.realization.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "DiffOperator"):
        if not isinstance(other, DiffOperator):
            raise RealizationMismatchError("expected a DiffOperator operand")
        if other.realization != self.realization:
            raise RealizationMismatchError("operators live over different realizations")

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOperator((self.coeff(k) + other.coeff(k) for k in range(n)), self.realization)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOperator((self.coeff(k) - other.coeff(k) for k in range(n)), self.realization)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator((-c for c in self.coeffs), self.realization)

    def scale(self, c) -> "DiffOperator":
        """Left-multiply every coefficient by c (ring element or scalar)."""
        if isinstance(c, (int, Fraction)):
            return DiffOperator(((a * c) for a in self.coeffs), self.realization)
        if c.realization != self.realization:
            raise RealizationMismatchError("scale factor lives over a different realization")
        return DiffOperator((c * a for a in self.coeffs), self.realization)

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator product self o other = sum_k a_k T_k, with T_0 = other and
        T_k = D o T_(k-1), which sums to the Leibniz closed form
        T_k = sum_m sum_i C(k, i) (D^(k-i) b_m) D^(i+m).  Coefficient m of the
        product is the one sum of products sum_k a_k T_k[m], k ascending (:func:`dot`)."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return DiffOperator([], self.realization)
        pushes = [list(other.coeffs)]
        for _ in self.coeffs[1:]:
            pushes.append(_push_d(pushes[-1]))
        return DiffOperator((dot((a, t[m]) for a, t in zip(self.coeffs, pushes) if m < len(t))
                             for m in range(len(pushes[-1]))), self.realization)

    def apply(self, phi):
        """Apply the operator to a ring element: sum a_n D^n(phi).  The zero
        operator gives the zero of phi's kind and orders, as its terms would."""
        if phi.realization != self.realization:
            raise RealizationMismatchError("element lives over a different realization")
        if self.is_zero():
            return phi * 0
        derivs = [phi]
        for _ in self.coeffs[1:]:
            derivs.append(derivs[-1].d())
        return dot(zip(self.coeffs, derivs))

    def mismatch(self, other: "DiffOperator"):
        """The lowest power of D whose coefficients differ on their jointly valid
        orders, or None when there is none."""
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return next((k for k in range(n) if not (self.coeff(k) == other.coeff(k))), None)

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self.realization == other.realization and self.mismatch(other) is None

    __hash__ = None

    def __str__(self) -> str:
        return _joined([_coeff_power_text(c, k) for k, c in reversed(list(enumerate(self.coeffs)))
                        if not c.is_zero()])

    def __repr__(self):
        return f"DiffOperator(order={self.order})"

    def to_file_text(self) -> str:
        """Render in the operator-file format, one `a[k] = expr` line per power."""
        lines = []
        for k in range(self.order, -1, -1):
            lines.append(f"a[{k}] = {self.coeff(k)}")
        return "\n".join(lines) + "\n" if lines else "a[0] = 0\n"


def _coeff_power_text(c, k):
    """(is_negative, text) for one `coeff * D^k` display piece."""
    d_part = "D" if k == 1 else f"D^{k}"
    one = c.one_like()
    if k == 0:
        if isinstance(c, FreeElement):
            return c.signed_text()
        return False, str(c)
    if c == one:
        return False, d_part
    if c == -one:
        return True, d_part
    if isinstance(c, FreeElement):
        neg, body = c.signed_text()
        if len(c.nums) > 1:
            return False, f"({body})*{d_part}"
        return neg, f"{body}*{d_part}"
    return False, f"({c})*{d_part}"


def _push_d(coeffs: list) -> list:
    """Coefficients of D o sum_m c_m D^m = sum_m (Dc_m + c_(m-1)) D^m, where the
    top c_M is carried, underived, to D^(M+1)."""
    return [coeffs[0].d()] + [c.d() + prev for prev, c in zip(coeffs, coeffs[1:])] + [coeffs[-1]]


def dot(pairs):
    """sum_p a_p b_p over the pairs ``(a_p, b_p)``, of which there is at least
    one: one packed product for matrix jets; other rings add the products in
    pair order."""
    pairs = list(pairs)
    if isinstance(pairs[0][0], MatrixJet):
        return _sum_of_products(pairs)
    return reduce(add, (a * b for a, b in pairs))


def certify(lhs, rhs, error, message: str):
    """Raise ``error(message)`` unless ``lhs == rhs``, naming for operators the lowest
    power of D whose coefficients differ (:meth:`DiffOperator.mismatch`)."""
    if isinstance(lhs, DiffOperator):
        k = lhs.mismatch(rhs)
        if k is not None:
            raise error(f"{message} at the coefficient of D^{k}")
    elif not (lhs == rhs):
        raise error(message)


def identity_operator(realization) -> DiffOperator:
    return DiffOperator((realization.one,), realization)


def d_power_operator(realization, n: int) -> DiffOperator:
    """The operator D^n."""
    if n < 0:
        raise ValueError("power must be >= 0")
    coeffs = [realization.zero] * n + [realization.one]
    return DiffOperator(coeffs, realization)


def make_ls(s) -> DiffOperator:
    """The elementary first-order factor D - s."""
    return DiffOperator((-s, s.one_like()), s.realization)


def ls_apply(u, s):
    """L_s(u) = Du - s u: the factor D - s applied to a ring element."""
    return u.d() - s * u
