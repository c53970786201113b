"""Linear differential operators over a ring realization.

An operator is a finite coefficient list a_0..a_N acting as sum(a_n D^n);
coefficients always multiply powers of D from the left.  Composition pushes
powers of D through coefficients with the Leibniz expansion
D^k b = sum_i C(k, i) (D^(k-i) b) D^i.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import RealizationMismatchError
from .free import FreeElement


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
        """Operator product self o other via the Leibniz push-through."""
        self._check(other)
        if self.is_zero() or other.is_zero():
            return DiffOperator([], self.realization)
        out = {}
        # cache successive derivatives of other's coefficients
        derivs = [[b] for b in other.coeffs]
        max_k = self.order
        for row in derivs:
            for _ in range(max_k):
                row.append(row[-1].d())
        for k, a in enumerate(self.coeffs):
            for m, _ in enumerate(other.coeffs):
                for i in range(k + 1):
                    term = a * derivs[m][k - i]
                    power = i + m
                    c = comb(k, i)
                    if c != 1:
                        term = term * Fraction(c)
                    prev = out.get(power)
                    out[power] = term if prev is None else prev + term
        n = max(out) + 1
        zero = self.realization.zero
        return DiffOperator((out.get(k, zero) for k in range(n)), self.realization)

    def apply(self, phi):
        """Apply the operator to a ring element: sum a_n D^n(phi)."""
        if phi.realization != self.realization:
            raise RealizationMismatchError("element lives over a different realization")
        if self.is_zero():
            return phi.zero_like()
        acc = self.coeffs[0] * phi
        deriv = phi
        for a in self.coeffs[1:]:
            deriv = deriv.d()
            acc = acc + a * deriv
        return acc

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.realization != other.realization:
            return False
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    __hash__ = None

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for k in range(self.order, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            pieces.append(_coeff_power_text(c, k))
        text = pieces[0][1] if not pieces[0][0] else "-" + pieces[0][1]
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

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
        if len(c.terms()) > 1:
            return False, f"({c.to_text()})*{d_part}"
        return neg, f"{body}*{d_part}"
    return False, f"({c})*{d_part}"


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
