"""Matrix-valued truncated power series: the analytic ring realization.

A :class:`Jet` stores the rational coefficients of x^0..x^J, as integer
numerators over one common denominator, together with its valid order J.
``order=None`` marks an *exact* polynomial: every coefficient beyond the
stored ones is identically zero, so no operation can exhaust it.
Binary operations are valid to the minimum of the operand orders and
differentiation costs one order; both rules are enforced, never silently bent.

:class:`BiJet` is the two-variable analogue (x and t, commuting partials),
held as a truncated series in t whose coefficients ("t-levels") are x-jets of
one shared x-order: the x-order rules above live only in :class:`Jet`, and
bi-jet operations other than the product are level-wise maps over jet operations.
:class:`MatrixJet` wraps a square matrix of jets (or bi-jets) sharing one set
of orders and provides the ring operations, the involution
``a*(x) = a(-x)^T`` and series inversion.  A jet answers the bi-jet interface
as a bi-jet with one exact t-level, so every matrix operation has one path for
both kinds.  A bi-jet matrix splits into its t-levels, x-jet matrices that
share the entries' jets without copying; inversion is Newton iteration in x on
the t^0 level, then a recurrence over the higher t-levels (none for jets).

Every product, of jets, bi-jets or matrices of either, is one integer matrix
product (:func:`_product`): each operand entry becomes one coefficient sequence
over one denominator per operand, a bi-jet's t-levels side by side.  A matrix
product packs each operand entry once, into one big integer, and unpacks each
output entry once (:mod:`bellops.intpoly`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    PrecisionExhaustedError,
    RealizationMismatchError,
    SingularConstantTermError,
    UnsupportedRealizationError,
)
from .intpoly import matmul


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an integer or Fraction, got {type(v).__name__}")


def _omin(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """min of two orders where None means 'exact' (infinite order)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# -- products ------------------------------------------------------------------------


def _flatten(grid, nx: Optional[int], stride: int):
    """Integer coefficient lists over one denominator for a grid of t-level tuples:
    x^i t^j (i < nx) goes to slot ``j * stride + i``; trailing zeros are dropped."""
    den = lcm(*(lv.den for row in grid for levels in row for lv in levels))
    flat = []
    for row in grid:
        flat.append([])
        for levels in row:
            cs = []
            for j, lv in enumerate(levels):
                cs += [0] * (j * stride - len(cs))
                f = den // lv.den
                cs += lv.nums[:nx] if f == 1 else [v * f for v in lv.nums[:nx]]
            while cs and not cs[-1]:
                cs.pop()
            flat[-1].append(cs)
    return flat, den


def _product(a, b, xo: Optional[int], to: Optional[int]) -> list:
    """The entries of ``a b``, for square grids of jets or bi-jets: jets at x-order
    ``xo`` when both grids hold jets, otherwise bi-jets at orders ``(xo, to)``.

    With ``stride = Lx_a + Lx_b - 1`` for the longest x-levels of each side, every
    x-product of two t-levels fits in one stride, so laying t-level j out from
    slot ``j * stride`` makes a bivariate product a univariate one.
    """
    nx = None if xo is None else xo + 1
    nt = None if to is None else to + 1
    ga, gb = ([[v.levels[:nt] for v in row] for row in g] for g in (a, b))
    la, lb = (max(len(lv.nums[:nx]) for row in g for levels in row for lv in levels)
              for g in (ga, gb))
    ta, tb = (max(len(levels) for row in g for levels in row) for g in (ga, gb))
    stride = la + lb - 1
    lt = ta + tb - 1 if nt is None else min(ta + tb - 1, nt)
    w = stride if nx is None else min(stride, nx)
    (fa, da), (fb, db) = _flatten(ga, nx, stride), _flatten(gb, nx, stride)
    flat = matmul(fa, fb, (lt - 1) * stride + w)
    if isinstance(a[0][0], Jet) and isinstance(b[0][0], Jet):
        return [[Jet._of(cs[:w], da * db, xo) for cs in row] for row in flat]
    return [[BiJet._of([Jet._of(cs[j * stride:j * stride + w], da * db, xo) for j in range(lt)],
                       xo, to) for cs in row] for row in flat]


class Jet:
    """Truncated power series in one variable with exact coefficients.

    The coefficient of x^k is ``nums[k] / den``: integer numerators over one
    positive denominator, in lowest terms (``gcd(den, *nums) == 1``), so equal
    exact jets have equal ``(nums, den)``.  Fractions appear only at the API
    boundary (the constructor, :meth:`at` and :attr:`coeffs`).

    A jet also answers the bi-jet interface (:attr:`x_order`, :attr:`t_order`,
    :attr:`levels`, :meth:`truncate`) as a bi-jet with one exact t-level.
    """

    __slots__ = ("nums", "den", "order")
    t_order = None

    def __init__(self, coeffs: Iterable, order: Optional[int] = None):
        if order is not None and order < 0:
            raise ValueError("jet order must be >= 0")
        cs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den, order)

    def _set(self, nums: list, den: int, order: Optional[int]):
        if order is None:
            k = len(nums)
            while k > 1 and not nums[k - 1]:
                k -= 1
            nums = nums[:k] or [0]
        else:
            nums = nums[: order + 1] + [0] * (order + 1 - len(nums))
        g = gcd(den, *nums)
        if g != 1:
            nums = [v // g for v in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den
        self.order = order

    @classmethod
    def _of(cls, nums: list, den: int, order: Optional[int]) -> "Jet":
        """Jet of ``nums / den`` at ``order``; reduces, pads and truncates."""
        j = cls.__new__(cls)
        j._set(nums, den, order)
        return j

    @classmethod
    def constant(cls, value) -> "Jet":
        return cls((_frac(value),), None)

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients of x^0, x^1, ... as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    def at(self, k: int) -> Fraction:
        """Coefficient of x^k; beyond storage only exact jets may answer."""
        if k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        if self.order is None:
            return Fraction(0)
        raise PrecisionExhaustedError(f"coefficient x^{k} beyond valid order {self.order}")

    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def x_order(self) -> Optional[int]:
        return self.order

    @property
    def levels(self) -> tuple:
        return (self,)

    def truncate(self, order: Optional[int], t_order: Optional[int] = None) -> "Jet":
        """Truncate to x-order ``order``; a t-order is ignored (the t-axis is exact)."""
        if order == self.order:
            return self
        if order is None:
            raise PrecisionExhaustedError("cannot promote a finite-order jet to exact")
        if self.order is not None and order > self.order:
            raise PrecisionExhaustedError(
                f"cannot extend valid order {self.order} to {order}"
            )
        return Jet._of(list(self.nums), self.den, order)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Jet.constant(other)
        if not isinstance(other, Jet):
            return NotImplemented
        o = _omin(self.order, other.order)
        n = max(len(self.nums), len(other.nums)) if o is None else o + 1
        a, b = self.nums[:n], other.nums[:n]
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            a = [v * (db // g) for v in a]
            b = [v * (da // g) for v in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        return Jet._of([v + w for v, w in zip(a, b)] + list(a[len(b):]), da, o)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Jet)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet._of([-v for v in self.nums], self.den, self.order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            nums = [v * q.numerator for v in self.nums]
            return Jet._of(nums, self.den * q.denominator, self.order)
        if not isinstance(other, Jet):
            return NotImplemented
        return _product([[self]], [[other]], _omin(self.order, other.order), None)[0][0]

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def d(self) -> "Jet":
        if self.order == 0:
            raise PrecisionExhaustedError("derivative of an order-0 jet")
        o = None if self.order is None else self.order - 1
        return Jet._of([k * v for k, v in enumerate(self.nums) if k], self.den, o)

    def reflect(self) -> "Jet":
        """x -> -x: flip the sign of odd coefficients."""
        return Jet._of([-v if k % 2 else v for k, v in enumerate(self.nums)], self.den, self.order)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Jet.constant(other)
        if not isinstance(other, Jet):
            return NotImplemented
        o = _omin(self.order, other.order)
        if o is None:
            return self.nums == other.nums and self.den == other.den
        # only an exact operand can store fewer than o + 1 coefficients
        a, b = self.nums[: o + 1], other.nums[: o + 1]
        a += (0,) * (o + 1 - len(a))
        b += (0,) * (o + 1 - len(b))
        da, db = self.den, other.den
        return all(v * db == w * da for v, w in zip(a, b))

    __hash__ = None

    def __repr__(self):
        return f"Jet({[str(c) for c in self.coeffs]}, order={self.order})"


class BiJet:
    """Truncated series in t whose coefficients are x-jets of one shared x-order.

    ``levels[j]`` is the x-jet multiplying t^j.  The x-order rules live in
    :class:`Jet`; this class adds only the t-axis ones: binary operations are
    valid to the minimum t-order, ``dt`` costs one t-order, and an exact t-axis
    (``t_order=None``) keeps no trailing zero levels.
    """

    __slots__ = ("levels", "x_order", "t_order")

    def __init__(self, rows, x_order: Optional[int] = None, t_order: Optional[int] = None):
        """``rows[i][j]`` is the coefficient of x^i t^j."""
        if t_order is not None and t_order < 0:
            raise ValueError("t-order must be >= 0")
        rows = [list(r) for r in rows]
        nt = max([len(r) for r in rows] + [1])
        levels = [Jet([r[j] if j < len(r) else 0 for r in rows], x_order) for j in range(nt)]
        self._set(levels, x_order, t_order)

    def _set(self, levels: list, x_order: Optional[int], t_order: Optional[int]):
        if t_order is None:
            while len(levels) > 1 and levels[-1].is_zero():
                levels.pop()
        else:
            del levels[t_order + 1:]
            levels += [Jet((0,), x_order)] * (t_order + 1 - len(levels))
        self.levels = tuple(levels)
        self.x_order = x_order
        self.t_order = t_order

    @classmethod
    def _of(cls, levels: list, x_order: Optional[int], t_order: Optional[int]) -> "BiJet":
        """Bi-jet over ``levels``, which must all have x-order ``x_order``."""
        b = cls.__new__(cls)
        b._set(levels, x_order, t_order)
        return b

    @classmethod
    def from_jet(cls, jet: Jet) -> "BiJet":
        """Embed an x-jet as a t-constant bi-jet (exactly known in t)."""
        return cls._of([jet], jet.order, None)

    @classmethod
    def constant(cls, value) -> "BiJet":
        return cls.from_jet(Jet.constant(value))

    @property
    def coeffs(self):
        """x-major grid: ``coeffs[i][j]`` is the coefficient of x^i t^j."""
        nx = max(len(lv.nums) for lv in self.levels)
        return tuple(tuple(lv.at(i) for lv in self.levels) for i in range(nx))

    def level(self, j: int) -> Jet:
        """The x-jet multiplying t^j; beyond storage only an exact t-axis may answer."""
        if j < len(self.levels):
            return self.levels[j]
        if self.t_order is not None:
            raise PrecisionExhaustedError(f"t^{j} beyond valid t-order {self.t_order}")
        return Jet((0,), self.x_order)

    def at(self, i: int, j: int) -> Fraction:
        return self.level(j).at(i)

    def is_zero(self) -> bool:
        return all(lv.is_zero() for lv in self.levels)

    def truncate(self, x_order: Optional[int], t_order: Optional[int]) -> "BiJet":
        mine = self.t_order
        if t_order is None and mine is not None:
            raise PrecisionExhaustedError("cannot promote a finite t-order to exact")
        if None not in (t_order, mine) and t_order > mine:
            raise PrecisionExhaustedError(f"cannot extend valid t-order {mine} to {t_order}")
        if (x_order, t_order) == (self.x_order, self.t_order):
            return self
        return BiJet._of([lv.truncate(x_order) for lv in self.levels], x_order, t_order)

    @staticmethod
    def _operand(other):
        """``other`` as a bi-jet, or None when it is not a series value."""
        if isinstance(other, (int, Fraction)):
            return BiJet.constant(other)
        if isinstance(other, Jet):
            return BiJet.from_jet(other)
        return other if isinstance(other, BiJet) else None

    def __add__(self, other):
        other = BiJet._operand(other)
        if other is None:
            return NotImplemented
        xo, to = _omin(self.x_order, other.x_order), _omin(self.t_order, other.t_order)
        n = max(len(self.levels), len(other.levels)) if to is None else to + 1
        return BiJet._of([self.level(j) + other.level(j) for j in range(n)], xo, to)

    __radd__ = __add__

    def __sub__(self, other):
        other = BiJet._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return BiJet._of([-lv for lv in self.levels], self.x_order, self.t_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiJet._of([lv * other for lv in self.levels], self.x_order, self.t_order)
        other = BiJet._operand(other)
        if other is None:
            return NotImplemented
        xo, to = _omin(self.x_order, other.x_order), _omin(self.t_order, other.t_order)
        return _product([[self]], [[other]], xo, to)[0][0]

    __rmul__ = __mul__

    def dx(self) -> "BiJet":
        levels = [lv.d() for lv in self.levels]
        return BiJet._of(levels, levels[0].order, self.t_order)

    d = dx

    def dt(self) -> "BiJet":
        if self.t_order == 0:
            raise PrecisionExhaustedError("t-derivative of a t-order-0 bi-jet")
        to = None if self.t_order is None else self.t_order - 1
        levels = [lv * j for j, lv in enumerate(self.levels) if j] or [Jet((0,), self.x_order)]
        return BiJet._of(levels, self.x_order, to)

    def reflect(self) -> "BiJet":
        """x -> -x (t untouched)."""
        return BiJet._of([lv.reflect() for lv in self.levels], self.x_order, self.t_order)

    def __eq__(self, other):
        other = BiJet._operand(other)
        if other is None:
            return NotImplemented
        to = _omin(self.t_order, other.t_order)
        n = max(len(self.levels), len(other.levels)) if to is None else to + 1
        return all(self.level(j) == other.level(j) for j in range(n))

    __hash__ = None

    def __repr__(self):
        return f"BiJet(x_order={self.x_order}, t_order={self.t_order})"


# -- exact rational matrix helpers ------------------------------------------------


def _mat_inv(a):
    """Gauss-Jordan inverse over Fraction; raises on singular input."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularConstantTermError("constant coefficient matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [rv - factor * cv for rv, cv in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class MatrixRealization:
    """Tag identifying the matrix-series realization of a given dimension."""

    dim: int

    @property
    def one(self) -> "MatrixJet":
        return MatrixJet.identity(self.dim)

    @property
    def zero(self) -> "MatrixJet":
        return MatrixJet.zeros(self.dim)


class MatrixJet:
    """Square matrix of jets (or bi-jets) sharing one set of valid orders."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise ValueError("entries must form a non-empty square grid")
        kinds = {type(v) for row in grid for v in row}
        if not kinds <= {Jet, BiJet}:
            raise TypeError("entries must all be Jet or BiJet values")
        if len(kinds) == 2:  # a jet among bi-jets is embedded t-constant
            grid = [[BiJet.from_jet(v) if type(v) is Jet else v for v in row] for row in grid]
        xo = to = None
        for row in grid:
            for v in row:
                xo, to = _omin(xo, v.x_order), _omin(to, v.t_order)
        self.dim = n
        self.entries = tuple(tuple(v.truncate(xo, to) for v in row) for row in grid)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "MatrixJet":
        return cls.diagonal(Jet.constant(1), dim)

    @classmethod
    def zeros(cls, dim: int) -> "MatrixJet":
        return cls.diagonal(Jet.constant(0), dim)

    @classmethod
    def constant(cls, matrix) -> "MatrixJet":
        return cls([[Jet.constant(v) for v in row] for row in matrix])

    @classmethod
    def scalar(cls, jet: Jet) -> "MatrixJet":
        return cls([[jet]])

    @classmethod
    def diagonal(cls, jet: Jet, dim: int) -> "MatrixJet":
        zero = Jet((0,), jet.order)
        return cls([[jet if i == j else zero for j in range(dim)] for i in range(dim)])

    # -- realization plumbing ------------------------------------------------------

    @property
    def realization(self) -> MatrixRealization:
        return MatrixRealization(self.dim)

    @property
    def kind(self) -> str:
        return "bijet" if isinstance(self.entries[0][0], BiJet) else "jet"

    @property
    def x_order(self) -> Optional[int]:
        return self.entries[0][0].x_order

    @property
    def t_order(self) -> Optional[int]:
        return self.entries[0][0].t_order

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def one_like(self) -> "MatrixJet":
        return MatrixJet.identity(self.dim)

    def zero_like(self) -> "MatrixJet":
        return MatrixJet.zeros(self.dim)

    def _pair(self, other: "MatrixJet"):
        if not isinstance(other, MatrixJet):
            raise RealizationMismatchError("expected a MatrixJet operand")
        if other.dim != self.dim:
            raise RealizationMismatchError(
                f"matrix dimensions differ: {self.dim} vs {other.dim}"
            )

    def promote(self) -> "MatrixJet":
        """Embed a jet-kind matrix as a t-constant bi-jet matrix."""
        if self.kind == "bijet":
            return self
        return MatrixJet([[BiJet.from_jet(v) for v in row] for row in self.entries])

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        self._pair(other)
        return MatrixJet(
            [[v + w for v, w in zip(row, orow)] for row, orow in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatrixJet([[-v for v in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MatrixJet([[v * other for v in row] for row in self.entries])
        self._pair(other)
        xo, to = _omin(self.x_order, other.x_order), _omin(self.t_order, other.t_order)
        return MatrixJet(_product(self.entries, other.entries, xo, to))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def d(self) -> "MatrixJet":
        return MatrixJet([[v.d() for v in row] for row in self.entries])

    def d0(self) -> "MatrixJet":
        if self.kind == "jet":
            raise UnsupportedRealizationError(
                "d0 needs the two-variable realization; promote to bi-jets first"
            )
        return MatrixJet([[v.dt() for v in row] for row in self.entries])

    def star(self) -> "MatrixJet":
        """Involution: transpose and reflect the series argument (x -> -x)."""
        return MatrixJet(
            [[self.entries[j][i].reflect() for j in range(self.dim)] for i in range(self.dim)]
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)

    def __eq__(self, other):
        if not isinstance(other, MatrixJet):
            return NotImplemented
        if other.dim != self.dim:
            return False
        return all(v == w for row, orow in zip(self.entries, other.entries)
                   for v, w in zip(row, orow))

    __hash__ = None

    def truncate(self, x_order: Optional[int], t_order: Optional[int] = None) -> "MatrixJet":
        return MatrixJet([[v.truncate(x_order, t_order) for v in row] for row in self.entries])

    # -- series inversion ------------------------------------------------------------

    def invert(self) -> "MatrixJet":
        """Multiplicative inverse to the stored truncation orders.

        The constant (x=0, t=0) matrix must be invertible.  The t^0 level A_0 is
        inverted in x: exact inputs must be constant there (a non-constant
        polynomial has no polynomial inverse, so a finite x-order is required
        first); finite x-orders use Newton iteration X <- X(2I - A_0 X) from the
        inverse of the constant matrix, doubling the valid order at each step.
        The higher t-levels follow from X_m = -X_0 sum_{j=1..m} A_j X_{m-j}; a
        jet matrix has none, and an exact t-axis must have none.
        """
        levels = self.t_levels()
        a0 = levels[0]
        if self.x_order is None and any(len(v.nums) > 1 for row in a0.entries for v in row):
            raise PrecisionExhaustedError(
                "inverting a non-constant exact series needs a finite truncation order"
            )
        const = [[v.at(0) for v in row] for row in a0.entries]
        x, k = MatrixJet.constant(_mat_inv(const)).truncate(self.x_order), 0
        two = MatrixJet.identity(self.dim) * 2
        while self.x_order is not None and k < self.x_order:
            k2 = min(2 * k + 1, self.x_order)
            # X ≡ A⁻¹ mod x^{k+1} implies X(2I − AX) ≡ A⁻¹ mod x^{2k+2}, so the
            # iterate, valid to order k, is lifted to order k2 <= 2k + 1 here:
            # the one place the order ledger is extended.
            x = MatrixJet([[Jet._of(list(v.nums), v.den, k2) for v in row] for row in x.entries])
            x = x * (two - a0.truncate(k2) * x)
            k = k2
        if self.t_order is None and len(levels) > 1:
            raise PrecisionExhaustedError(
                "inverting a t-dependent exact series needs a finite t-order"
            )
        if self.kind == "jet":
            return x
        out = [x]
        for m in range(1, len(levels)):
            acc = levels[1] * out[m - 1]
            for j in range(2, m + 1):
                acc = acc + levels[j] * out[m - j]
            out.append(-(x * acc))
        return MatrixJet.from_t_levels(out, self.t_order)

    def t_levels(self):
        """The x-jet matrices multiplying each power of t (just ``[self]`` for jets)."""
        if self.kind == "jet":
            return [self]
        n = max(len(v.levels) for row in self.entries for v in row)
        return [MatrixJet([[v.level(m) for v in row] for row in self.entries]) for m in range(n)]

    @staticmethod
    def from_t_levels(levels: Sequence["MatrixJet"], t_order: Optional[int]) -> "MatrixJet":
        """Assemble a bi-jet matrix from per-t-power x-jet matrices."""
        xo = None
        for lv in levels:
            xo = _omin(xo, lv.x_order)
        levels = [lv.truncate(xo) for lv in levels]
        dim = levels[0].dim
        return MatrixJet(
            [
                [BiJet._of([lv.entries[i][j] for lv in levels], xo, t_order) for j in range(dim)]
                for i in range(dim)
            ]
        )

    def __repr__(self):
        return f"MatrixJet(dim={self.dim}, kind={self.kind}, x_order={self.x_order}, t_order={self.t_order})"


def log_derivative(phi: MatrixJet, side: str) -> MatrixJet:
    """phi' phi^{-1} for ``side='right'`` (then D phi = s phi), or
    -phi^{-1} phi' for ``side='left'`` (then D phi = -phi s)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    inv = phi.invert()
    if side == "right":
        return phi.d() * inv
    return -(inv * phi.d())


def x_jet(order: Optional[int] = None) -> Jet:
    return Jet((0, 1), order)


def exp_jet(rate, order: int) -> Jet:
    """Truncation of exp(rate*x) to the given order; coefficients rate^k/k!."""
    rate = _frac(rate)
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * rate / k)
    return Jet(coeffs, order)
