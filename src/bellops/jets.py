"""Matrix-valued truncated power series: the analytic ring realization.

A :class:`MatrixJet` is a square matrix of series in x (or in x and t) with one
x-order and one t-order, stored as integer numerators over one positive
denominator ``den``, in lowest terms: ``nums[i][j][m]`` lists the numerators of
x^0, x^1, ... in the coefficient of t^m of entry (i, j).  A finite order n keeps
n + 1 of each; an exact axis (``None``) keeps no trailing zeros, so no operation
can exhaust it.  A jet-kind matrix has one exact t-level per entry.  Binary
operations are valid to the minimum of the operand orders and differentiation
costs one order; both rules are enforced, never silently bent.  An operation is
a comprehension over the grids and one ``gcd`` pass over its result; a sum of
products ``sum_p a_p b_p``, and so a single product, is one integer matrix
product (:func:`_sum_of_products` over :mod:`bellops.intpoly`).  Grids are
never mutated, so a matrix measures its grid once (:meth:`MatrixJet._statistics`)
and keeps each packing of its cells (:meth:`MatrixJet._packed`) for every later
product with the same slot width and layout; a product of jets cuts nothing, so
there a jet's pack depends on the slot width alone; a sum of jet products
may cut its first coefficients off (a middle product).  The kernel pays only
for operands that carry information: a pair with a constant operand ``c I``
(``L_s``'s leading unit, ``B_0``, the top of each quotient) is not multiplied
but adds ``c`` times the other operand into the sum, and an exact zero summand
gives the other operand back as it is, packs and statistics included.
Equality reads the two grids level by level on the jointly valid orders, each
scaled to the common denominator, and stops at the first difference; it builds
no difference matrix.  As no grid is ever written to, the exact units ``I`` and
``0`` are built once per dimension and shared (:meth:`MatrixJet.identity`,
:meth:`MatrixJet.zeros`).
Inversion is Newton iteration in x from a fraction-free inverse of the
constant term, each step forming only the coefficients not yet known, then a
recurrence over the higher t-levels, one sum of products per level.  :func:`log_derivative`
divides phi' by phi the Karp-Markstein way: it inverts phi only to half the
x-order, forms the quotient there and corrects it once by its residual, in a
short product, so no full-order inverse is built.

:class:`Jet` (x only) and :class:`BiJet` (t-levels that are x-jets of one
x-order) are API-boundary values: views of 1 x 1 matrices with no storage or
arithmetic of their own, which no package path computes through.  A jet
answers the bi-jet interface as one exact t-level.
"""

from __future__ import annotations

import operator
from operator import attrgetter, methodcaller
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    ConsistencyError,
    IndexRangeError,
    PrecisionExhaustedError,
    RealizationMismatchError,
    SingularConstantTermError,
    UnsupportedRealizationError,
)
from .intpoly import _schoolbook, pack_grid, packed_matmul, prefers_packing, slot_bytes


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


def _entrywise(op, *values):
    """``op`` on the 1 x 1 matrices of ``values``, read back as an entry; integers
    and Fractions scale under ``*`` and are exact constants otherwise.
    NotImplemented for other operands."""
    mats = []
    for v in values:
        if isinstance(v, (int, Fraction)) and op is not operator.mul:
            v = Jet.constant(v)
        if isinstance(v, (Jet, BiJet)):
            v = v._m
        elif not isinstance(v, (int, Fraction)):
            return NotImplemented
        mats.append(v)
    out = op(*mats)
    return _view(out) if isinstance(out, MatrixJet) else out


def _lifted(op, reflected: bool = False):
    """The series method ``self.op(*others)`` (``others.op(self)`` when reflected)."""
    if reflected:
        return lambda self, other: _entrywise(op, other, self)
    return lambda self, *others: _entrywise(op, self, *others)


def _view(m: "MatrixJet"):
    """The 1 x 1 matrix ``m`` as its entry: a :class:`Jet` or a :class:`BiJet`."""
    v = object.__new__(Jet if m.kind == "jet" else BiJet)
    v._m = m
    return v


def _coefficient(m: "MatrixJet", i: int, j: int) -> Fraction:
    """Coefficient of x^i t^j of the 1 x 1 matrix ``m``; beyond storage only an
    exact axis may answer."""
    if i < 0 or j < 0:
        raise IndexRangeError(f"coefficient indices must be >= 0, got x^{i} t^{j}")
    if m.t_order is not None and j > m.t_order:
        raise PrecisionExhaustedError(f"t^{j} beyond valid t-order {m.t_order}")
    if m.x_order is not None and i > m.x_order:
        raise PrecisionExhaustedError(f"coefficient x^{i} beyond valid order {m.x_order}")
    e = m.nums[0][0]
    return Fraction(e[j][i], m.den) if j < len(e) and i < len(e[j]) else Fraction(0)


class Jet:
    """Truncated power series in one variable with exact coefficients.

    A jet is a view of a 1 x 1 jet-kind :class:`MatrixJet`, ``_m``: the
    coefficient of x^k is ``nums[k] / den``, integer numerators over one positive
    denominator in lowest terms, so equal exact jets have equal ``(nums, den)``.
    Fractions appear only at the API boundary (the constructor, :meth:`at` and
    :attr:`coeffs`).

    A jet also answers the bi-jet interface (:attr:`x_order`, :attr:`t_order`,
    :attr:`levels`, :meth:`truncate`) as a bi-jet with one exact t-level.
    """

    __slots__ = ("_m",)
    t_order = None

    def __init__(self, coeffs: Iterable, order: Optional[int] = None):
        if order is not None and order < 0:
            raise ValueError("jet order must be >= 0")
        cs = [_frac(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs] or [0]
        if order is not None:
            nums = _fit(nums, order + 1)
        self._m = MatrixJet._of("jet", [[[nums]]], den, order, None)

    @classmethod
    def constant(cls, value) -> "Jet":
        return cls((_frac(value),), None)

    nums = property(lambda self: tuple(self._m.nums[0][0][0]))
    den = property(attrgetter("_m.den"))
    order = x_order = property(attrgetter("_m.x_order"))

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients of x^0, x^1, ... as Fractions."""
        return tuple(Fraction(v, self._m.den) for v in self._m.nums[0][0][0])

    def at(self, k: int) -> Fraction:
        """Coefficient of x^k; beyond storage only exact jets may answer."""
        return _coefficient(self._m, k, 0)

    def is_zero(self) -> bool:
        return self._m.is_zero()

    @property
    def levels(self) -> tuple:
        return (self,)

    def truncate(self, order: Optional[int], t_order: Optional[int] = None) -> "Jet":
        """Truncate to x-order ``order``; a t-order >= 0 is ignored (the t-axis is exact)."""
        return _entrywise(methodcaller("truncate", order, t_order), self)

    # arithmetic, d and reflect (x -> -x) are the matrix operations on 1 x 1 matrices
    __add__ = __radd__ = _lifted(operator.add)
    __sub__, __rsub__ = _lifted(operator.sub), _lifted(operator.sub, reflected=True)
    __mul__, __rmul__ = _lifted(operator.mul), _lifted(operator.mul, reflected=True)
    __neg__, __eq__ = _lifted(operator.neg), _lifted(operator.eq)
    d, reflect = _lifted(methodcaller("d")), _lifted(methodcaller("star"))
    star = reflect  # the star of a 1 x 1 matrix
    __hash__ = None

    def __repr__(self):
        return f"Jet({[str(c) for c in self.coeffs]}, order={self.order})"


class BiJet:
    """Truncated series in t whose coefficients are x-jets of one shared x-order.

    A bi-jet is a view of a 1 x 1 bi-jet-kind :class:`MatrixJet`, ``_m``;
    ``levels[j]`` is the x-jet multiplying t^j.  Binary operations are valid to
    the minimum orders on each axis, ``dx`` and ``dt`` each cost one order, and
    an exact t-axis (``t_order=None``) keeps no trailing zero levels.
    """

    __slots__ = ("_m",)

    def __init__(self, rows, x_order: Optional[int] = None, t_order: Optional[int] = None):
        """``rows[i][j]`` is the coefficient of x^i t^j."""
        if t_order is not None and t_order < 0:
            raise ValueError("t-order must be >= 0")
        rows = [list(r) for r in rows]
        nt = max([len(r) for r in rows] + [1])
        levels = [Jet([r[j] if j < len(r) else 0 for r in rows], x_order)._m for j in range(nt)]
        self._m = MatrixJet.from_t_levels(levels, t_order)

    @classmethod
    def from_jet(cls, jet: Jet) -> "BiJet":
        """Embed an x-jet as a t-constant bi-jet (exactly known in t)."""
        return _view(jet._m.promote())

    @classmethod
    def constant(cls, value) -> "BiJet":
        return cls.from_jet(Jet.constant(value))

    x_order, t_order = property(attrgetter("_m.x_order")), property(attrgetter("_m.t_order"))

    @property
    def levels(self) -> tuple:
        return tuple(map(self.level, range(len(self._m.nums[0][0]))))

    @property
    def coeffs(self):
        """x-major grid: ``coeffs[i][j]`` is the coefficient of x^i t^j."""
        e, den = self._m.nums[0][0], self._m.den
        nx = max(map(len, e))
        return tuple(tuple(Fraction(lv[i], den) if i < len(lv) else Fraction(0) for lv in e)
                     for i in range(nx))

    def level(self, j: int) -> Jet:
        """The x-jet multiplying t^j; beyond storage only an exact t-axis may answer."""
        m, e = self._m, self._m.nums[0][0]
        if j < 0:
            raise IndexRangeError(f"t-level index must be >= 0, got {j}")
        if m.t_order is not None and j > m.t_order:
            raise PrecisionExhaustedError(f"t^{j} beyond valid t-order {m.t_order}")
        lv = e[j] if j < len(e) else _zeros(m.x_order)
        return _view(MatrixJet._of("jet", [[[lv]]], m.den, m.x_order, None))

    def at(self, i: int, j: int) -> Fraction:
        return _coefficient(self._m, i, j)

    def is_zero(self) -> bool:
        return self._m.is_zero()

    def truncate(self, x_order: Optional[int], t_order: Optional[int]) -> "BiJet":
        return _entrywise(methodcaller("truncate", x_order, t_order), self)

    # arithmetic, dx, dt and reflect (x -> -x) are the matrix operations on 1 x 1 matrices
    __add__ = __radd__ = _lifted(operator.add)
    __sub__, __rsub__ = _lifted(operator.sub), _lifted(operator.sub, reflected=True)
    __mul__, __rmul__ = _lifted(operator.mul), _lifted(operator.mul, reflected=True)
    __neg__, __eq__ = _lifted(operator.neg), _lifted(operator.eq)
    dx = d = _lifted(methodcaller("d"))
    dt, reflect = _lifted(methodcaller("d0")), _lifted(methodcaller("star"))
    __hash__ = None

    def __repr__(self):
        return f"BiJet(x_order={self.x_order}, t_order={self.t_order})"


# -- numerator grids ----------------------------------------------------------------
# A grid is ``nums[i][j][m]``: per entry, its t-levels, each a list of integer
# numerators.  Grids are shared between matrices and never mutated.


def _fit(seq: list, n: int, pad=0) -> list:
    """``seq`` cut, or padded with ``pad``, to ``n`` items."""
    return seq if len(seq) == n else seq[:n] + [pad] * (n - len(seq))


def _trim(seq, nonzero=bool):
    """``seq`` without its trailing zero items, keeping the first item."""
    k = len(seq)
    while k > 1 and not nonzero(seq[k - 1]):
        k -= 1
    return seq if k == len(seq) else seq[:k]


def _zeros(xo: Optional[int]) -> list:
    """The zero t-level at x-order ``xo``."""
    return [0] * (1 if xo is None else xo + 1)


def _scaled(nums, f: int):
    return nums if f == 1 else [[[[f * v for v in lv] for lv in e] for e in row] for row in nums]


def _reduced(nums, den: int):
    """``(nums, den)`` divided by ``gcd(den, *every numerator)``."""
    g = den
    for row in nums:
        for e in row:
            for lv in e:
                g = gcd(g, *lv)
                if g == 1:
                    return nums, den
    return [[[[v // g for v in lv] for lv in e] for e in row] for row in nums], den // g


def _lowest(kind: str, nums, den: int, xo: Optional[int], to: Optional[int]):
    """``(nums, den)`` without trailing zeros on exact axes, in lowest terms (one
    gcd pass); finite axes must already have their lengths."""
    if xo is None:
        nums = [[[_trim(lv) for lv in e] for e in row] for row in nums]
    if to is None and kind == "bijet":
        nums = [[_trim(e, any) for e in row] for row in nums]
    return _reduced(nums, den)


def _levelwise(ea: list, eb: list, op, nx: Optional[int], nt: Optional[int]) -> list:
    """Level by level ``op`` of two entries' t-levels, to ``nx`` coefficients and
    ``nt`` levels (None: as many as the longer operand has)."""
    out = []
    for m in range(max(len(ea), len(eb)) if nt is None else nt):
        a = ea[m] if m < len(ea) else [0]
        b = eb[m] if m < len(eb) else [0]
        n = max(len(a), len(b)) if nx is None else nx
        out.append(list(map(op, _fit(a, n), _fit(b, n))))
    return out


def _same_level(a: list, b: list, fa: int, fb: int, n: Optional[int]) -> bool:
    """Whether ``fa a`` and ``fb b`` agree on their first ``n`` coefficients (all
    when None), the shorter padded with zeros; the first difference ends the
    comparison."""
    a, b = a[:n], b[:n]
    if len(a) < len(b):
        a, b, fa, fb = b, a, fb, fa
    if len(a) > len(b) and any(a[len(b):]):
        return False
    if fa == fb:  # both 1: the grids share a denominator
        return a == b if len(a) == len(b) else all(map(operator.eq, a, b))
    return all(map(operator.eq, map(fa.__mul__, a), map(fb.__mul__, b)))


def _flat(nums, nx: Optional[int], nt: Optional[int], stride: int) -> list:
    """Each entry's first ``nt`` t-levels, cut to ``nx`` coefficients, as one
    coefficient list: x^i t^j goes to slot ``j * stride + i``; trailing zeros dropped."""
    flat = []
    for row in nums:
        flat.append([])
        for e in row:
            cs = e[0][:nx]
            for j, lv in enumerate(e[1:nt], 1):
                cs += [0] * (j * stride - len(cs))
                cs += lv[:nx]
            if cs and not cs[-1]:  # most entries end nonzero; else cut once, from the end
                del cs[next(compress(range(len(cs), 0, -1), reversed(cs)), 0):]
            flat[-1].append(cs)
    return flat


def _sum_of_products(pairs: Sequence[tuple], low: int = 0) -> "MatrixJet":
    """``(sum_p a_p b_p) / x^low`` over the pairs ``(a_p, b_p)``, as one integer
    matrix product: the sum with its first ``low`` x-coefficients cut off, valid
    to the x-order of the sum less ``low``.  Only a jet-kind sum of a finite
    x-order of at least ``low`` takes a cut; any other is a ValueError.

    The left factors sit side by side and the right factors stacked, so the
    product ``[a_1 ... a_P] [b_1; ...; b_P]`` sums every pair's product before one
    unpack and one ``gcd`` pass.  As for the chain of ``*`` and ``+`` it replaces,
    the sum is valid to the smallest order of any operand, a bi-jet if any
    operand is one, and over the lcm of the ``a_p.den * b_p.den``, to which each
    pair is scaled up by ``f_p``.  With ``stride = Lx_a + Lx_b - 1`` for the
    longest x-levels of each side as laid out, every x-product of two t-levels
    fits in one stride, so laying t-level j out from slot ``j * stride`` makes a
    bivariate product a univariate one.

    One pass over the pairs reads each operand's grid statistics
    (:meth:`MatrixJet._statistics`) once and forms the orders, the kind, the
    denominators, the extents of each side and the split below; the extents
    are the longest x-level and the most t-levels over each side, then cut to
    the kept orders.

    A pair with a constant operand, ``(c / den) I`` of any orders and kind
    (``c = 0`` too; the statistics tell), is not multiplied: ``f_p c`` times the
    other operand, laid out at the stride, cut to the kept orders and shifted
    down by ``low``, is added into the unpacked sum.  Its operands still count
    for the orders, the kind, ``den`` and the extents.  The other pairs are
    multiplied, and only they set K, the way and the slot width; with none,
    no product is formed.

    A product of jets cuts nothing: each jet packs its whole stored level,
    even past the kept order, because output slot k depends only on operand
    slots <= k and only the first ``w`` slots are kept (term by term, only the
    kept coefficients are read).  A product with a bi-jet cuts every operand to
    the kept orders, so that no x-product reaches the next t-level.  The way
    (packed or term by term) and the slot width come from each multiplied
    operand's grid statistics, with ``(f_p - 1).bit_length()`` more bits for a
    scaled left factor; taken over the whole grid, they bound the laid-out
    part from above, which at most widens a slot (as do the operand spans,
    taken over every pair).  The packed cells come from each operand's cache
    (:meth:`MatrixJet._packed`), scaled by ``f_p`` on the left.
    """
    first = pairs[0][0]
    dim = first.dim
    xo = to = None
    kind = "jet"
    la = ta = lb = tb = 0
    dens, products, constants = [], [], []
    for a, b in pairs:
        first._pair(a)
        a._pair(b)
        sa, sb = a._statistics(), b._statistics()
        xo, to = _omin(_omin(xo, a.x_order), b.x_order), _omin(_omin(to, a.t_order), b.t_order)
        if a.kind == "bijet" or b.kind == "bijet":
            kind = "bijet"
        la, ta, lb, tb = max(la, sa[0]), max(ta, sa[1]), max(lb, sb[0]), max(tb, sb[1])
        p = a.den * b.den
        dens.append(p)
        if sa[4] is not None:
            constants.append((sa[4], b, p))
        elif sb[4] is not None:
            constants.append((sb[4], a, p))
        else:
            products.append((a, b, p, sa, sb))
    nx = None if xo is None else xo + 1
    nt = None if to is None else to + 1
    den = lcm(*dens)
    if low and (kind != "jet" or xo is None or not 0 < low <= xo):
        raise ValueError(f"cannot cut {low} coefficients off a {kind} sum of x-order {xo}")
    cut = None if kind == "jet" else nx
    if cut is not None:
        la, lb = min(la, cut), min(lb, cut)
    if nt is not None:
        ta, tb = min(ta, nt), min(tb, nt)
    stride = la + lb - 1
    lt = ta + tb - 1 if nt is None else min(ta + tb - 1, nt)
    w = stride if nx is None else min(stride, nx)
    n = (lt - 1) * stride + w
    if not products:
        flat = [[[0] * (n - low) for _ in range(dim)] for _ in range(dim)]
    else:
        lefts, rights, ps, stats_a, stats_b = zip(*products)
        fs = [den // p for p in ps]
        bits = (max([sa[2] + (f - 1).bit_length() for sa, f in zip(stats_a, fs)])
                + max([sb[2] for sb in stats_b]))
        inner = len(products) * dim
        nonzero = min(sum([sa[3] for sa in stats_a]), sum([sb[3] for sb in stats_b]))
        per_entry = nonzero / (inner * dim)
        if prefers_packing(per_entry, dim, bits):
            nb = slot_bytes(bits, inner, (ta - 1) * stride + la, (tb - 1) * stride + lb)
            left = [[] for _ in range(dim)]
            for a, f in zip(lefts, fs):
                for row, packed in zip(left, a._packed(nb, cut, nt, stride)):
                    row.extend(packed if f == 1 else [f * v for v in packed])
            right = [row for b in rights for row in b._packed(nb, cut, nt, stride)]
            flat = packed_matmul(left, right, n, nb, low)
        else:
            left = [_scaled(a.nums, f) for a, f in zip(lefts, fs)]
            left = [[e for g in left for e in g[i]] for i in range(dim)]
            right = [row for b in rights for row in b.nums]
            flat = _schoolbook(_flat(left, nx, nt, stride), _flat(right, nx, nt, stride), n, low)
    for c, m, p in constants:  # k m, laid out as the sum is, added slot by slot
        k = den // p * c
        if k:
            for row, cells in zip(flat, _flat(m.nums, nx, nt, stride)):
                for acc, cs in zip(row, cells):
                    cs = cs[low:]
                    end = len(cs)
                    acc[:end] = map(operator.add, acc[:end], cs if k == 1 else map(k.__mul__, cs))
    nums = [[[cs[j * stride:j * stride + w] for j in range(lt)] for cs in row] for row in flat]
    return MatrixJet._of(kind, nums, den, None if xo is None else xo - low, to)


def _assembled(cells: Sequence[Sequence["MatrixJet"]]) -> "MatrixJet":
    """The matrix with the 1 x 1 matrices ``cells[i][j]`` as entries, valid to their
    smallest orders, a bi-jet if any is one (a jet is t-constant), over the lcm
    of their lowest-terms denominators, which keeps the grid in lowest terms."""
    flat = [c for row in cells for c in row]
    xo = to = None
    for c in flat:
        xo, to = _omin(xo, c.x_order), _omin(to, c.t_order)
    kind = "bijet" if any(c.kind == "bijet" for c in flat) else "jet"
    cells = [[(c.promote() if kind == "bijet" else c).truncate(xo, to) for c in row]
             for row in cells]
    den = lcm(*(c.den for row in cells for c in row))
    nums = [[_scaled(c.nums, den // c.den)[0][0] for c in row] for row in cells]
    return MatrixJet._new(kind, nums, den, xo, to)


def _claimed(m: "MatrixJet", xo: Optional[int]) -> "MatrixJet":
    """``m`` claimed to x-order ``xo`` >= its own by zero padding (``m`` itself at
    its own order).  This extends the order ledger, so each caller states why
    the padded coefficients cannot change the part of its result that it keeps."""
    if xo == m.x_order:
        return m
    nums = [[[_fit(lv, xo + 1) for lv in e] for e in row] for row in m.nums]
    return MatrixJet._new(m.kind, nums, m.den, xo, m.t_order)


def _shifted(m: "MatrixJet", j: int) -> "MatrixJet":
    """``x^j m``, for ``m`` of a finite x-order, valid to that order plus ``j``:
    exact arithmetic, so it extends no ledger.  A negative ``j`` divides by
    ``x^-j``, dropping coefficients that the caller knows to be zero."""
    nums = [[[[0] * j + lv[max(-j, 0):] for lv in e] for e in row] for row in m.nums]
    return MatrixJet._new(m.kind, nums, m.den, m.x_order + j, m.t_order)


def _mat_inv(a):
    """``(adj, d)`` with ``d > 0`` and ``adj / d`` the inverse of the square integer
    matrix ``a``, by Bareiss's fraction-free Gauss-Jordan elimination on ``[a | I]``
    (every division is exact); raises on singular input."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise SingularConstantTermError("constant coefficient matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        p = m[k][k]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], m[k])]
        prev = p
    # the left block is now prev * I, so the right block is prev * a^-1
    sign = 1 if prev > 0 else -1
    return [[sign * v for v in row[n:]] for row in m], sign * prev


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
    """Square matrix of jets (or bi-jets) sharing one set of valid orders, stored
    as one numerator grid ``nums`` over one denominator ``den``."""

    __slots__ = ("dim", "kind", "x_order", "t_order", "nums", "den", "_stats", "_packs")

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        n = len(grid)
        if n == 0 or any(len(row) != n for row in grid):
            raise ValueError("entries must form a non-empty square grid")
        if not all(isinstance(v, (Jet, BiJet)) for row in grid for v in row):
            raise TypeError("entries must all be Jet or BiJet values")
        m = _assembled([[v._m for v in row] for row in grid])
        self._set(m.kind, m.nums, m.den, m.x_order, m.t_order)

    def _set(self, kind, nums, den, xo, to):
        self.dim, self.kind, self.nums, self.den = len(nums), kind, nums, den
        self.x_order, self.t_order = xo, to
        self._stats = self._packs = None

    @classmethod
    def _new(cls, kind: str, nums: list, den: int, xo, to) -> "MatrixJet":
        """Matrix over a grid already in lowest terms and fitted to its orders."""
        m = cls.__new__(cls)
        m._set(kind, nums, den, xo, to)
        return m

    @classmethod
    def _of(cls, kind: str, nums: list, den: int, xo, to) -> "MatrixJet":
        """Matrix over a grid whose finite axes already have their lengths."""
        return cls._new(kind, *_lowest(kind, nums, den, xo, to), xo, to)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "MatrixJet":
        """The exact identity: one shared matrix per dimension."""
        return _unit(1, dim)

    @classmethod
    def zeros(cls, dim: int) -> "MatrixJet":
        """The exact zero: one shared matrix per dimension."""
        return _unit(0, dim)

    @classmethod
    def constant(cls, matrix) -> "MatrixJet":
        return cls([[Jet.constant(v) for v in row] for row in matrix])

    @classmethod
    def scalar(cls, jet: Jet) -> "MatrixJet":
        return cls([[jet]])

    @classmethod
    def diagonal(cls, jet, dim: int) -> "MatrixJet":
        """``jet`` (a :class:`Jet` or :class:`BiJet`) times I, built by the constructor."""
        if dim < 1:
            raise ValueError("a matrix needs dimension >= 1")
        zero = Jet.constant(0)
        return cls([[jet if i == j else zero for j in range(dim)] for i in range(dim)])

    # -- realization plumbing and the entries view ----------------------------------

    @property
    def realization(self) -> MatrixRealization:
        return MatrixRealization(self.dim)

    @property
    def entries(self) -> tuple:
        """The entries as lowest-terms :class:`Jet` (or :class:`BiJet`) values,
        built from the numerator grid on each call."""
        return tuple(tuple(self._value(e) for e in row) for row in self.nums)

    def _value(self, e: list):
        """The entry with t-levels ``e`` as a lowest-terms jet (or bi-jet)."""
        return _view(MatrixJet._of(self.kind, [[e]], self.den, self.x_order, self.t_order))

    def entry(self, i: int, j: int):
        return self._value(self.nums[i][j])

    def one_like(self) -> "MatrixJet":
        return MatrixJet.identity(self.dim)

    def zero_like(self) -> "MatrixJet":
        return MatrixJet.zeros(self.dim)

    def _pair(self, other: "MatrixJet"):
        if not isinstance(other, MatrixJet):
            raise RealizationMismatchError("expected a MatrixJet operand")
        if other.dim != self.dim:
            raise RealizationMismatchError(f"matrix dimensions differ: {self.dim} vs {other.dim}")

    def _statistics(self) -> tuple:
        """(longest x-level, most t-levels, bit length of the largest |numerator|,
        nonzero numerators, ``c`` if the matrix is ``(c / den) I`` else None) over
        the whole grid, measured on first use."""
        if self._stats is None:
            dim, levels = self.dim, [lv for row in self.nums for e in row for lv in e]
            nonzero = sum([len(lv) - lv.count(0) for lv in levels])
            scalar = None
            if nonzero <= dim:  # c I: nothing past x^0 t^0, c on the diagonal, 0 off it
                heads = [e[0][0] for row in self.nums for e in row]  # x^0 t^0, row by row
                c = heads[0]
                if (nonzero == len(heads) - heads.count(0) and heads[::dim + 1].count(c) == dim
                        and heads.count(0) == len(heads) - dim * bool(c)):
                    scalar = c
            self._stats = (max(map(len, levels)), max(len(e) for row in self.nums for e in row),
                           max([max(max(lv), -min(lv)) for lv in levels]).bit_length(),
                           nonzero, scalar)
        return self._stats

    def _packed(self, nb: int, nx: Optional[int], nt: Optional[int], stride: int) -> list:
        """The cells cut to ``nx`` and ``nt`` (None: uncut), t-levels at ``stride``
        (:func:`_flat`), packed at ``nb`` bytes a slot and kept for later
        products.  A jet has one t-level, so its pack depends on ``nb`` and
        ``nx`` alone."""
        key = (nb, nx) if self.kind == "jet" else (nb, nx, nt, stride)
        if self._packs is None:
            self._packs = {}
        grid = self._packs.get(key)
        if grid is None:
            grid = self._packs[key] = pack_grid(_flat(self.nums, nx, nt, stride), nb)
        return grid

    def promote(self) -> "MatrixJet":
        """Embed a jet-kind matrix as a t-constant bi-jet matrix."""
        if self.kind == "bijet":
            return self
        return MatrixJet._new("bijet", self.nums, self.den, self.x_order, None)

    # -- ring operations ---------------------------------------------------------

    def _exact_zero(self) -> bool:
        """Zero on exact axes: a summand that caps no order."""
        return self.x_order is None and self.t_order is None and self.is_zero()

    def _combine(self, other, op) -> "MatrixJet":
        """``op`` (add or sub) entry by entry, valid to the smaller orders.  An
        exact zero operand caps no order, so ``m + 0``, ``0 + m`` and ``m - 0`` are
        ``m`` itself, with its packs and statistics, and ``0 - m`` is ``-m``;
        each promoted when the other operand is a bi-jet."""
        self._pair(other)
        if other._exact_zero():
            return self.promote() if other.kind == "bijet" else self
        if self._exact_zero():
            m = other if op is operator.add else -other
            return m.promote() if self.kind == "bijet" else m
        xo, to = _omin(self.x_order, other.x_order), _omin(self.t_order, other.t_order)
        nx = None if xo is None else xo + 1
        nt = None if to is None else to + 1
        kind = "jet" if self.kind == other.kind == "jet" else "bijet"
        g = gcd(self.den, other.den)
        a, b = _scaled(self.nums, other.den // g), _scaled(other.nums, self.den // g)
        nums = [[_levelwise(ea, eb, op, nx, nt) for ea, eb in zip(ra, rb)] for ra, rb in zip(a, b)]
        return MatrixJet._of(kind, nums, self.den // g * other.den, xo, to)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        nums = [[[[-v for v in lv] for lv in e] for e in row] for row in self.nums]
        return MatrixJet._new(self.kind, nums, self.den, self.x_order, self.t_order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            return MatrixJet._of(self.kind, _scaled(self.nums, q.numerator),
                                 self.den * q.denominator, self.x_order, self.t_order)
        return _sum_of_products([(self, other)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def d(self) -> "MatrixJet":
        if self.x_order == 0:
            raise PrecisionExhaustedError("derivative of an order-0 jet")
        xo = None if self.x_order is None else self.x_order - 1
        nums = [[[[k * lv[k] for k in range(1, len(lv))] or [0] for lv in e] for e in row]
                for row in self.nums]
        return MatrixJet._of(self.kind, nums, self.den, xo, self.t_order)

    def d0(self) -> "MatrixJet":
        if self.kind == "jet":
            raise UnsupportedRealizationError("d0 is not defined in this realization")
        if self.t_order == 0:
            raise PrecisionExhaustedError("t-derivative of a t-order-0 bi-jet")
        to = None if self.t_order is None else self.t_order - 1
        nums = [[[[m * v for v in e[m]] for m in range(1, len(e))] or [_zeros(self.x_order)]
                 for e in row] for row in self.nums]
        return MatrixJet._of("bijet", nums, self.den, self.x_order, to)

    def star(self) -> "MatrixJet":
        """Involution: transpose and reflect the series argument (x -> -x)."""
        nums = [[[[-v if k % 2 else v for k, v in enumerate(lv)] for lv in e] for e in col]
                for col in zip(*self.nums)]
        return MatrixJet._new(self.kind, nums, self.den, self.x_order, self.t_order)

    def is_zero(self) -> bool:
        return not any(any(lv) for row in self.nums for e in row for lv in e)

    def __eq__(self, other):
        """Equality on the jointly valid orders: the grids compared level by level,
        each scaled to the common denominator, up to the first difference.
        Matrices of different dimensions are unequal."""
        if not isinstance(other, MatrixJet):
            return NotImplemented
        if other is self:
            return True
        if other.dim != self.dim:
            return False
        xo, to = _omin(self.x_order, other.x_order), _omin(self.t_order, other.t_order)
        nx = None if xo is None else xo + 1
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        for ra, rb in zip(self.nums, other.nums):
            for ea, eb in zip(ra, rb):
                for m in range(max(len(ea), len(eb)) if to is None else to + 1):
                    a = ea[m] if m < len(ea) else [0]
                    b = eb[m] if m < len(eb) else [0]
                    if not _same_level(a, b, fa, fb, nx):
                        return False
        return True

    __hash__ = None

    def truncate(self, x_order: Optional[int], t_order: Optional[int] = None) -> "MatrixJet":
        """Truncate to ``(x_order, t_order)``, each >= 0; a jet-kind matrix ignores the t-order."""
        if min(x_order or 0, t_order or 0) < 0:
            raise ValueError(f"orders must be >= 0, got x-order {x_order}, t-order {t_order}")
        xo, to = self.x_order, self.t_order
        if self.kind == "jet":
            t_order = None
        elif t_order is None and to is not None:
            raise PrecisionExhaustedError("cannot promote a finite t-order to exact")
        elif None not in (t_order, to) and t_order > to:
            raise PrecisionExhaustedError(f"cannot extend valid t-order {to} to {t_order}")
        if x_order is None and xo is not None:
            raise PrecisionExhaustedError("cannot promote a finite-order jet to exact")
        if None not in (x_order, xo) and x_order > xo:
            raise PrecisionExhaustedError(f"cannot extend valid order {xo} to {x_order}")
        if (x_order, t_order) == (xo, to):
            return self
        nums = self.nums
        if x_order != xo:
            nums = [[[_fit(lv, x_order + 1) for lv in e] for e in row] for row in nums]
        if t_order != to:
            nums = [[_fit(e, t_order + 1, _zeros(x_order)) for e in row] for row in nums]
        return MatrixJet._of(self.kind, nums, self.den, x_order, t_order)

    # -- series inversion ------------------------------------------------------------

    def invert(self) -> "MatrixJet":
        """Multiplicative inverse to the stored truncation orders.

        The constant (x=0, t=0) matrix must be invertible; its inverse comes from
        fraction-free elimination on its numerators.  The t^0 level A_0 is
        inverted in x: exact inputs must be constant there (a non-constant
        polynomial has no polynomial inverse, so a finite x-order is required
        first); finite x-orders use Newton iteration X <- X - x^(k+1) X E from the
        inverse of the constant matrix, doubling the valid order k at each step:
        E = (A_0 X - I) / x^(k+1), the coefficients of A_0 X not yet known, is a
        middle product and X E a short product.
        The higher t-levels follow from X_m = -X_0 sum_{j=1..m} A_j X_{m-j}; a
        jet matrix has none, and an exact t-axis must have none.
        """
        levels = self.t_levels()
        a0, xo = levels[0], self.x_order
        if xo is None and any(len(e[0]) > 1 for row in a0.nums for e in row):
            raise PrecisionExhaustedError(
                "inverting a non-constant exact series needs a finite truncation order")
        adj, det = _mat_inv([[e[0][0] for e in row] for row in a0.nums])
        nums = [[[[a0.den * v]] for v in row] for row in adj]
        x = MatrixJet._of("jet", nums, det, None, None)
        x, k = x.truncate(None if xo is None else 0), 0
        while xo is not None and k < xo:
            k2 = min(2 * k + 1, xo)
            # X ≡ A⁻¹ mod x^{k+1} implies X − X(A_0 X − I) ≡ A⁻¹ mod x^{2k+2}, so
            # the iterate, valid to order k, is claimed to order k2 <= 2k + 1
            # here: one of the two places the order ledger is extended (the other
            # is s_h in log_derivative).  A_0 X ≡ I mod x^{k+1}, so E and X E go
            # only to order k2 − k − 1, and the shift by x^{k+1} is exact.
            lifted = _claimed(x, k2)
            e = _sum_of_products([(a0.truncate(k2), lifted)], k + 1)
            x = lifted - _shifted(x * e, k + 1)
            k = k2
        if self.t_order is None and len(levels) > 1:
            raise PrecisionExhaustedError(
                "inverting a t-dependent exact series needs a finite t-order")
        if self.kind == "jet":
            return x
        out = [x]
        for m in range(1, len(levels)):
            acc = _sum_of_products([(levels[j], out[m - j]) for j in range(1, m + 1)])
            out.append(-(x * acc))
        return MatrixJet.from_t_levels(out, self.t_order)

    def t_levels(self):
        """The x-jet matrices multiplying each power of t (just ``[self]`` for jets)."""
        if self.kind == "jet":
            return [self]
        n, zero = max(len(e) for row in self.nums for e in row), _zeros(self.x_order)
        return [MatrixJet._of("jet", [[[e[m] if m < len(e) else zero] for e in row]
                                      for row in self.nums], self.den, self.x_order, None)
                for m in range(n)]

    @staticmethod
    def from_t_levels(levels: Sequence["MatrixJet"], t_order: Optional[int]) -> "MatrixJet":
        """Assemble a bi-jet matrix from per-t-power jet-kind matrices."""
        xo = None
        for lv in levels:
            xo = _omin(xo, lv.x_order)
        levels = [lv.truncate(xo) for lv in levels]
        den = lcm(*(lv.den for lv in levels))
        grids = [_scaled(lv.nums, den // lv.den) for lv in levels]
        nums = [[[g[i][j][0] for g in grids] for j in range(len(row))]
                for i, row in enumerate(grids[0])]
        if t_order is not None:
            nums = [[_fit(e, t_order + 1, _zeros(xo)) for e in row] for row in nums]
        return MatrixJet._of("bijet", nums, den, xo, t_order)

    def __repr__(self):
        return f"MatrixJet(dim={self.dim}, kind={self.kind}, x_order={self.x_order}, t_order={self.t_order})"


@cache
def _unit(c: int, dim: int) -> MatrixJet:
    """The exact ``c I`` of dimension ``dim``, built once; grids are never
    mutated, so every caller can share it."""
    return MatrixJet.diagonal(Jet.constant(c), dim)


def log_derivative(phi: MatrixJet, side: str) -> MatrixJet:
    """phi' phi^{-1} for ``side='right'`` (then D phi = s phi), or
    -phi^{-1} phi' for ``side='left'`` (then D phi = -phi s).

    One Karp-Markstein division of g = phi' (right) or -phi' (left) by phi:
    with n the x-order of phi' and h = n // 2, phi is inverted only to x-order
    h (X_h), the quotient is formed to order h (s_h = g_h X_h on the right,
    X_h g_h on the left) and corrected once by its residual r, which is zero
    through x^h:  s = s_h + x^(h+1) ((r / x^(h+1)) X_h) with r = g - s_h phi on
    the right, s = s_h + x^(h+1) (X_h (r / x^(h+1))) with r = g - phi s_h on the
    left.  The result has the x-order of phi' and the t-order and kind of phi.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xo, to = phi.x_order, phi.t_order
    h = None if xo is None else max(xo - 1, 0) // 2
    x_h = phi.truncate(h, to).invert()  # invert's errors come before d()'s
    g = phi.d() if side == "right" else -phi.d()
    n = g.x_order
    mul = operator.mul if side == "right" else lambda a, b: b * a
    # s_h and X_h are right only to order h.  The residual r = g - s_h phi is
    # (s - s_h) phi on the right (phi (s - s_h) on the left), so r ≡ 0 mod
    # x^{h+1}, and the corrected quotient misses s by (s - s_h)(I - phi X_h)
    # (or (I - X_h phi)(s - s_h)), which is ≡ 0 mod x^{2h+2} with 2h + 1 >= n.
    # So s_h is claimed to order n here: the second place the order ledger is
    # extended, after invert's Newton lift.  The claim is checked on r first;
    # then the correction is x^{h+1} ((r / x^{h+1}) X_h), a short product to
    # order n - h - 1 <= h between two exact shifts, which claim nothing.
    s_h = _claimed(mul(g.truncate(h, to), x_h), n)
    r = g - mul(s_h, phi)
    cut = None if h is None else h + 1
    # checked here, not by operators.certify (a layer above): it tests a claimed
    # order, not two routes to one identity
    if any(any(lv[:cut]) for row in r.nums for e in row for lv in e):
        raise ConsistencyError("log-derivative residual is not zero to the half order")
    if cut is None or cut > n:  # r is zero throughout
        return s_h
    return s_h + _shifted(mul(_shifted(r, -cut), x_h), cut)


def x_jet(order: Optional[int] = None) -> Jet:
    return Jet((0, 1), order)


def exp_jet(rate, order: int) -> Jet:
    """Truncation of exp(rate*x) to the given order; coefficients rate^k/k!."""
    rate = _frac(rate)
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * rate / k)
    return Jet(coeffs, order)
