"""Truncated-series arithmetic: precision ledger, involution, inversion."""

import copy
import itertools
import operator
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BiJet,
    ConsistencyError,
    IndexRangeError,
    Jet,
    KernelError,
    MatrixJet,
    MatrixRealization,
    PrecisionExhaustedError,
    RealizationMismatchError,
    SingularConstantTermError,
    UnsupportedRealizationError,
    exp_jet,
    log_derivative,
    x_jet,
)
from bellops import intpoly
from bellops import jets as jets_module
from helpers import _model, _model_add, _model_diff, _model_matmul, _model_mul, random_matrix_jet

jets = st.lists(st.integers(-3, 3), min_size=3, max_size=7).map(
    lambda cs: Jet(cs, len(cs) - 1)
)
mats2 = st.lists(st.integers(-2, 2), min_size=24, max_size=24).map(
    lambda v: MatrixJet(
        [[Jet(v[6 * (2 * i + j) : 6 * (2 * i + j) + 6], 5) for j in range(2)] for i in range(2)]
    )
)


# -- scalar jets -----------------------------------------------------------------


def test_jet_addition_coefficientwise():
    assert Jet([1, 2, 3], 2) + Jet([1, 0, 0], 2) == Jet([2, 2, 3], 2)


def test_jet_derivative_shift_scale():
    j = Jet([5, 7, 11], 2)
    d = j.d()
    assert d.order == 1
    assert d.coeffs == (F(7), F(22))


def test_precision_ledger():
    a, b = Jet([1, 2, 3], 2), Jet([4, 5, 6, 7], 3)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert a.d().order == 1
    exact = Jet([1, 1])
    assert exact.order is None
    assert (exact * a).order == 2
    assert (exact + exact).order is None
    assert exact.d().order is None


def test_precision_exhausted():
    with pytest.raises(PrecisionExhaustedError):
        Jet([3], 0).d()
    # exact polynomials never exhaust
    assert Jet.constant(3).d().is_zero()


def test_jet_equality_joint_range():
    assert Jet([1, 2], 1) == Jet([1, 2, 3], 2)
    assert Jet([1, 2], 1) != Jet([1, 3, 3], 2)
    assert Jet([1, 2], None) != Jet([1, 2, 3], None)


def test_truncate_rules():
    exact = Jet([1, 2, 3])
    assert exact.truncate(1).order == 1
    with pytest.raises(PrecisionExhaustedError):
        Jet([1, 2], 1).truncate(5)


@settings(max_examples=50, deadline=None)
@given(a=jets, b=jets, c=jets)
def test_jet_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).d() == a.d() * b + a * b.d()


# -- bi-jets -------------------------------------------------------------------------


def test_bijet_mixed_partials_commute():
    b = BiJet([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2, 2)
    assert b.dx().dt() == b.dt().dx()


def test_bijet_orders():
    b = BiJet([[1, 2], [3, 4]], 1, 1)
    assert b.dx().x_order == 0 and b.dx().t_order == 1
    assert b.dt().t_order == 0
    with pytest.raises(PrecisionExhaustedError):
        b.dx().dx()


def test_bijet_from_jet_is_t_constant():
    b = BiJet.from_jet(Jet([1, 2], 1))
    assert b.t_order is None
    assert b.dt().is_zero()


def test_bijet_product():
    x = BiJet([[0], [1]])  # exact x
    t = BiJet([[0, 1]])  # exact t
    xt = x * t
    assert xt.at(1, 1) == 1
    assert (x * t) == (t * x)


# The independent bi-jet model (``_model`` and the ``_model_*`` operations) lives
# in helpers.py; exact axes are read this far, random operands stay well inside.
_SCAN = 10


def _assert_matches(b, model):
    d, xo, to = model
    assert (b.x_order, b.t_order) == (xo, to)
    for i in range((_SCAN if xo is None else xo) + 1):
        for j in range((_SCAN if to is None else to) + 1):
            assert b.at(i, j) == d.get((i, j), 0), (i, j)
    if xo is not None:
        with pytest.raises(PrecisionExhaustedError):
            b.at(xo + 1, 0)
    if to is not None:
        with pytest.raises(PrecisionExhaustedError):
            b.at(0, to + 1)


def _random_bijet(rng):
    xo = rng.choice((None, 0, 1, 2, 3, 5))
    to = rng.choice((None, 0, 1, 2, 4))
    nx = rng.randint(1, 4) if xo is None else rng.randint(1, xo + 2)
    nt = rng.randint(1, 3) if to is None else rng.randint(1, to + 2)
    rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nt)] for _ in range(nx)]
    return BiJet(rows, xo, to), _model(rows, xo, to)


def test_bijet_matches_dict_convolution_oracle():
    rng = random.Random(2024)
    for _ in range(150):
        a, ma = _random_bijet(rng)
        b, mb = _random_bijet(rng)
        _assert_matches(a, ma)
        _assert_matches(a + b, _model_add(ma, mb))
        _assert_matches(a - b, _model_add(ma, mb, -1))
        _assert_matches(b - a, _model_add(mb, ma, -1))
        _assert_matches(a * b, _model_mul(ma, mb))
        _assert_matches(-a, _model_add(({}, None, None), ma, -1))
        # one-variable jets embed as t-constant bi-jets
        jo = rng.choice((None, 1, 4))
        cs = [rng.randint(-2, 2) for _ in range(3)]
        j, mj = Jet(cs, jo), _model([[c] for c in cs], jo, None)
        _assert_matches(a + j, _model_add(ma, mj))
        _assert_matches(j + a, _model_add(ma, mj))
        _assert_matches(a - j, _model_add(ma, mj, -1))
        _assert_matches(j - a, _model_add(mj, ma, -1))
        _assert_matches(a * j, _model_mul(ma, mj))
        _assert_matches(j * a, _model_mul(mj, ma))
        v = F(rng.randint(-3, 3), 2)
        mv = _model([[v]], None, None)
        _assert_matches(a + v, _model_add(ma, mv))
        _assert_matches(v + a, _model_add(ma, mv))
        _assert_matches(a - v, _model_add(ma, mv, -1))
        _assert_matches(a * v, _model_mul(ma, mv))
        _assert_matches(v * a, _model_mul(ma, mv))
        _assert_matches(v - a, _model_add(mv, ma, -1))
        n = rng.randint(-3, 3)
        mn = _model([[n]], None, None)
        _assert_matches(n + a, _model_add(mn, ma))
        _assert_matches(n - a, _model_add(mn, ma, -1))
        _assert_matches(n * a, _model_mul(mn, ma))
        _assert_matches(BiJet.from_jet(n - j), _model_add(mn, mj, -1))
        _assert_matches(BiJet.from_jet(j - n), _model_add(mj, mn, -1))
        for axis, op in ((0, a.dx), (1, a.dt)):
            if ma[1 + axis] == 0:
                with pytest.raises(PrecisionExhaustedError):
                    op()
            else:
                _assert_matches(op(), _model_diff(ma, axis))
        _assert_matches(
            a.reflect(), ({k: -c if k[0] % 2 else c for k, c in ma[0].items()}, ma[1], ma[2])
        )
        assert a.is_zero() == (not ma[0])
        # equality compares the jointly valid range only
        same = not any(_model_add(ma, mb, -1)[0].values())
        assert (a == b) == same and (a != b) != same
        lower = (ma[1] and ma[1] - 1, ma[2])  # one x-order less where there is one
        assert a == a.truncate(*lower) and a.truncate(*lower) == a


def test_bijet_truncate_and_at_boundaries():
    b = BiJet([[1, 2], [3, 4]], 1, 1)
    with pytest.raises(PrecisionExhaustedError):
        b.truncate(2, 1)
    with pytest.raises(PrecisionExhaustedError):
        b.truncate(1, 2)
    with pytest.raises(PrecisionExhaustedError):
        b.truncate(None, 1)
    with pytest.raises(PrecisionExhaustedError):
        b.truncate(1, None)
    assert b.truncate(0, 0).at(0, 0) == 1
    exact = BiJet([[1, 2], [3, 4]])
    assert exact.at(7, 9) == 0
    assert exact.truncate(0, None).at(0, 5) == 0
    with pytest.raises(PrecisionExhaustedError):
        exact.truncate(0, None).at(1, 0)
    with pytest.raises(PrecisionExhaustedError):
        exact.truncate(None, 0).at(0, 1)
    with pytest.raises(PrecisionExhaustedError):
        exact.truncate(0, 0).dx()
    with pytest.raises(PrecisionExhaustedError):
        exact.truncate(0, 0).dt()


_NEGATIVE_TRUNCATIONS = {
    "matrix x-order -1": lambda: MatrixJet([[Jet([1, 2, 3], 4)]]).truncate(-1),
    "matrix x-order -2": lambda: MatrixJet([[Jet([1, 2, 3], 4)]]).truncate(-2),
    "matrix t-order -1": lambda: MatrixJet([[BiJet([[1, 2], [3, 4]], 3, 2)]]).truncate(1, -1),
    "jet matrix t-order -1": lambda: MatrixJet.identity(2).truncate(1, -1),
    "jet x-order -1": lambda: Jet([1, 2, 3], 4).truncate(-1),
    "jet t-order -1": lambda: Jet([1, 2, 3]).truncate(1, -1),
    "bi-jet x-order -1": lambda: BiJet([[1, 2], [3, 4]], 3, 2).truncate(-1, 1),
    "bi-jet t-order -1": lambda: BiJet([[1, 2], [3, 4]], 3, 2).truncate(1, -1),
}


@pytest.mark.parametrize("name", list(_NEGATIVE_TRUNCATIONS))
def test_truncate_refuses_negative_orders(name):
    # as the Jet and BiJet constructors refuse a negative order
    with pytest.raises(ValueError, match="orders must be >= 0"):
        _NEGATIVE_TRUNCATIONS[name]()


def test_negative_indices_are_out_of_range():
    # a negative index would otherwise read the last stored coefficient or t-level
    j, b = Jet([1, 2, 3]), BiJet([[1, 2], [3, 4]], 1, 1)
    for read in (lambda: j.at(-1), lambda: b.at(-1, 0), lambda: b.at(0, -1),
                 lambda: b.level(-1)):
        with pytest.raises(IndexRangeError):
            read()
    assert (j.at(2), b.at(1, 0), b.level(1).nums) == (3, 3, (2, 4))


def test_constructors_store_one_normal_form():
    # an exact jet keeps no trailing zeros, but always its constant term
    assert Jet([]).nums == Jet([0, 0]).nums == (0,)
    assert (Jet([]).den, Jet([0, 0]).order) == (1, None)
    # a finite-order jet is cut, or padded with zeros, to order + 1 numerators,
    # and reduced after the cut
    assert (Jet([1, F(1, 3), 5], 0).nums, Jet([1, F(1, 3), 5], 0).den) == ((1,), 1)
    assert (Jet([F(2, 3)], 3).nums, Jet([F(2, 3)], 3).den) == ((2, 0, 0, 0), 3)
    # an exact t-axis drops trailing zero t-levels, keeping the first
    exact = BiJet([[1, 0, 0], [2, 0, 0]], 1, None)
    assert [lv.nums for lv in exact.levels] == [(1, 2)]
    assert [lv.nums for lv in BiJet([[0, 0]], None, None).levels] == [(0,)]
    # a finite t-order is cut, or padded with zero levels of the shared x-order
    assert [lv.nums for lv in BiJet([[1], [2]], 1, 2).levels] == [(1, 2), (0, 0), (0, 0)]
    assert [lv.nums for lv in BiJet([[1, 2, 3]], 0, 1).levels] == [(1,), (2,)]


# -- matrix jets ---------------------------------------------------------------------


def test_matrix_noncommutativity():
    a = MatrixJet.constant([[0, 1], [0, 0]])
    b = MatrixJet.constant([[0, 0], [1, 0]])
    assert a * b != b * a


def test_shared_orders_normalization():
    m = MatrixJet([[Jet([1, 2, 3], 2), Jet([1], 0)], [Jet([0], 0), Jet([5, 6], 1)]])
    assert m.x_order == 0


def test_cut_to_shared_x_order_drops_zero_levels_of_an_exact_t_axis():
    # the bi-jet is 1 + x^3 t: the cut to the shared x-order 1 leaves a zero
    # t^1 level, which an exact t-axis does not keep
    b = BiJet([[1, 0], [0, 0], [0, 0], [0, 1]], 3, None)
    m = MatrixJet([[b, Jet((0,), 1)], [Jet((0,), 1), Jet((1,), 1)]])
    assert (m.kind, m.x_order, m.t_order, m.nums[0][0]) == ("bijet", 1, None, [[1, 0]])
    _assert_stored_in_lowest_terms(m)
    assert len(m.t_levels()) == 1
    assert m.invert() == m == MatrixJet.identity(2)


def test_matrix_involution_axioms():
    rng = random.Random(3)
    for _ in range(10):
        a = random_matrix_jet(rng, 2, 6)
        b = random_matrix_jet(rng, 2, 6)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()
        assert a.d().star() == -(a.star().d())


def test_d0_unsupported_on_plain_jets():
    with pytest.raises(UnsupportedRealizationError):
        MatrixJet.identity(2).d0()


def test_bijet_star_commutes_with_d0():
    rng = random.Random(5)
    entries = [
        [
            BiJet([[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(4)], 3, 2)
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    m = MatrixJet(entries)
    assert m.d0().star() == m.star().d0()
    assert m.d().star() == -(m.star().d())


def _layout(m):
    """Kind, orders and every stored t-level of every entry: equal layouts are
    the same matrix, not just equal up to the common order."""
    return (m.kind, m.x_order, m.t_order,
            [[[(lv.nums, lv.den, lv.order) for lv in v.levels] for v in row] for row in m.entries])


def test_promotion_mixed_kinds():
    jet_m = MatrixJet.identity(2)
    bi_m = jet_m.promote()
    assert jet_m + bi_m == 2 * jet_m
    assert (jet_m * bi_m).kind == "bijet"
    # a jet-kind and a bi-jet-kind matrix combine entry by entry, in either
    # order, exactly as if the jet-kind one had been promoted first
    a = MatrixJet([[Jet([1, 2, 3], 5), x_jet(5)], [Jet([0, 0, F(1, 2)], 5), Jet([2, -1], 5)]])
    b = MatrixJet([[BiJet([[1, 2], [3]], 4, 2), BiJet([[0, 1]], 6, 2)],
                   [BiJet.constant(1), BiJet([[1], [F(1, 3)], [1]], 4, 2)]])
    for x, y in ((a, b), (b, a)):
        px, py = x.promote(), y.promote()
        for op in (operator.add, operator.sub, operator.mul):
            got = op(x, y)
            assert _layout(got) == _layout(op(px, py)), op
            assert (got.kind, got.x_order, got.t_order) == ("bijet", 4, 2)
        assert (x == y) is (px == py) is False
    assert a == a.promote() and a.promote() == a
    # a jet answers the bi-jet interface as one exact t-level
    j = Jet([1, 2, 3], 5)
    assert (j.x_order, j.t_order, j.levels) == (5, None, (j,))
    assert j.truncate(3, None).order == j.truncate(3, 1).order == 3
    assert j.truncate(3, None) == Jet([1, 2, 3], 3)
    bi = BiJet([[1, 2], [3, 4], [5]], 4, 2)
    assert bi.d() == bi.dx() == BiJet([[3, 4], [10]], 3, 2)


def test_invert_identity_exact():
    e = MatrixJet.identity(3)
    assert e.invert() == e


def test_invert_geometric_series_oracle():
    a = [[F(0), F(1)], [F(1), F(1)]]
    m = MatrixJet.identity(2) + MatrixJet.diagonal(x_jet(8), 2) * MatrixJet.constant(a)
    inv = m.invert()
    # oracle: sum_k (-x)^k A^k
    acc = MatrixJet.identity(2).truncate(8)
    term = MatrixJet.identity(2).truncate(8)
    xa = MatrixJet.diagonal(x_jet(8), 2) * MatrixJet.constant(a)
    for _ in range(8):
        term = -(term * xa)
        acc = acc + term
    assert inv == acc
    assert m * inv == MatrixJet.identity(2)
    assert inv * m == MatrixJet.identity(2)


def test_invert_singular():
    with pytest.raises(SingularConstantTermError):
        MatrixJet.constant([[0, 0], [0, 1]]).invert()


def test_invert_exact_nonconstant_needs_truncation():
    m = MatrixJet.identity(1) + MatrixJet.scalar(x_jet())
    with pytest.raises(PrecisionExhaustedError):
        m.invert()
    assert m.truncate(6).invert() * m == MatrixJet.identity(1)


def test_invert_bijet():
    rng = random.Random(11)
    entries = [
        [
            BiJet(
                [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(7)],
                6,
                3,
            )
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    m = MatrixJet.identity(2) + MatrixJet(entries) * MatrixJet(
        [[BiJet([[0], [1]], 6, 3)] * 2] * 2
    )  # perturbation vanishing at x=0 keeps the constant term invertible
    inv = m.invert()
    assert m * inv == MatrixJet.identity(2)
    assert inv * m == MatrixJet.identity(2)


def test_invert_exact_t_dependent_needs_finite_t_order():
    one, zero, t = BiJet.constant(1), BiJet.constant(0), BiJet([[0, 1]])
    m = MatrixJet([[one, t], [zero, one]])
    with pytest.raises(PrecisionExhaustedError):
        m.invert()
    inv = m.truncate(None, 3).invert()
    assert inv == MatrixJet([[one, -t], [zero, one]])
    assert m * inv == MatrixJet.identity(2)


@pytest.mark.parametrize(
    "rows, t_order, error",
    [
        # singular constant term: raised before the exact t-dependence is looked at
        ([[[[0, 1]], [[0]]], [[[0]], [[1]]]], None, SingularConstantTermError),
        # exact in x and not constant at t^0
        ([[[[1], [1]]]], 3, PrecisionExhaustedError),
        # exact in x, constant at t^0, x-dependent higher t-levels
        ([[[[1, 0], [0, 1]], [[0, 1]]], [[[0], [0, 0, 1]], [[1]]]], 3, None),
    ],
    ids=["singular-exact-t", "exact-x-nonconstant", "exact-x-t-dependent"],
)
def test_invert_bijet_edge_cases(rows, t_order, error):
    # rows[i][j] holds the rows of entry (i, j): rows[i][j][k][m] multiplies x^k t^m
    m = MatrixJet([[BiJet(r, None, t_order) for r in row] for row in rows])
    if error is not None:
        with pytest.raises(error):
            m.invert()
        return
    inv = m.invert()
    assert (inv.kind, inv.x_order, inv.t_order) == ("bijet", None, 3)
    assert m * inv == MatrixJet.identity(2) == inv * m


def test_log_derivative_exp_series():
    lam = F(2, 3)
    phi = MatrixJet.scalar(exp_jet(lam, 12))
    s = log_derivative(phi, "right")
    assert s == MatrixJet.constant([[lam]])
    assert (phi.d() - s * phi).is_zero()


def test_log_derivative_sides():
    rng = random.Random(13)
    pert = random_matrix_jet(rng, 2, 10)
    phi = MatrixJet.identity(2) + MatrixJet.diagonal(x_jet(10), 2) * pert
    s_r = log_derivative(phi, "right")
    assert (phi.d() - s_r * phi).is_zero()
    s_l = log_derivative(phi, "left")
    assert (phi.d() + phi * s_l).is_zero()


def test_log_derivative_of_constant_is_zero():
    assert log_derivative(MatrixJet.identity(2), "right").is_zero()


def _full_order_log_derivative(phi, side):
    """The full-order formulas, an independent route to the same values."""
    if side == "right":
        return phi.d() * phi.invert()
    return -(phi.invert() * phi.d())


def _dense_phi(rng, dim, x_order, t_order):
    """A dense random matrix with an invertible constant term: a jet matrix when
    ``t_order`` is None, else a bi-jet matrix of that finite t-order."""
    def entry():
        if t_order is None:
            return Jet([rng.randint(-3, 3) for _ in range(x_order + 1)], x_order)
        return BiJet([[rng.randint(-3, 3) for _ in range(t_order + 1)]
                      for _ in range(x_order + 1)], x_order, t_order)

    while True:
        phi = MatrixJet([[entry() for _ in range(dim)] for _ in range(dim)])
        try:
            phi.truncate(0, t_order).invert()
            return phi
        except SingularConstantTermError:
            pass


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_log_derivative_matches_the_full_order_formula(dim):
    # generic inputs, so the correction's residual is nonzero
    rng = random.Random(dim)
    for x_order in [*range(14), 60, 161]:
        for t_order in (None, {60: 1, 161: 0}.get(x_order, x_order % 3)):
            phi = _dense_phi(rng, dim, x_order, t_order)
            for side in ("right", "left"):
                if x_order == 0:
                    with pytest.raises(PrecisionExhaustedError):
                        log_derivative(phi, side)
                    continue
                got, want = log_derivative(phi, side), _full_order_log_derivative(phi, side)
                assert (got.kind, got.x_order, got.t_order) == (
                    want.kind, want.x_order, want.t_order)
                assert got == want
    singular = MatrixJet.diagonal(Jet([0], 0), dim)
    exact = MatrixJet.identity(dim) + MatrixJet.diagonal(x_jet(), dim)
    for side in ("right", "left"):
        with pytest.raises(SingularConstantTermError):
            log_derivative(singular, side)
        with pytest.raises(SingularConstantTermError):
            log_derivative(singular.promote().truncate(0, 2), side)
        with pytest.raises(PrecisionExhaustedError):
            log_derivative(exact, side)


def test_log_derivative_checks_its_half_order_claim(monkeypatch):
    # x-order 9, so phi' has order 8 and phi is inverted to order h = 4
    phi = MatrixJet.constant([[1, 2], [0, 1]]) + MatrixJet.diagonal(exp_jet(F(1, 2), 9), 2)
    assert log_derivative(phi, "right") == _full_order_log_derivative(phi, "right")
    invert = MatrixJet.invert
    bump = MatrixJet.diagonal(Jet([0, 0, 0, 0, 1], 4), 2)
    monkeypatch.setattr(MatrixJet, "invert", lambda self: invert(self) + bump)
    for side in ("right", "left"):
        with pytest.raises(ConsistencyError, match="^log-derivative residual is not zero to "
                                                   "the half order$"):
            log_derivative(phi, side)


def test_dimension_mismatch():
    with pytest.raises(RealizationMismatchError):
        MatrixJet.identity(2) + MatrixJet.identity(3)


@st.composite
def _matrix(draw, dim, kind):
    """A dim x dim matrix of the given kind over a drawn denominator, with exact or
    finite orders; exact axes keep no trailing zeros."""
    xo = draw(st.one_of(st.none(), st.integers(0, 3)))
    to = draw(st.one_of(st.none(), st.integers(0, 2))) if kind == "bijet" else None
    den = draw(st.sampled_from([1, 2, 3, 6]))
    small = st.lists(st.integers(-2, 2).map(lambda v: F(v, den)), min_size=1, max_size=5)

    def entry():
        if kind == "jet":
            return Jet(draw(small), xo)
        return BiJet(draw(st.lists(small, min_size=1, max_size=4)), xo, to)
    return MatrixJet([[entry() for _ in range(dim)] for _ in range(dim)])


@st.composite
def _pairs_to_compare(draw):
    """(a, b): b independent of a, a truncation of a (also one that cuts off the
    coefficient that set a's denominator), a promoted, a shifted in one
    coefficient of x or of t, a finite-order zero, or of another dimension."""
    dim = draw(st.sampled_from([1, 2]))
    a = draw(_matrix(dim, draw(st.sampled_from(["jet", "bijet"]))))
    how = draw(st.sampled_from(["independent", "truncated", "cut past a denominator",
                                "promoted", "shifted", "zero", "other dim"]))
    if how == "cut past a denominator" and a.x_order != 0:
        k = draw(st.integers(0, 2 if a.x_order is None else a.x_order - 1))
        a = a + MatrixJet.diagonal(Jet([0] * (k + 1) + [F(1, 7)]), dim)
        b = a.truncate(k, a.t_order)
    elif how in ("independent", "cut past a denominator"):
        b = draw(_matrix(dim, draw(st.sampled_from(["jet", "bijet"]))))
    elif how == "truncated":
        xo = draw(st.integers(0, 3)) if a.x_order is None else draw(st.integers(0, a.x_order))
        to = None if a.t_order is None else draw(st.integers(0, a.t_order))
        b = a.truncate(xo, to)
    elif how == "promoted":
        b = a.promote()
    elif how == "shifted":  # in x^k, or in t^k
        k, c = draw(st.integers(0, 4)), F(1, draw(st.sampled_from([1, 2, 5])))
        if draw(st.booleans()):
            bump = MatrixJet.diagonal(Jet([0] * k + [c]), dim)
        else:
            bump = MatrixJet([[BiJet([[0] * k + [c if i == j else 0]]) for j in range(dim)]
                              for i in range(dim)])
        b = a + bump
    elif how == "zero":
        a, b = MatrixJet.zeros(dim).truncate(draw(st.integers(0, 3))), a
    else:
        b = draw(_matrix(3 - dim, "jet"))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=400, deadline=None)
@given(_pairs_to_compare())
def test_equality_agrees_with_a_zero_difference(pair):
    a, b = pair
    expected = a.dim == b.dim and (a - b).is_zero()
    assert (a == b) is expected
    assert (b == a) is expected
    assert (a != b) is not expected


def test_units_are_shared_per_dimension():
    assert MatrixRealization(3).zero is MatrixRealization(3).zero
    assert MatrixRealization(3).one is MatrixJet.identity(3) is MatrixJet.identity(3)
    assert MatrixJet.zeros(2) is random_matrix_jet(random.Random(1), 2, 3).zero_like()
    assert MatrixJet.identity(2) is not MatrixJet.identity(3)
    assert MatrixJet.zeros(2) == MatrixJet.diagonal(Jet.constant(0), 2)
    assert MatrixJet.identity(2) == MatrixJet.diagonal(Jet.constant(1), 2)


def test_diagonal_is_built_as_the_constructor_builds_it():
    b, zero = BiJet([[1, 2], [3, 4]], 3, 2), Jet.constant(0)
    for v in (b, x_jet(5), x_jet(), exp_jet(F(3, 2), 6), Jet.constant(1), Jet([F(1, 2), 3])):
        for dim in (1, 2, 3):
            d = MatrixJet.diagonal(v, dim)
            m = MatrixJet([[v if i == j else zero for j in range(dim)] for i in range(dim)])
            assert (d.kind, d.x_order, d.t_order, d.nums, d.den) == (
                m.kind, m.x_order, m.t_order, m.nums, m.den)
    d = MatrixJet.diagonal(x_jet(2), 2)
    assert (d.nums, d.den) == ([[[[0, 1, 0]], [[0, 0, 0]]], [[[0, 0, 0]], [[0, 1, 0]]]], 1)
    # a bi-jet keeps its t-levels and its t-order
    d = MatrixJet.diagonal(b, 2)
    assert (d.kind, d.t_order, len(d.t_levels())) == ("bijet", 2, 3)
    assert d.d0() == MatrixJet.diagonal(b.dt(), 2)
    with pytest.raises(TypeError, match="entries must all be Jet or BiJet values"):
        MatrixJet.diagonal(3, 2)


def test_matrices_need_dimension_one():
    # as for MatrixJet([]): refused when built, not at the first product
    for build in (lambda: MatrixJet.identity(0), lambda: MatrixJet.zeros(-1),
                  lambda: MatrixJet.diagonal(Jet([1, 2], 1), 0),
                  lambda: MatrixRealization(0).one, lambda: MatrixRealization(0).zero):
        with pytest.raises(ValueError, match="dimension"):
            build()
    with pytest.raises(ValueError):
        MatrixJet([])


# -- dim-1 oracle: sympy series -------------------------------------------------------


def _series_jet(sympy, expr, x, order):
    """The Taylor coefficients of ``expr`` at x = 0, from sympy, as a jet of ``order``."""
    # one rational function in lowest terms expands much faster than a product or quotient
    s = sympy.series(sympy.cancel(expr), x, 0, order + 1).removeO()
    cs = (sympy.Rational(s.coeff(x, k)) for k in range(order + 1))
    return Jet([F(int(c.p), int(c.q)) for c in cs], order)


def _poly_jet(sympy, expr, x):
    """An exact jet of the polynomial ``expr``."""
    cs = reversed(sympy.Poly(expr, x).all_coeffs())
    return Jet([F(int(c.p), int(c.q)) for c in cs])


def test_dim1_products_inverse_log_derivative_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    x, R = sympy.symbols("x"), sympy.Rational
    rng = random.Random(17)
    p = R(3, 7) + R(2, 5) * x - R(1, 3) * x**3 + R(5, 11) * x**4
    q = R(1, 2) - R(7, 3) * x**2 + R(2, 9) * x**5
    f, g = q / p, (R(-4, 5) + R(1, 6) * x) / (1 + R(2, 3) * x - R(3, 8) * x**2)
    order = 40
    jf, jg = _series_jet(sympy, f, x, order), _series_jet(sympy, g, x, order)
    for a, b, expected in (
        (jf, jg, _series_jet(sympy, f * g, x, order)),
        (jf.truncate(17), jg, _series_jet(sympy, f * g, x, 17)),
        (_poly_jet(sympy, q, x), jf, _series_jet(sympy, q * f, x, order)),
    ):
        assert (a * b).order == expected.order
        assert a * b == expected and b * a == expected
    # exact polynomial products on both sides of the Kronecker threshold
    for degree in (3, 12, 40):
        u, v = (sum(R(rng.randint(-9, 9), rng.randint(1, 9)) * x**k for k in range(degree + 1))
                for _ in range(2))
        product = _poly_jet(sympy, u, x) * _poly_jet(sympy, v, x)
        assert product == _poly_jet(sympy, sympy.expand(u * v), x)
    phi = MatrixJet.scalar(jf)
    inv = phi.invert()
    assert inv.x_order == order
    assert inv == MatrixJet.scalar(_series_jet(sympy, 1 / f, x, order))
    s = sympy.diff(f, x) / f
    for side, sign in (("right", 1), ("left", -1)):
        got = log_derivative(phi, side)
        assert got.x_order == order - 1
        assert got == MatrixJet.scalar(_series_jet(sympy, sign * s, x, order - 1))


# -- the integer kernel's fast paths and invariants ------------------------------------


def _reference_product(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]


_coeff = st.one_of(
    st.integers(-3, 3), st.integers(-(2**200), 2**200), st.integers(-(2**400), 2**400)
)
_int_poly = st.one_of(
    st.lists(_coeff, min_size=1, max_size=23),
    st.integers(1, 23).map(lambda n: [0] * n),
).flatmap(lambda cs: st.integers(0, 4).map(lambda pad: cs + [0] * pad))


def _both_ways(monkeypatch, pairs):
    """``_sum_of_products(pairs)`` packed, then term by term, as (nums, den, orders)."""
    out = []
    for packed in (True, False):
        monkeypatch.setattr(jets_module, "prefers_packing", lambda *_: packed)
        m = jets_module._sum_of_products(pairs)
        out.append((m.nums, m.den, m.x_order, m.t_order))
    return out


@settings(max_examples=300, deadline=None)
@given(a=_int_poly, b=_int_poly, finite=st.booleans(), data=st.data())
def test_kronecker_matches_schoolbook(a, b, finite, data):
    # an exact product keeps every coefficient, without trailing zeros; a finite
    # order o keeps o + 1 of them: one operand is cut or padded to that order and
    # the other stores what it was given, often past the kept order
    if finite:
        n = data.draw(st.integers(1, len(a) + len(b) + 2))
        a = (a + [0] * n)[:n]
        x, y = Jet(a, n - 1), Jet(b, max(len(b), n) - 1)
        if data.draw(st.booleans()):
            (a, x), (b, y) = (b, y), (a, x)
        expected, order = _reference_product(a, b, n), n - 1
    else:
        x, y, order = Jet(a), Jet(b), None
        expected = _reference_product(a, b, len(a) + len(b) - 1)
        while len(expected) > 1 and not expected[-1]:
            expected.pop()
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = _both_ways(monkeypatch, [(x._m, y._m)])
    assert got == [([[[expected]]], 1, order, None)] * 2


@pytest.mark.parametrize("dim, pairs", [(1, 1), (2, 1), (3, 1), (1, 4), (2, 3)],
                         ids=["1", "2", "3", "1-by-4-pairs", "2-by-3-pairs"])
def test_kronecker_slots_hold_extreme_sums(dim, pairs, monkeypatch):
    # equal extreme coefficients make the middle output coefficient the full sum of
    # K * length products, the largest value a slot must hold; a sum of ``pairs``
    # dim x dim products is one product over K = pairs * dim
    inner = pairs * dim
    for bits in range(1, 19):
        for length in (1, 2, 3, 4, 5, 8, 9, 16, 17):
            p = MatrixJet([[Jet([2**bits - 1] * length)] * dim] * dim)
            for sign in (1, -1):
                q = MatrixJet([[Jet([sign * (2**bits - 1)] * length)] * dim] * dim)
                expected = [inner * c for c in _reference_product(p.nums[0][0][0],
                                                                  q.nums[0][0][0], 2 * length - 1)]
                got = _both_ways(monkeypatch, [(p, q)] * pairs)
                assert got == [([[[expected]] * dim] * dim, 1, None, None)] * 2


# Matrices of jets or bi-jets next to an independent model: one
# ({(i, j): Fraction}, x_order, t_order) per entry, as in the bi-jet oracle above.
_numerator = st.one_of(st.integers(-3, 3), st.integers(-(2**400), 2**400))


@st.composite
def _matrix_with_model(draw, dim):
    kind = draw(st.sampled_from(("jet", "bijet")))
    # narrow matrices pack into machine-word slots; wide ones mix in 400-bit
    # numerators and 64-bit denominators
    wide = draw(st.booleans())
    xo = draw(st.none() | st.integers(0, 9))
    to = draw(st.none() | st.integers(0, 3)) if kind == "bijet" else None
    entries, rows_of = [], []
    for _ in range(dim * dim):
        shape = draw(st.sampled_from(("zero", "constant", "series", "series")))
        # a series entry sometimes carries more x-order than the matrix keeps
        more = 0 if xo is None or shape != "series" else draw(st.sampled_from((0, 0, 1, 2)))
        den = draw(st.integers(1, 7) | st.integers(1, 2**64) if wide else st.integers(1, 7))
        nx = 1 if shape != "series" else draw(st.integers(1, 10 if xo is None else xo + more + 2))
        nt = 1 if shape != "series" or kind == "jet" else draw(
            st.integers(1, 3 if to is None else to + 2))
        rows = [[F(draw(_numerator if wide else st.integers(-3, 3)), den) if shape != "zero" else 0
                 for _ in range(nt)]
                for _ in range(nx)]
        # a constant or zero entry is sometimes exact inside a finite-order matrix
        exact = shape != "series" and draw(st.booleans())
        exo, eto = (None, None) if exact else (None if xo is None else xo + more, to)
        entries.append(Jet([r[0] for r in rows], exo) if kind == "jet" and not exact
                       else BiJet(rows, exo, eto) if kind == "bijet" and not exact
                       else Jet.constant(rows[0][0]))
        rows_of.append(rows)
    m = MatrixJet([entries[dim * i:dim * (i + 1)] for i in range(dim)])
    models = [_model(rows, m.x_order, m.t_order) for rows in rows_of]
    return m, [models[dim * i:dim * (i + 1)] for i in range(dim)]


def _assert_entry_matches(v, model):
    d, xo, to = model
    if isinstance(v, BiJet):
        levels = v.levels
        assert (v.x_order, v.t_order) == (xo, to)
    else:
        levels = (v,)
        assert (v.order, to) == (xo, None)
    for lv in levels:
        assert lv.den > 0 and gcd(lv.den, *lv.nums) == 1
        assert lv.order == xo and (xo is None or len(lv.nums) == xo + 1)
    nx = (max([i for i, _ in d] + [0]) + 2) if xo is None else xo + 1
    nt = (max([j for _, j in d] + [0]) + 2) if to is None else to + 1
    for i in range(nx):
        for j in range(nt):
            got = v.at(i, j) if isinstance(v, BiJet) else v.at(i) if j == 0 else 0
            assert got == d.get((i, j), 0), (i, j)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "term_by_term"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_matrix_product_matches_fraction_oracle(packed, data):
    # every product is packed (or term by term), whichever way the rule would choose
    dim = data.draw(st.integers(1, 3))
    (a, ma), (b, mb) = data.draw(_matrix_with_model(dim)), data.draw(_matrix_with_model(dim))
    chosen, jets_module.prefers_packing = jets_module.prefers_packing, lambda *_: packed
    try:
        for x, y, mx, my in ((a, b, ma, mb), (b, a, mb, ma)):
            product, model = x * y, _model_matmul(mx, my)
            assert product.kind == ("jet" if x.kind == y.kind == "jet" else "bijet")
            for i in range(dim):
                for j in range(dim):
                    _assert_entry_matches(product.entries[i][j], model[i][j])
        # entry products (jet, bi-jet or mixed) are the same product on 1x1 operands
        entry = a.entries[0][0] * b.entries[0][0]
    finally:
        jets_module.prefers_packing = chosen
    _assert_entry_matches(entry, _model_mul(ma[0][0], mb[0][0]))


def _chain_of_products(pairs):
    """sum_p a_p b_p as a product, then one ``+`` per further pair."""
    acc = pairs[0][0] * pairs[0][1]
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def _outcome(fn, pairs):
    """(kind, orders, numerators, denominator) of ``fn(pairs)``, or the class of
    the domain error raised."""
    try:
        m = fn(pairs)
    except KernelError as err:
        return type(err)
    return m.kind, m.x_order, m.t_order, m.nums, m.den


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sum_of_products_matches_the_chain_of_products_and_sums(data):
    # mixed kinds, unequal denominators, finite-order zeros and exact axes; now
    # and then one operand of another size, which both must refuse
    dim = data.draw(st.integers(1, 3))
    count = data.draw(st.integers(1, 4))
    ops = [data.draw(_matrix_with_model(dim))[0] for _ in range(2 * count)]
    if data.draw(st.integers(0, 9)) == 0:
        ops[data.draw(st.integers(0, 2 * count - 1))] = MatrixJet.identity(dim % 3 + 1)
    pairs = list(zip(ops[::2], ops[1::2]))
    expected = _outcome(_chain_of_products, pairs)
    assert _outcome(jets_module._sum_of_products, pairs) == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_sum_of_products_slots_hold_the_whole_sum(dim):
    # four equal extreme pairs, packed: their sum needs two bits more than a slot
    # sized for one product holds, and every few widths a slot has no bit to spare
    for bits in range(1, 41):
        for sign in (1, -1):
            a = MatrixJet([[Jet([2**bits - 1] * 16, 15)] * dim] * dim)
            pairs = [(a, a * sign)] * 4
            expected = _outcome(_chain_of_products, pairs)
            assert _outcome(jets_module._sum_of_products, pairs) == expected


# 2^b - 1 for b next to a machine word, so slot widths sit at the word boundaries
_edge = st.sampled_from((7, 8, 15, 16, 31, 32, 63, 64)).flatmap(
    lambda b: st.sampled_from((2**b - 1, 1 - 2**b)))
_cut_coeff = st.one_of(st.integers(-3, 3), _edge, st.integers(-(2**400), 2**400))


@st.composite
def _jet_matrix(draw, dim, order):
    """A jet matrix of x-order ``order`` or a little more, over its own denominator."""
    xo = order + draw(st.sampled_from((0, 0, 1, 3)))
    den = draw(st.integers(1, 7) | st.integers(1, 2**64))
    cells = [[Jet([F(c, den) for c in draw(st.lists(_cut_coeff, min_size=xo + 1,
                                                     max_size=xo + 1))], xo)
              for _ in range(dim)] for _ in range(dim)]
    return MatrixJet(cells)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_low_cut_is_the_sum_sliced(data):
    # (sum_p a_p b_p) / x^low, packed and term by term, is the full sum without its
    # first low coefficients, over pairs whose products have different denominators
    dim, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    order = data.draw(st.integers(0, 12))
    pairs = [(data.draw(_jet_matrix(dim, order)), data.draw(_jet_matrix(dim, order)))
             for _ in range(count)]
    xo = min(m.x_order for pair in pairs for m in pair)
    low = data.draw(st.sampled_from(sorted({0, min(1, xo), xo})))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for packed in (True, False):
            monkeypatch.setattr(jets_module, "prefers_packing", lambda *_: packed)
            full = jets_module._sum_of_products(pairs)
            sliced = MatrixJet._of("jet", [[[lv[low:] for lv in e] for e in row]
                                           for row in full.nums], full.den, xo - low, None)
            cut = jets_module._sum_of_products(pairs, low)
            assert (cut.kind, cut.x_order, cut.t_order, cut.nums, cut.den) == (
                "jet", xo - low, None, sliced.nums, sliced.den)


def test_low_cut_needs_a_finite_jet_sum_at_least_as_long():
    jet, one = MatrixJet.diagonal(Jet([1, 2, 3], 2), 2), MatrixJet.identity(2)
    for pairs, low in (([(jet, jet)], 3), ([(jet, jet)], -1), ([(one, one)], 1),
                       ([(jet.promote(), jet)], 1)):
        with pytest.raises(ValueError, match="^cannot cut"):
            jets_module._sum_of_products(pairs, low)


def test_newton_steps_form_only_the_unknown_coefficients(monkeypatch):
    # nonzero coefficient pairs multiplied while inverting, all term by term:
    # Newton steps X(2I - A_0 X) of two full products come to 24345 here, and the
    # middle and short products must keep the count to 0.6 of that
    count, schoolbook = [0], jets_module._schoolbook

    def counting(a, b, n, low):
        for i, k, j in itertools.product(range(len(a)), range(len(b)), range(len(b[0]))):
            ts = [t for t, v in enumerate(b[k][j]) if v]
            count[0] += sum(low <= s + t < n for s, v in enumerate(a[i][k]) if v for t in ts)
        return schoolbook(a, b, n, low)

    monkeypatch.setattr(jets_module, "_schoolbook", counting)
    monkeypatch.setattr(jets_module, "prefers_packing", lambda *_: False)
    phi = MatrixJet.diagonal(exp_jet(F(13, 9), 160), 1)
    inverse = phi.invert()
    assert count[0] <= 0.6 * 24345
    assert inverse == MatrixJet.diagonal(exp_jet(F(-13, 9), 160), 1)


# -- operands that carry no information: constant pairs, exact zeros, packed words ----


def _read(m):
    """Each entry of ``m`` as the model ({(i, j): nonzero coefficient}, x_order,
    t_order), read through ``entries`` and ``at`` alone; exact axes are read to
    ``_SCAN``, past every operand drawn here."""
    def model(v):
        xo, to = v.x_order, v.t_order
        at = v.at if isinstance(v, BiJet) else lambda i, j: v.at(i)
        nt = 1 if isinstance(v, Jet) else (_SCAN if to is None else to) + 1
        cells = itertools.product(range((_SCAN if xo is None else xo) + 1), range(nt))
        return {k: c for k in cells if (c := at(*k))}, xo, to
    return [[model(v) for v in row] for row in m.entries]


def _assert_matrix_matches(m, kind, models):
    assert m.kind == kind
    for row, model_row in zip(m.entries, models):
        for v, model in zip(row, model_row):
            _assert_entry_matches(v, model)


_big_numerator = st.integers(2**299, 2**300).flatmap(lambda n: st.sampled_from((n, -n)))
_scalar = st.one_of(st.sampled_from((0, 1, -1)), st.fractions(-5, 5, max_denominator=12),
                    st.builds(F, _big_numerator, st.integers(1, 2**64)))


@st.composite
def _constant_matrix(draw, dim, finite_jets):
    """``c I`` from the public constructors, a jet or bi-jet of any orders (a
    finite-order jet when ``finite_jets``); half the time one coefficient more
    makes it a near miss (off the diagonal, past x^0 t^0, or a diagonal entry
    unlike the others), which must not pass for constant."""
    c = draw(_scalar)
    kind = "jet" if finite_jets else draw(st.sampled_from(("jet", "bijet")))
    xo = draw(st.integers(0, 9) if finite_jets else st.none() | st.integers(0, 9))
    to = draw(st.none() | st.integers(0, 3)) if kind == "bijet" else None
    # entry (i, j) as rows[i][j][k][m], the coefficient of x^k t^m
    rows = [[[[c if i == j else 0]] for j in range(dim)] for i in range(dim)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        k = draw(st.integers(0, 2 if xo is None else min(xo, 2)))
        m = draw(st.integers(0, 1 if to is None else min(to, 1))) if kind == "bijet" else 0
        grid = [[0] * (m + 1) for _ in range(k + 1)]
        grid[0][0] = rows[i][j][0][0]
        grid[k][m] += draw(st.sampled_from((1, -1, F(1, 2))))
        rows[i][j] = grid
    if kind == "jet":
        return MatrixJet([[Jet([r[0] for r in e], xo) for e in row] for row in rows])
    return MatrixJet([[BiJet(e, xo, to) for e in row] for row in rows])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constant_pairs_match_the_entrywise_convolution(data):
    # pairs with c I on the left, the right or both sides, often every pair, beside
    # dense pairs; constants of any order (a finite one caps the sum) and kind; the
    # oracle convolves the entries as read back, one Fraction at a time
    dim, count = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    finite_jets = data.draw(st.booleans())  # where a low cut is valid

    def operand(constant):
        if constant:
            return data.draw(_constant_matrix(dim, finite_jets))
        if finite_jets:
            return data.draw(_jet_matrix(dim, data.draw(st.integers(0, 9))))
        return data.draw(_matrix_with_model(dim))[0]

    shapes = ("left", "right", "both") + (() if data.draw(st.booleans()) else ("neither",))
    pairs = []
    for _ in range(count):
        shape = data.draw(st.sampled_from(shapes))
        pairs.append((operand(shape in ("left", "both")), operand(shape in ("right", "both"))))
    low = data.draw(st.sampled_from((0, 0, 1, 2, 5)))
    kind = "bijet" if any(m.kind == "bijet" for pair in pairs for m in pair) else "jet"
    total = [[({}, None, None)] * dim for _ in range(dim)]
    for a, b in pairs:
        total = [[_model_add(x, y) for x, y in zip(r, q)]
                 for r, q in zip(total, _model_matmul(_read(a), _read(b)))]
    xo = total[0][0][1]
    if low and (kind != "jet" or xo is None or not 0 < low <= xo):
        with pytest.raises(ValueError):
            jets_module._sum_of_products(pairs, low)
        return
    expected = [[({(i - low, j): c for (i, j), c in d.items() if i >= low and c},
                  None if o is None else o - low, t) for d, o, t in row] for row in total]
    _assert_matrix_matches(jets_module._sum_of_products(pairs, low), kind, expected)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pack_and_unpack_at_every_slot_width(data):
    # signed slots of 1 to 12 bytes, at and next to the ends of their range;
    # an unpack keeps slots low to n - 1 whatever the integer holds above slot n
    nb = data.draw(st.integers(1, 12))
    h = 1 << (8 * nb - 1)
    cs = data.draw(st.lists(st.sampled_from((-h, -h + 1, h - 1, 0)) | st.integers(-h, h - 1),
                            min_size=1, max_size=12))
    n = len(cs)
    packed = sum(c << (8 * nb * k) for k, c in enumerate(cs))
    assert intpoly._pack(cs, nb) == packed
    garbage = data.draw(st.integers(-(2**300), 2**300))
    low = data.draw(st.integers(0, n - 1))
    assert intpoly._unpack(packed + (garbage << (8 * nb * n)), n, nb, low) == cs[low:]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exact_zero_summands_are_returned_as_they_are(data):
    # m + 0, 0 + m, m - 0 and 0 - m for a jet or bi-jet m and a zero of either
    # kind, exact or of finite orders, against the entry-wise sums of the models;
    # an exact zero caps nothing, so the sum is m itself when no promotion is due
    dim = data.draw(st.integers(1, 3))
    m, model = data.draw(_matrix_with_model(dim))
    kind = data.draw(st.sampled_from(("jet", "bijet")))
    xo = data.draw(st.none() | st.integers(0, 9))
    to = data.draw(st.none() | st.integers(0, 3)) if kind == "bijet" else None
    cell = (lambda: Jet([0], xo)) if kind == "jet" else (lambda: BiJet([[0]], xo, to))
    zero = MatrixJet([[cell() for _ in range(dim)] for _ in range(dim)])
    zero_model = [[({}, xo, to)] * dim] * dim
    total = "jet" if m.kind == kind == "jet" else "bijet"

    def entrywise(x, y, sign):
        return [[_model_add(p, q, sign) for p, q in zip(r, s)] for r, s in zip(x, y)]

    for got, expected in ((m + zero, entrywise(model, zero_model, 1)),
                          (zero + m, entrywise(zero_model, model, 1)),
                          (m - zero, entrywise(model, zero_model, -1)),
                          (zero - m, entrywise(zero_model, model, -1))):
        _assert_matrix_matches(got, total, [[({k: c for k, c in d.items() if c}, o, t)
                                              for d, o, t in row] for row in expected])
    # (two exact zeros give the left one)
    if (xo, to) == (None, None) and total == m.kind and (
            (m.x_order, m.t_order, m.is_zero()) != (None, None, True)):
        assert m + zero is m and zero + m is m and m - zero is m


def _fresh(m):
    """``m`` over a copied grid, so nothing it has measured or packed carries over."""
    return MatrixJet._new(m.kind, copy.deepcopy(m.nums), m.den, m.x_order, m.t_order)


def _grid(entry, x_order, t_order=None):
    """2 x 2 matrix of shifted copies of ``entry``, a list of x-coefficients (jet)
    or of rows ``[x^i t^0, x^i t^1, ...]`` (bi-jet)."""
    shifted = [entry[k:] + entry[:k] for k in range(4)]
    cells = [Jet(e, x_order) if t_order is None else BiJet(e, x_order, t_order) for e in shifted]
    return MatrixJet([cells[:2], cells[2:]])


_BIG = 2**400 - 1
_small = [1, -2, 3, 0, 5, -1, 2, 7]
_tail = [3, -1, 0, 2, 1, -2, _BIG, -_BIG, _BIG, -_BIG]
# each reused operand meets, in this order: a partner that keeps fewer coefficients
# than it stores, a bi-jet that cuts it shorter still, a narrow slot, a 400-bit
# slot, and a short exact jet then a bi-jet, two strides for a bi-jet operand
_REUSED = {
    "jet": _grid(_small, 7),
    "bijet": _grid([[c, -c, 2 * c] for c in _small], 7, 2),
    "jet_with_big_tail": _grid(_tail, 9),
    "bijet_with_big_tail": _grid([[c, c] for c in _tail], 9, 1),
}
_PARTNERS = [
    _grid([2, 1, -1, 1], 3),
    _grid([[1, c] for c in _small[:6]], 5, 1),
    _grid(_small + [1, 1], 9),
    _grid([_BIG - k for k in range(10)], 9),
    _grid([1, 1], None),
    _grid([[c, 1, -c] for c in _small + [2, 3]], 9, 2),
]


@pytest.mark.parametrize("name", list(_REUSED))
def test_reused_packs_stay_exact(name, monkeypatch):
    # one operand goes packed through every product below, so later products read
    # the packs and statistics that earlier ones left on it; each result must match
    # the same product on fresh copies, and the chain of products term by term
    a = _fresh(_REUSED[name])
    for p in _PARTNERS:
        for pairs in ([(a, p)], [(p, a)], [(a, p), (p, a)], [(a * F(1, 3), p), (a, a)]):
            monkeypatch.setattr(jets_module, "prefers_packing", lambda *_: True)
            got = _outcome(jets_module._sum_of_products, pairs)
            fresh = [tuple(map(_fresh, pair)) for pair in pairs]
            assert got == _outcome(jets_module._sum_of_products, fresh)
            monkeypatch.setattr(jets_module, "prefers_packing", lambda *_: False)
            assert got == _outcome(_chain_of_products, [tuple(map(_fresh, pair)) for pair in pairs])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_operations_never_mutate_their_operands(data):
    # packs and statistics are kept per matrix, which is sound only while no
    # operation writes into a grid, its own or one it shares with its result
    dim = data.draw(st.integers(1, 3))
    (a, _), (b, _) = data.draw(_matrix_with_model(dim)), data.draw(_matrix_with_model(dim))
    before = copy.deepcopy((a.nums, b.nums))
    calls = [
        lambda: jets_module._sum_of_products([(a, b), (b, a), (a, a)]),
        lambda: a * b, lambda: b * a, lambda: a * F(-3, 2), lambda: a + b, lambda: a - b,
        lambda: -a, a.d, a.d0, a.star, a.invert, a.t_levels, a.promote,
        lambda: a.truncate(0, 0),
        lambda: MatrixJet.from_t_levels(a.t_levels(), a.t_order),
        lambda: a.promote() * b + a.t_levels()[0] * b,
    ]
    results = []
    for call in calls:
        try:
            results.append(call())
        except KernelError:
            pass
    # results that share a grid with an operand go through products of their own
    for m in results:
        if isinstance(m, MatrixJet) and m.dim == dim:
            m * m
    assert (a.nums, b.nums) == before


_fraction = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), st.integers(-(2**80), 2**80)
)
_jet = st.builds(
    lambda cs, order: Jet(cs, order),
    st.lists(_fraction, min_size=1, max_size=12),
    st.none() | st.integers(0, 11),
)


@settings(max_examples=100, deadline=None)
@given(a=_jet, b=_jet, q=_fraction, cut=st.integers(0, 11))
def test_stored_jets_are_in_lowest_terms(a, b, q, cut):
    results = [a, b, a + b, a - b, a * b, -a, a * q, q - a, a.reflect()]
    if a.order != 0:
        results.append(a.d())
    if a.order is None or cut <= a.order:
        results.append(a.truncate(cut))
    for j in results:
        assert j.den > 0 and gcd(j.den, *j.nums) == 1
        assert j.order is None or len(j.nums) == j.order + 1
    assert a * b == b * a


def _assert_stored_in_lowest_terms(m):
    """One positive den, coprime to the numerators as a whole, and entry lengths that
    match the order ledger: n + 1 of each finite order n, no trailing zeros on an
    exact axis, one t-level per jet-kind entry."""
    numerators = [v for row in m.nums for e in row for lv in e for v in lv]
    assert m.den > 0 and gcd(m.den, *numerators) == 1
    assert len(m.nums) == m.dim and all(len(row) == m.dim for row in m.nums)
    for e in (e for row in m.nums for e in row):
        if m.kind == "jet":
            assert len(e) == 1 and m.t_order is None
        elif m.t_order is not None:
            assert len(e) == m.t_order + 1
        else:
            assert len(e) == 1 or any(e[-1])
        for lv in e:
            if m.x_order is not None:
                assert len(lv) == m.x_order + 1
            else:
                assert len(lv) == 1 or lv[-1] != 0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matrix_results_are_stored_in_lowest_terms(data):
    dim = data.draw(st.integers(1, 3))
    (a, _), (b, _) = data.draw(_matrix_with_model(dim)), data.draw(_matrix_with_model(dim))
    q = data.draw(_fraction)
    results = [a, b, a + b, a - b, b - a, a * b, b * a, -a, a * q, q * a, a.star(), a.promote(),
               *a.t_levels(), MatrixJet.from_t_levels(a.t_levels(), a.t_order)]
    if a.x_order != 0:
        results.append(a.d())
    if a.kind == "bijet" and a.t_order != 0:
        results.append(a.d0())
    if a.x_order is None or a.x_order > 0:
        results.append(a.truncate(1 if a.x_order is None else a.x_order - 1, a.t_order))
    # the boundary constructor cuts every entry to the smallest x-order among them
    rows = [list(row) for row in a.entries]
    rows[0][0] = rows[0][0].truncate(0, a.t_order)
    results.append(MatrixJet(rows))
    # a constant term of I makes an inverse exist whenever the t-axis allows one
    x = MatrixJet.diagonal(x_jet(6 if a.x_order is None else a.x_order), dim)
    shifted = MatrixJet.identity(dim) + a * x
    if shifted.kind == "jet" or shifted.t_order is not None:
        results.append(shifted.invert())
    try:
        results.append(a.invert())
    except (SingularConstantTermError, PrecisionExhaustedError):
        pass
    for m in results:
        _assert_stored_in_lowest_terms(m)
    # the entries view reads the same values in lowest terms per entry and t-level
    for v in (e for row in (a * b).entries for e in row):
        assert all(lv.den > 0 and gcd(lv.den, *lv.nums) == 1 for lv in v.levels)


def _leibniz_det(a):
    """Determinant as a signed sum over permutations, independent of elimination."""
    n, total = len(a), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


_square = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3) | st.integers(-(2**70), 2**70), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(a=_square)
def test_fraction_free_inverse(a):
    det = _leibniz_det(a)
    if det == 0:
        with pytest.raises(SingularConstantTermError):
            jets_module._mat_inv(a)
        return
    adj, d = jets_module._mat_inv(a)
    # the denominator is Bareiss's last pivot, the determinant, made positive
    assert d == abs(det)
    n = len(a)
    for i in range(n):
        for j in range(n):
            assert sum(F(a[i][k]) * F(adj[k][j], d) for k in range(n)) == (i == j)


def _random_invertible(rng, dim, order):
    """A dim x dim matrix jet with rational coefficients and an invertible constant term."""
    while True:
        m = MatrixJet([
            [Jet([F(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(order + 1)], order)
             for _ in range(dim)]
            for _ in range(dim)
        ])
        try:
            m.truncate(0).invert()
            return m
        except SingularConstantTermError:
            continue


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_newton_inverse_is_two_sided(dim):
    rng = random.Random(dim)
    one = MatrixJet.identity(dim)
    for order in (0, 1, 2, 3, 4, 7, 8, 13):
        a = _random_invertible(rng, dim, order)
        inv = a.invert()
        assert inv.x_order == order
        assert a * inv == one and inv * a == one
    # an exact constant matrix has an exact inverse
    c = MatrixJet.constant([[F(rng.randint(-7, 7), 3) + (5 if i == j else 0) for j in range(dim)]
                            for i in range(dim)])
    assert c.invert().x_order is None
    assert c * c.invert() == one and c.invert() * c == one
    # a singular constant term stays an error whatever the higher orders hold
    rank_deficient = MatrixJet.constant([[1] * dim] * dim if dim > 1 else [[0]])
    singular = rank_deficient + MatrixJet.diagonal(x_jet(6), dim) * _random_invertible(rng, dim, 6)
    with pytest.raises(SingularConstantTermError):
        singular.invert()
