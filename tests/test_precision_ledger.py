"""Valid orders are never overclaimed: a coefficient that is zero only to a
finite order keeps that order through operators, divisions and transforms."""

from fractions import Fraction as F
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BiJet,
    DiffOperator,
    Jet,
    MatrixJet,
    PrecisionExhaustedError,
    SingularConstantTermError,
    darboux_transform,
    divide_left,
    divide_right,
    exp_jet,
    log_derivative,
    make_ls,
    time_propagate,
    transformed_coefficients,
)


def scalar(coeffs, order=None):
    return MatrixJet.scalar(Jet(coeffs, order))


ONE = scalar([1])
Z = scalar([0, 0], 1)  # zero, but only to x-order 1


def value(m):
    """(coefficients, x-order) of a 1 x 1 jet matrix."""
    return list(m.entry(0, 0).coeffs), m.x_order


# -- one reproducer per place a finite-order zero used to be dropped ---------------


def test_transform_keeps_the_orders_of_its_inputs():
    s = scalar([1, 1], 2)
    L = DiffOperator([scalar([-1, 1], 1), scalar([1, 2], 1), ONE])
    a0 = darboux_transform(L, s).transformed.coeff(0)
    assert value(a0) == ([3], 0)
    # inputs that agree with L on its valid orders agree with a0 on x^0 only
    x1 = set()
    for t0, t1 in ((0, 0), (0, 1), (-2, 3)):
        M = DiffOperator([scalar([-1, 1, t0], 2), scalar([1, 2, t1], 2), ONE])
        b0 = darboux_transform(M, s).transformed.coeff(0)
        assert b0.truncate(0) == a0
        x1.add(b0.entry(0, 0).at(1))
    assert len(x1) == 3


def test_apply_keeps_a_zero_coefficient_order():
    image = DiffOperator([ONE, Z, ONE]).apply(scalar([0, 0, 0, 1]))
    assert value(image) == ([0, 6], 1)


def test_compose_keeps_a_zero_coefficient_order():
    d2 = DiffOperator([Z.zero_like(), Z.zero_like(), ONE])
    top = make_ls(Z).compose(d2).coeff(2)
    assert value(top) == ([0, 0], 1)


def test_right_quotient_keeps_a_zero_coefficient_order():
    x = scalar([0, 1])
    quotient = divide_right(DiffOperator([x, Z, ONE]), x).quotient
    assert value(quotient.coeff(0)) == ([0, 1], 1)


def test_exact_factorization_defect_has_the_burgers_order():
    lam = F(3, 2)
    s = log_derivative(MatrixJet.scalar(exp_jet(lam, 8)), "right")
    out = darboux_transform(DiffOperator([scalar([-lam * lam]), Z.zero_like(), ONE]), s)
    assert out.intertwine_defect.is_zero()
    assert out.intertwine_defect.x_order is not None
    assert out.intertwine_defect.x_order == out.burgers_rhs.x_order


# -- prefix stability ---------------------------------------------------------------

_small = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def _axis(draw, exact_len):
    """(length, order) of one axis and of its perturbed copy, which is longer
    exactly when the axis has a finite order."""
    order = draw(st.one_of(st.none(), st.integers(0, 3)))
    if order is None:
        return (exact_len, None), (exact_len, None)
    longer = draw(st.one_of(st.none(), st.integers(order + 1, order + 2)))
    n = order + 1 + draw(st.integers(1, 2)) if longer is None else longer + 1
    return (order + 1, order), (n, longer)


@st.composite
def _matrix_pair(draw, dim, kind):
    """A matrix and a copy that differs from it only beyond its valid orders."""
    (nx, xo), (px, pxo) = draw(_axis(3))
    (nt, to), (pt, pto) = draw(_axis(2)) if kind == "bijet" else ((1, None), (1, None))

    def grid(zero=False):
        return [[0 if zero else draw(_small) for _ in range(pt)] for _ in range(px)]

    zero = draw(st.integers(0, 2)) == 0  # often zero on all valid orders
    pairs = [[(grid(zero), grid()) for _ in range(dim)] for _ in range(dim)]

    def build(n_x, n_t, x_order, t_order, inside):
        def entry(base, tail):
            rows = [[base[i][j] if inside(i, j) else tail[i][j] for j in range(n_t)]
                    for i in range(n_x)]
            if kind == "jet":
                return Jet([r[0] for r in rows], x_order)
            return BiJet(rows, x_order, t_order)

        return MatrixJet([[entry(*p) for p in row] for row in pairs])

    original = build(nx, nt, xo, to, lambda i, j: True)
    perturbed = build(px, pt, pxo, pto, lambda i, j: i < nx and j < nt)
    return original, perturbed


@st.composite
def _operator_pair(draw, dim, kind, min_order, top=None):
    """An operator whose leading coefficient is exact and nonzero, and its
    perturbed copy."""
    order = draw(st.integers(min_order, 3))
    lower = [draw(_matrix_pair(dim, kind)) for _ in range(order)]
    if top is None:
        top = MatrixJet.constant([[draw(_small) for _ in range(dim)] for _ in range(dim)])
        if top.is_zero():
            top = top.one_like()
    coeffs = lower + [(top, top)]
    return tuple(DiffOperator([pair[i] for pair in coeffs]) for i in (0, 1))


def _shape(draw):
    return draw(st.sampled_from([1, 2])), draw(st.sampled_from(["jet", "bijet"]))


def _covers(longer, order):
    return longer is None if order is None else longer is None or longer >= order


def assert_prefix_stable(original, perturbed):
    """Every coefficient ``original`` claims is the same in ``perturbed``."""
    if isinstance(original, DiffOperator):
        assert original.order == perturbed.order
        for a, b in zip(original.coeffs, perturbed.coeffs):
            assert_prefix_stable(a, b)
        return
    assert _covers(perturbed.x_order, original.x_order)
    assert _covers(perturbed.t_order, original.t_order)
    assert perturbed.truncate(original.x_order, original.t_order) == original


def assert_stable_under(fn, original_args, perturbed_args):
    try:
        expected = fn(*original_args)
    except PrecisionExhaustedError:
        return  # nothing is claimed
    for a, b in zip(expected, fn(*perturbed_args)):
        assert_prefix_stable(a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transform_is_prefix_stable(data):
    dim, kind = _shape(data.draw)
    ops = data.draw(_operator_pair(dim, kind, 1))
    s = data.draw(_matrix_pair(dim, kind))

    def fields(L, s):
        out = darboux_transform(L, s)
        return out.transformed, out.remainder, out.intertwine_defect, out.burgers_rhs

    assert_stable_under(fields, (ops[0], s[0]), (ops[1], s[1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_transformed_coefficients_are_prefix_stable(data):
    dim, kind = _shape(data.draw)
    ops = data.draw(_operator_pair(dim, kind, 1))
    s = data.draw(_matrix_pair(dim, kind))
    assert_stable_under(lambda L, s: (transformed_coefficients(L, s),),
                        (ops[0], s[0]), (ops[1], s[1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_time_propagate_is_prefix_stable(data):
    # propagation needs one-variable jets; too short an x-order claims nothing
    dim = data.draw(st.sampled_from([1, 2]))
    ops = data.draw(_operator_pair(dim, "jet", 0))
    phi = data.draw(_matrix_pair(dim, "jet"))
    t_order = data.draw(st.integers(0, 2))
    assert_stable_under(lambda L, p: (time_propagate(L, p, t_order),),
                        (ops[0], phi[0]), (ops[1], phi[1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_divisions_are_prefix_stable(data):
    dim, kind = _shape(data.draw)
    ops = data.draw(_operator_pair(dim, kind, 1))
    s = data.draw(_matrix_pair(dim, kind))
    for divide in (divide_right, divide_left):

        def parts(L, s):
            out = divide(L, s)
            return out.quotient, out.remainder

        assert_stable_under(parts, (ops[0], s[0]), (ops[1], s[1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compose_is_prefix_stable(data):
    dim, kind = _shape(data.draw)
    scaled_identity = MatrixJet.identity(dim) * data.draw(st.sampled_from([1, -1, 2]))
    left = data.draw(_operator_pair(dim, kind, 0, top=scaled_identity))
    right = data.draw(_operator_pair(dim, kind, 0))
    assert_stable_under(lambda a, b: (a.compose(b),), (left[0], right[0]), (left[1], right[1]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_is_prefix_stable(data):
    dim, kind = _shape(data.draw)
    ops = data.draw(_operator_pair(dim, kind, 0))
    phi = data.draw(_matrix_pair(dim, kind))
    assert_stable_under(lambda L, p: (L.apply(p),), (ops[0], phi[0]), (ops[1], phi[1]))


def assert_inverse_stable(fn, original, perturbed):
    """``assert_stable_under`` for a function that inverts its one argument.  A
    singular constant term claims nothing, and neither does a perturbed copy
    with an exact axis that ``invert`` refuses: an exact series has no inverse
    when it depends on that axis beyond the constant term."""
    try:
        expected = fn(original)
    except (PrecisionExhaustedError, SingularConstantTermError):
        return  # nothing is claimed
    try:
        got = fn(perturbed)
    except PrecisionExhaustedError:
        assert perturbed.x_order is None or (
            perturbed.kind == "bijet" and perturbed.t_order is None)
        return
    assert_prefix_stable(expected, got)


def _invertible_pair(data):
    """A matrix pair shifted by an exact multiple of the identity, so that most
    constant terms are invertible."""
    dim, kind = _shape(data.draw)
    shift = MatrixJet.identity(dim) * data.draw(st.sampled_from([1, -2, 3]))
    return [m + shift for m in data.draw(_matrix_pair(dim, kind))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_invert_is_prefix_stable(data):
    assert_inverse_stable(MatrixJet.invert, *_invertible_pair(data))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_log_derivative_is_prefix_stable(data):
    original, perturbed = _invertible_pair(data)
    for side in ("right", "left"):
        assert_inverse_stable(partial(log_derivative, side=side), original, perturbed)
