"""Composition, application and bookkeeping of differential operators."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BiJet,
    ConsistencyError,
    DefectNotScalarError,
    DiffOperator,
    FreeRing,
    Jet,
    KernelError,
    KernelPremiseViolatedError,
    MatrixJet,
    MatrixRealization,
    RealizationMismatchError,
    d_power_operator,
    identity_operator,
    make_ls,
    x_jet,
)
from bellops.operators import certify
from helpers import random_element, random_free_operator, random_jet, random_matrix_jet


def test_compose_leibniz_order_one(ring, s):
    # D o (s as order-0 operator) = s D + Ds
    d_op = d_power_operator(ring, 1)
    s_op = DiffOperator([s], ring)
    assert d_op.compose(s_op) == DiffOperator([s.d(), s], ring)


def test_compose_factored_square(ring, s):
    left = make_ls(s)  # D - s
    right = DiffOperator([s, ring.one], ring)  # D + s
    product = left.compose(right)
    assert product == DiffOperator([s.d() - s * s, ring.zero, ring.one], ring)


def test_compose_identity(ring):
    rng = random.Random(1)
    a = random_free_operator(rng, ring)
    ident = identity_operator(ring)
    assert a.compose(ident) == a
    assert ident.compose(a) == a


def test_compose_associative(ring):
    rng = random.Random(2)
    for _ in range(8):
        a = random_free_operator(rng, ring, 3)
        b = random_free_operator(rng, ring, 3)
        c = random_free_operator(rng, ring, 3)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_order_sum_with_unit_leading(ring, s):
    rng = random.Random(3)
    for _ in range(6):
        a = random_free_operator(rng, ring, 3)
        b = random_free_operator(rng, ring, 3)
        a = a - DiffOperator([ring.zero] * a.order + [a.coeff(a.order) - ring.one], ring)
        b = b - DiffOperator([ring.zero] * b.order + [b.coeff(b.order) - ring.one], ring)
        assert a.compose(b).order == a.order + b.order


def test_apply_identity_and_ls(ring, s):
    phi = random_element(random.Random(4), ring)
    assert identity_operator(ring).apply(phi) == phi
    assert make_ls(s).apply(phi) == phi.d() - s * phi


def test_apply_kernel_element():
    from bellops import exp_jet, log_derivative

    phi = MatrixJet.scalar(exp_jet(1, 10))
    s = log_derivative(phi, "right")
    assert make_ls(s).apply(phi).is_zero()


def test_application_homomorphism(ring):
    rng = random.Random(5)
    for _ in range(6):
        a = random_free_operator(rng, ring, 2)
        b = random_free_operator(rng, ring, 2)
        phi = random_element(rng, ring)
        assert a.compose(b).apply(phi) == a.apply(b.apply(phi))


def test_application_homomorphism_jets():
    rng = random.Random(6)
    for _ in range(4):
        a = DiffOperator([random_matrix_jet(rng, 2, 12) for _ in range(3)])
        b = DiffOperator([random_matrix_jet(rng, 2, 12) for _ in range(3)])
        phi = random_matrix_jet(rng, 2, 12)
        assert a.compose(b).apply(phi) == a.apply(b.apply(phi))


def test_compose_associative_jets():
    rng = random.Random(16)
    a = DiffOperator([random_matrix_jet(rng, 2, 12) for _ in range(5)])
    b = DiffOperator([random_matrix_jet(rng, 2, 12) for _ in range(5)])
    c = DiffOperator([random_matrix_jet(rng, 2, 12) for _ in range(5)])
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_precision_exhausted():
    from bellops import PrecisionExhaustedError

    real = MatrixJet.identity(1).realization
    shallow = DiffOperator([MatrixJet.scalar(Jet((2,), 0))], real)
    with pytest.raises(PrecisionExhaustedError):
        d_power_operator(real, 1).compose(shallow)


def leibniz_compose(a, b):
    """a o b by the binomial Leibniz sum
    a_k D^k o b_m D^m = sum_i C(k, i) a_k (D^(k-i) b_m) D^(i+m)."""
    derivs = [[c] for c in b.coeffs]
    for row in derivs:
        for _ in range(a.order):
            row.append(row[-1].d())
    out = {}
    for k, ak in enumerate(a.coeffs):
        for m, row in enumerate(derivs):
            for i in range(k + 1):
                term = ak * row[k - i] * comb(k, i)
                out[i + m] = out[i + m] + term if i + m in out else term
    return DiffOperator([out[p] for p in range(len(out))], a.realization)


def random_ledger_matrix(rng, kind):
    """A 2 x 2 matrix of jets or bi-jets: x-order exact, 0 (too shallow to
    differentiate) or small, t-order exact or small, often zero on every valid
    order."""
    xo, to = rng.choice([None, 0, 1, 2, 3]), rng.choice([None, 0, 1, 2])
    zero = rng.random() < 0.25

    def value():
        return 0 if zero else rng.randint(-2, 2)

    def entry():
        nx = rng.randint(1, 3) if xo is None else xo + 1
        if kind == "jet":
            return Jet([value() for _ in range(nx)], xo)
        nt = rng.randint(1, 2) if to is None else to + 1
        return BiJet([[value() for _ in range(nt)] for _ in range(nx)], xo, to)

    return MatrixJet([[entry() for _ in range(2)] for _ in range(2)])


def composed(compose, a, b):
    """Each coefficient of ``compose(a, b)`` with its kind, orders and grid, or the
    class of the domain error raised."""
    try:
        op = compose(a, b)
    except KernelError as err:
        return type(err)
    return [(c.kind, c.x_order, c.t_order, c.nums, c.den) if isinstance(c, MatrixJet) else c
            for c in op.coeffs]


@pytest.mark.parametrize("kinds", [("free",), ("jet",), ("bijet",), ("jet", "bijet")])
def test_compose_matches_the_leibniz_sum(ring, kinds):
    # the push-through recurrence sums to the closed form: same values, same
    # orders (none lost, none overclaimed), same kind, same error class
    rng = random.Random(17)
    errors = 0
    for _ in range(60):
        ops = []
        for _ in range(2):
            n = rng.randint(0, 4)
            if kinds == ("free",):
                ops.append(random_free_operator(rng, ring, 3) if n else DiffOperator([], ring))
            else:
                coeffs = [random_ledger_matrix(rng, rng.choice(kinds)) for _ in range(n)]
                ops.append(DiffOperator(coeffs, MatrixJet.identity(2).realization))
        expected = composed(leibniz_compose, *ops)
        assert composed(DiffOperator.compose, *ops) == expected
        errors += isinstance(expected, type)
    assert kinds == ("free",) or 0 < errors < 60


def test_add_sub_scale(ring, s):
    rng = random.Random(7)
    a = random_free_operator(rng, ring)
    zero = DiffOperator([], ring)
    assert a + zero == a
    assert (a - a).order == -1
    assert a.scale(ring.one) == a
    assert a.scale(2) + a.scale(-2) == zero


def test_scale_is_left_multiplication(ring, s):
    u = ring.gen("u")
    op = DiffOperator([s], ring)
    assert op.scale(u).coeff(0) == u * s
    assert op.scale(u).coeff(0) != s * u


def test_make_ls(ring, s):
    ls = make_ls(s)
    assert ls.order == 1
    assert ls.coeff(1) == ring.one
    assert ls.coeff(0) == -s
    assert make_ls(ring.zero) == d_power_operator(ring, 1)


def test_ls_squared_applied_to_unit(ring, s):
    # two applications of (D - s) to e give s^2 - Ds, the right table entry at n=2
    ls = make_ls(s)
    value = ls.compose(ls).apply(ring.one)
    assert value == s * s - s.d()


def test_commutation_identity(ring, s):
    # L_s o r - r o L_s = Dr + [r, s] as an order-0 operator
    rng = random.Random(8)
    for _ in range(6):
        r = random_element(rng, ring)
        ls = make_ls(s)
        r_op = DiffOperator([r], ring)
        diff = ls.compose(r_op) - r_op.compose(ls)
        assert diff.order <= 0
        assert diff.coeff(0) == r.d() + (r * s - s * r)


def test_zero_operator_sentinel(ring):
    zero = DiffOperator([], ring)
    assert zero.order == -1
    assert zero.is_zero()
    assert str(zero) == "0"


def test_realization_mismatch(ring):
    with pytest.raises(RealizationMismatchError):
        d_power_operator(ring, 1).compose(DiffOperator([MatrixJet.identity(2)]))


def test_operator_text(ring, s):
    assert str(make_ls(s)) == "D - s"
    assert str(d_power_operator(ring, 2)) == "D^2"
    op = DiffOperator([s * s + s.d(), ring.zero, ring.one], ring)
    assert str(op) == "D^2 + s^2 + D(s)"
    assert str(DiffOperator([ring.zero, 2 * s], ring)) == "2*s*D"
    assert str(DiffOperator([ring.zero, s * s + s.d()], ring)) == "(s^2 + D(s))*D"


def test_precision_consumption_in_apply():
    op = d_power_operator(MatrixJet.scalar(x_jet(4)).realization, 2)
    phi = MatrixJet.scalar(random_jet(random.Random(9), 4))
    image = op.apply(phi)
    assert image.x_order == 2


def test_zero_operator_applies_to_the_zero_of_phis_kind_and_orders(ring, s):
    assert DiffOperator([], ring).apply(s) == ring.zero
    for phi in (MatrixJet([[BiJet([[1, 2], [3]], 3, 2)]]), MatrixJet.scalar(x_jet(5)),
                MatrixJet([[Jet([1, 2]), Jet([3], 4)], [Jet([0]), BiJet([[1, 1]], None, 3)]])):
        image = DiffOperator([], phi.realization).apply(phi)
        nonzero = DiffOperator([phi.one_like()], phi.realization).apply(phi)
        assert image.is_zero()
        assert (image.kind, image.x_order, image.t_order) == (phi.kind, phi.x_order, phi.t_order)
        assert (image.kind, image.x_order, image.t_order) == (
            nonzero.kind, nonzero.x_order, nonzero.t_order)


def test_negation(ring, s):
    rng = random.Random(11)
    a = random_free_operator(rng, ring)
    assert -a == DiffOperator([-c for c in a.coeffs], ring)
    assert (a + -a).is_zero()
    assert -(-a) == a
    assert -DiffOperator([], ring) == DiffOperator([], ring)
    m = random_matrix_jet(rng, 2, 5)
    op = DiffOperator([m, m * m], m.realization)
    assert (-op).coeffs == (-m, -(m * m))
    assert (op + -op).is_zero()


# -- mismatch and certify -------------------------------------------------------------------

FREE = FreeRing(("s",))
_S = FREE.gen("s")
_FREE_POOL = [FREE.zero, FREE.one, _S, -_S, _S.d(), _S * _S + _S.d()]


@st.composite
def _operator_pairs(draw):
    """Two operators over one realization (the free ring, or 1 x 1 or 2 x 2 jets),
    of lengths 0-4 drawn apart, whose coefficients are often equal, or equal on
    their jointly valid orders only, and include exact and finite-order zeros."""
    dim = draw(st.sampled_from([None, 1, 2]))
    if dim is None:
        def fresh():
            return draw(st.sampled_from(_FREE_POOL))

        def alike(c):
            return c
        realization = FREE
    else:
        def fresh():
            xo = draw(st.sampled_from([None, 0, 1, 2]))
            n = draw(st.integers(1, 3)) if xo is None else xo + 1
            cells = st.lists(st.integers(-1, 1) if draw(st.booleans()) else st.just(0),
                             min_size=n, max_size=n)
            return MatrixJet([[Jet(draw(cells), xo) for _ in range(dim)] for _ in range(dim)])

        def alike(c):  # the same values, cut to a lower finite order or kept
            if c.x_order is None or draw(st.booleans()):
                return c
            return c.truncate(draw(st.integers(0, c.x_order)))
        realization = MatrixRealization(dim)
    a = [fresh() for _ in range(draw(st.integers(0, 4)))]
    b = [alike(c) if draw(st.integers(0, 3)) else fresh() for c in a]
    b = b[:draw(st.integers(0, len(b)))] + [fresh() for _ in range(draw(st.integers(0, 2)))]
    return DiffOperator(a, realization), DiffOperator(b, realization)


@settings(max_examples=300, deadline=None)
@given(pair=_operator_pairs(), error=st.sampled_from(
    [ConsistencyError, DefectNotScalarError, KernelPremiseViolatedError, ValueError]))
def test_mismatch_is_the_lowest_power_where_the_difference_is_nonzero(pair, error):
    a, b = pair
    k = a.mismatch(b)
    assert (k is None) == (a == b) == (b.mismatch(a) is None)
    # a second route: the coefficients of the difference operator
    diff = a - b
    n = max(len(a.coeffs), len(b.coeffs))
    assert all(diff.coeff(j).is_zero() for j in range(n if k is None else k))
    if k is None:
        assert certify(a, b, error, "claim") is None
        return
    assert k == b.mismatch(a) and k < n
    assert not diff.coeff(k).is_zero()
    with pytest.raises(Exception) as err:
        certify(a, b, error, "claim")
    assert type(err.value) is error
    assert str(err.value) == f"claim at the coefficient of D^{k}"


def test_certify_elements_raises_the_given_class_with_the_message_unchanged():
    certify(_S * FREE.one, _S, ConsistencyError, "unused")
    certify(MatrixJet.zeros(2), MatrixRealization(2).zero, ConsistencyError, "unused")
    for error in (ConsistencyError, KernelPremiseViolatedError, ValueError):
        with pytest.raises(Exception) as err:
            certify(_S, -_S, error, "s equals -s")
        assert type(err.value) is error and str(err.value) == "s equals -s"
    with pytest.raises(KernelPremiseViolatedError, match=r"^nonzero$"):
        certify(MatrixJet.identity(1), MatrixJet.zeros(1), KernelPremiseViolatedError, "nonzero")


def test_mismatch_refuses_another_realization():
    with pytest.raises(RealizationMismatchError):
        DiffOperator([_S]).mismatch(DiffOperator([MatrixJet.identity(1)]))
    assert DiffOperator([_S]) != DiffOperator([MatrixJet.identity(1)])
