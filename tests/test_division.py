"""One-sided division: goldens, round-trips, residuals, kernel factorization."""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import count

import pytest

from bellops import (
    BellTable,
    ConsistencyError,
    DiffOperator,
    IndexRangeError,
    Jet,
    KernelPremiseViolatedError,
    MatrixJet,
    MatrixRealization,
    d_power_operator,
    divide_left,
    divide_right,
    exp_jet,
    factor_from_kernel,
    make_ls,
    riccati_residual,
    x_jet,
)
from bellops import division
from helpers import (
    random_free_operator,
    random_matrix_jet,
    random_matrix_operator,
)


def _as_op(element, realization):
    return DiffOperator([element], realization)


def reconstruct(outcome, s, realization):
    ls = make_ls(s)
    if outcome.side == "right":
        return outcome.quotient.compose(ls) + _as_op(outcome.remainder, realization)
    return ls.compose(outcome.quotient) + _as_op(outcome.remainder, realization)


# -- goldens ------------------------------------------------------------------------


def test_divide_right_order_one(ring, s):
    out = divide_right(d_power_operator(ring, 1), s)
    assert out.quotient == DiffOperator([ring.one], ring)
    assert out.remainder == s
    assert not out.exact


def test_divide_right_d2(ring, s):
    out = divide_right(d_power_operator(ring, 2), s)
    assert out.quotient == DiffOperator([s, ring.one], ring)
    assert out.remainder == s * s + s.d()
    assert reconstruct(out, s, ring) == d_power_operator(ring, 2)


def test_divide_left_order_one(ring, s):
    out = divide_left(d_power_operator(ring, 1), s)
    assert out.quotient == DiffOperator([ring.one], ring)
    assert out.remainder == s


def test_divide_left_d2(ring, s):
    out = divide_left(d_power_operator(ring, 2), s)
    assert out.quotient == DiffOperator([s, ring.one], ring)
    assert out.remainder == s * s - s.d()
    assert reconstruct(out, s, ring) == d_power_operator(ring, 2)


def test_division_requires_order_one(ring, s):
    with pytest.raises(IndexRangeError):
        divide_right(DiffOperator([s], ring), s)


# -- round-trip exactness -----------------------------------------------------------------


def test_round_trip_free_random(ring, s):
    rng = random.Random(31)
    for _ in range(12):
        op = random_free_operator(rng, ring, 4)
        for divide in (divide_right, divide_left):
            out = divide(op, s)
            assert reconstruct(out, s, ring) == op
            assert out.quotient.order == op.order - 1


def test_round_trip_matrix_jets():
    rng = random.Random(32)
    for _ in range(6):
        op = random_matrix_operator(rng, 2, 3, 16)
        s = random_matrix_jet(rng, 2, 16)
        real = MatrixRealization(2)
        for divide in (divide_right, divide_left):
            out = divide(op, s)
            assert reconstruct(out, s, real) == op


def test_degree_contract(ring, s):
    rng = random.Random(33)
    for _ in range(8):
        op = random_free_operator(rng, ring, 4)
        top = op.coeff(op.order)
        right = divide_right(op, s)
        left = divide_left(op, s)
        assert right.quotient.coeff(op.order - 1) == top
        assert left.quotient.coeff(op.order - 1) == top


def test_nilpotent_leading_coefficient():
    # no invertibility of the leading coefficient is needed
    nil = MatrixJet.constant([[0, 1], [0, 0]])
    rng = random.Random(34)
    op = DiffOperator([random_matrix_jet(rng, 2, 12), random_matrix_jet(rng, 2, 12), nil])
    s = random_matrix_jet(rng, 2, 12)
    real = MatrixRealization(2)
    for divide in (divide_right, divide_left):
        out = divide(op, s)
        assert reconstruct(out, s, real) == op


# -- the two left-division formulas ------------------------------------------------------------


def ls_power_coefficients(op, s):
    """Unrolled alternating powers: b_n = sum_k (-1)^(k-n-1) L_s^(k-n-1)(a_k)."""
    ls = make_ls(s)
    coeffs = []
    for n in range(op.order):
        acc = None
        for k in range(n + 1, op.order + 1):
            value = op.coeff(k)
            for _ in range(k - n - 1):
                value = ls.apply(value)
            if (k - n - 1) % 2:
                value = -value
            acc = value if acc is None else acc + value
        coeffs.append(acc)
    remainder = None
    for k in range(op.order + 1):
        value = op.coeff(k)
        for _ in range(k):
            value = ls.apply(value)
        if k % 2:
            value = -value
        remainder = value if remainder is None else remainder + value
    return coeffs, remainder


def test_left_division_matches_power_form(ring, s):
    rng = random.Random(35)
    for _ in range(8):
        op = random_free_operator(rng, ring, 4)
        out = divide_left(op, s)
        coeffs, remainder = ls_power_coefficients(op, s)
        for n, c in enumerate(coeffs):
            assert out.quotient.coeff(n) == c
        assert out.remainder == remainder


def test_left_division_product_form_for_constant_coefficients(ring, s):
    # when every coefficient is a constant, the remainder collapses to the
    # product form sum_k B_k^+(s) a_k and the quotient to sum B^+_(k-n-1) a_k
    table = BellTable(s)
    coeffs = [F(3) * ring.one, F(-2) * ring.one, ring.one, F(5) * ring.one]
    op = DiffOperator(coeffs, ring)
    out = divide_left(op, s)
    expected_remainder = None
    for k in range(op.order + 1):
        term = table.right(k) * op.coeff(k)
        expected_remainder = term if expected_remainder is None else expected_remainder + term
    assert out.remainder == expected_remainder
    for n in range(op.order):
        acc = None
        for k in range(n + 1, op.order + 1):
            term = table.right(k - n - 1) * op.coeff(k)
            acc = term if acc is None else acc + term
        assert out.quotient.coeff(n) == acc


def test_left_remainder_sees_coefficient_derivatives(ring, s):
    # for L = a D the exact left remainder is s a - Da; a pure product of
    # right-table entries with the coefficients would drop the Da term
    a = ring.gen("a0")
    op = DiffOperator([ring.zero, a], ring)
    out = divide_left(op, s)
    assert out.remainder == s * a - a.d()
    assert reconstruct(out, s, ring) == op
    table = BellTable(s)
    product_form = table.right(0) * ring.zero + table.right(1) * a
    assert out.remainder != product_form


def perturb_recursion(monkeypatch, wrong_call):
    """Make divide_left's ls_apply off by e at its call number ``wrong_call`` (from
    0); on L = D^3 call 0 gives b_1 and call 2 gives r^+."""
    true_apply, calls = division.ls_apply, count()

    def perturbed(u, s):
        value = true_apply(u, s)
        return value + value.one_like() if next(calls) == wrong_call else value

    monkeypatch.setattr(division, "ls_apply", perturbed)


def test_divide_left_rejects_a_wrong_quotient_coefficient(ring, s, monkeypatch):
    # b_1 off by e leaves L_s(b_1) + b_0 == a_1 but breaks L_s(b_2) + b_1 == a_2
    perturb_recursion(monkeypatch, 0)
    with pytest.raises(ConsistencyError) as err:
        divide_left(d_power_operator(ring, 3), s)
    assert str(err.value) == (
        "left division fails L_s o M^+ + r^+ == L at the coefficient of D^2")


def test_divide_left_rejects_a_wrong_remainder(ring, s, monkeypatch):
    perturb_recursion(monkeypatch, 2)
    with pytest.raises(ConsistencyError) as err:
        divide_left(d_power_operator(ring, 3), s)
    assert str(err.value) == (
        "left division fails L_s o M^+ + r^+ == L at the coefficient of D^0")


def test_divide_left_catches_ls_apply_with_s_on_the_right(monkeypatch):
    # L_s(u) = Du - u s agrees with Du - s u at dim 1, so the fault needs dim 2;
    # the certificate composes through compose, which never calls ls_apply
    rng = random.Random(40)
    op = DiffOperator([random_matrix_jet(rng, 2, 16) for _ in range(4)])
    s = random_matrix_jet(rng, 2, 16)
    monkeypatch.setattr(division, "ls_apply", lambda u, s: u.d() - u * s)
    for call in (lambda: divide_left(op, s), lambda: riccati_residual(op, s, "left")):
        with pytest.raises(ConsistencyError) as err:
            call()
        assert str(err.value).startswith("left division fails L_s o M^+ + r^+ == L at ")


# -- residuals ------------------------------------------------------------------------------


def test_riccati_residual_matches_division(ring, s):
    rng = random.Random(36)
    for _ in range(8):
        op = random_free_operator(rng, ring, 4)
        assert riccati_residual(op, s, "right") == divide_right(op, s).remainder
        assert riccati_residual(op, s, "left") == ls_power_coefficients(op, s)[1]


def test_riccati_residual_right_is_bell_sum(ring, s):
    rng = random.Random(37)
    table = BellTable(s)
    op = random_free_operator(rng, ring, 4)
    expected = None
    for n in range(op.order + 1):
        term = op.coeff(n) * table.left(n)
        expected = term if expected is None else expected + term
    assert riccati_residual(op, s, "right", table) == expected


def test_riccati_residual_exact_factorization(ring, s):
    # L = D^2 - (s^2 + Ds) factors as (D + s)(D - s)
    table = BellTable(s)
    op = d_power_operator(ring, 2) - DiffOperator([table.left(2)], ring)
    assert riccati_residual(op, s, "right").is_zero()
    out = divide_right(op, s)
    assert out.exact
    assert out.quotient.compose(make_ls(s)) == op


def test_riccati_residual_zero_s(ring):
    zero = ring.zero
    assert riccati_residual(d_power_operator(ring, 2), zero, "right").is_zero()
    assert riccati_residual(d_power_operator(ring, 2), zero, "left").is_zero()


def test_riccati_residual_generic_nonzero(ring, s):
    assert riccati_residual(d_power_operator(ring, 2), s, "right") == s * s + s.d()


# -- kernel-driven factorization ----------------------------------------------------------------


def test_factor_from_kernel_harmonic():
    # phi = 1 + x lies in the kernel of D^2; s = (1+x)^{-1} series
    phi = MatrixJet.scalar(Jet((1, 1), 10))
    real = MatrixRealization(1)
    s, out = factor_from_kernel(d_power_operator(real, 2), phi, "right")
    geometric = MatrixJet.scalar(Jet([(-1) ** k for k in range(10)], 9))
    assert s == geometric
    assert out.exact


def test_factor_from_kernel_exponential():
    lam = F(3, 2)
    real = MatrixRealization(1)
    op = DiffOperator(
        [MatrixJet.constant([[-lam * lam]]), real.zero, real.one], real
    )
    phi = MatrixJet.scalar(exp_jet(lam, 16))
    s, out = factor_from_kernel(op, phi, "right")
    assert s == MatrixJet.constant([[lam]])
    assert out.exact
    assert out.quotient.compose(make_ls(s)) + DiffOperator([out.remainder], real) == op
    # quotient is D + lam
    assert out.quotient == DiffOperator([MatrixJet.constant([[lam]]), real.one], real)


def test_factor_from_kernel_rejects_an_inexact_right_division(monkeypatch):
    true_divide = division.divide_right
    monkeypatch.setattr(division, "divide_right", lambda L, s: replace(
        true_divide(L, s), remainder=s.one_like(), exact=False))
    lam = F(3, 2)
    real = MatrixRealization(1)
    op = DiffOperator([MatrixJet.constant([[-lam * lam]]), real.zero, real.one], real)
    with pytest.raises(ConsistencyError) as err:
        factor_from_kernel(op, MatrixJet.scalar(exp_jet(lam, 16)), "right")
    assert str(err.value) == "kernel element produced a nonzero right-division remainder"


def test_factor_from_kernel_premise_violation():
    real = MatrixRealization(1)
    phi = MatrixJet.scalar(Jet((1, 1, 1), 10))  # not in the kernel of D^2
    with pytest.raises(KernelPremiseViolatedError) as err:
        factor_from_kernel(d_power_operator(real, 2), phi, "right")
    assert str(err.value) == "phi is not annihilated by L on the valid range"


def test_factor_from_kernel_left():
    # build L = L_s o M so the left factorization is exact by construction
    rng = random.Random(38)
    phi = MatrixJet.identity(2) + MatrixJet.diagonal(x_jet(14), 2) * random_matrix_jet(
        rng, 2, 14
    )
    from bellops import log_derivative

    s = log_derivative(phi, "left")
    quotient = DiffOperator([random_matrix_jet(rng, 2, 14), MatrixRealization(2).one])
    op = make_ls(s).compose(quotient)
    s_back, out = factor_from_kernel(op, phi, "left")
    assert s_back == s
    assert out.exact


def test_factor_from_kernel_left_violation():
    rng = random.Random(39)
    phi = MatrixJet.identity(2) + MatrixJet.diagonal(x_jet(12), 2) * random_matrix_jet(
        rng, 2, 12
    )
    op = d_power_operator(MatrixRealization(2), 2) + DiffOperator(
        [random_matrix_jet(rng, 2, 12)]
    )
    with pytest.raises(KernelPremiseViolatedError) as err:
        factor_from_kernel(op, phi, "left")
    assert str(err.value) == "phi does not witness an exact left factorization of L"
