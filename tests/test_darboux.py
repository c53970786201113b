"""Transformed operators, intertwining defects and the two-variable checks."""

import random
from fractions import Fraction as F

import pytest

from bellops import (
    ConsistencyError,
    DefectNotScalarError,
    DiffOperator,
    InsufficientOrderError,
    Jet,
    MatrixJet,
    MatrixRealization,
    UnsupportedRealizationError,
    audit_transformed_coefficients,
    burgers_rhs,
    d_power_operator,
    darboux_transform,
    divide_right,
    exp_jet,
    intertwine_defect,
    make_ls,
    matveev_psi,
    matveev_verify,
    time_propagate,
    transformed_coefficients,
    x_jet,
)
from bellops import darboux
from bellops.operators import ls_apply
from helpers import darboux_chain, random_free_operator, random_matrix_jet


def commutator(a, b):
    return a * b - b * a


# -- the order-2 example -------------------------------------------------------------


def test_darboux_transform_d2(ring, s):
    out = darboux_transform(d_power_operator(ring, 2), s)
    expected = DiffOperator([2 * s.d(), ring.zero, ring.one], ring)
    assert out.transformed == expected
    assert out.burgers_rhs == s.d().d() + 2 * (s.d() * s)
    assert out.remainder == s * s + s.d()
    assert out.intertwine_defect == out.burgers_rhs


def test_darboux_transform_d1(ring, s):
    # first-order input with zero constant term transforms to itself
    out = darboux_transform(d_power_operator(ring, 1), s)
    assert out.transformed == d_power_operator(ring, 1)
    assert out.burgers_rhs == s.d()


def test_transform_alternative_construction(ring, s):
    # the transform equals L_s o M + r with (M, r) from right division
    rng = random.Random(41)
    for _ in range(6):
        op = random_free_operator(rng, ring, 3)
        out = darboux_transform(op, s)
        division = divide_right(op, s)
        rebuilt = make_ls(s).compose(division.quotient) + DiffOperator(
            [division.remainder], ring
        )
        assert out.transformed == rebuilt


def test_transform_preserves_order_and_leading(ring, s):
    rng = random.Random(42)
    for _ in range(6):
        op = random_free_operator(rng, ring, 4)
        out = darboux_transform(op, s)
        assert out.transformed.order == op.order
        assert out.transformed.coeff(op.order) == op.coeff(op.order)


# -- intertwining ---------------------------------------------------------------------


def test_intertwine_defect_matches_commutator_form(ring, s):
    rng = random.Random(43)
    for _ in range(6):
        op = random_free_operator(rng, ring, 3)
        out = darboux_transform(op, s)
        r = out.remainder
        assert out.intertwine_defect == r.d() + commutator(r, s)


def test_intertwine_defect_direct_composition(ring, s):
    op = d_power_operator(ring, 2)
    tilde = DiffOperator([2 * s.d(), ring.zero, ring.one], ring)
    defect = intertwine_defect(op, tilde, s)
    r = s * s + s.d()
    assert defect == r.d() + commutator(r, s)
    assert defect == s.d().d() + 2 * (s.d() * s)


def test_intertwine_defect_rejects_wrong_transform(ring, s):
    op = d_power_operator(ring, 2)
    wrong = DiffOperator([2 * s.d(), s, ring.one], ring)  # perturbed D-coefficient
    with pytest.raises(DefectNotScalarError):
        intertwine_defect(op, wrong, s)


# -- each certificate catches a wrong build ------------------------------------------------


def test_intertwine_defect_rejects_an_order_one_discrepancy(ring, s):
    # a wrong coefficient 0, by u, leaves the discrepancy u o L_s of order exactly 1
    op = d_power_operator(ring, 2)
    wrong = DiffOperator([2 * s.d() + ring.gen("u"), ring.zero, ring.one], ring)
    with pytest.raises(DefectNotScalarError) as err:
        intertwine_defect(op, wrong, s)
    assert str(err.value) == "intertwining discrepancy has order 1, expected <= 0"


def test_transform_rejects_a_wrong_intertwine_defect(ring, s, monkeypatch):
    true_defect = darboux.intertwine_defect
    monkeypatch.setattr(darboux, "intertwine_defect", lambda *args: true_defect(*args) + s)
    with pytest.raises(ConsistencyError) as err:
        darboux_transform(d_power_operator(ring, 2), s)
    assert str(err.value) == "intertwine defect does not equal Dr + [r, s]"


def test_transform_rejects_a_wrong_burgers_rhs(ring, s, monkeypatch):
    true_rhs = darboux.burgers_rhs
    monkeypatch.setattr(darboux, "burgers_rhs", lambda *args: true_rhs(*args) + s)
    with pytest.raises(ConsistencyError) as err:
        darboux_transform(d_power_operator(ring, 2), s)
    assert str(err.value) == "Burgers right-hand side does not equal Dr + [r, s]"


def test_intertwining_on_jets_order_five():
    rng = random.Random(48)
    real = MatrixRealization(2)
    coeffs = [random_matrix_jet(rng, 2, 16) for _ in range(6)]
    op = DiffOperator(coeffs, real)
    s = random_matrix_jet(rng, 2, 16)
    out = darboux_transform(op, s)  # verifies defect = Dr + [r,s] = Burgers RHS
    diff = make_ls(s).compose(op) - out.transformed.compose(make_ls(s))
    assert diff.order <= 0
    assert diff.coeff(0) == out.burgers_rhs


# -- Burgers right-hand side --------------------------------------------------------------


def test_burgers_rhs_d2(ring, s):
    assert burgers_rhs(d_power_operator(ring, 2), s) == s.d().d() + 2 * (s.d() * s)


def test_burgers_rhs_d1(ring, s):
    assert burgers_rhs(d_power_operator(ring, 1), s) == s.d()


def test_burgers_rhs_matches_remainder_flow(ring, s):
    rng = random.Random(44)
    for _ in range(6):
        op = random_free_operator(rng, ring, 3)
        r = divide_right(op, s).remainder
        assert burgers_rhs(op, s) == r.d() + commutator(r, s)


def test_burgers_rhs_stationary_constant():
    real = MatrixRealization(1)
    op = DiffOperator([MatrixJet.constant([[3]]), real.zero, real.one], real)
    s = MatrixJet.constant([[F(5, 2)]])
    assert burgers_rhs(op, s).is_zero()


# -- wavefunction transform -----------------------------------------------------------------


def test_matveev_psi_annihilates_seed():
    from bellops import log_derivative

    rng = random.Random(45)
    phi = MatrixJet.identity(2) + MatrixJet.diagonal(x_jet(12), 2) * random_matrix_jet(
        rng, 2, 12
    )
    s = log_derivative(phi, "right")
    assert matveev_psi(phi, s).is_zero()


def test_matveev_psi_zero_s(ring):
    assert matveev_psi(ring.one, ring.zero).is_zero()


def test_matveev_psi_exponential_shift():
    from bellops import log_derivative

    lam, mu = F(1, 2), F(5, 3)
    phi = MatrixJet.scalar(exp_jet(lam, 16))
    psi = MatrixJet.scalar(exp_jet(mu, 16))
    s = log_derivative(phi, "right")
    assert matveev_psi(psi, s) == psi * (mu - lam)


# -- iterated transforms against Crum's Wronskian formula ------------------------------


def test_two_step_chain_matches_crum_wronskian_formula():
    # L = D^3 with kernel elements phi1 = 1 + x^2 and phi2 = x at dim 1: the
    # composite factor (D - s2)(D - s1) is the monic operator that annihilates
    # phi1 and phi2, so on any f it gives W(phi1, phi2, f) / W(phi1, phi2)
    # (Crum 1955; Matveev & Salle 1991), which sympy expands on its own
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    order = 14
    real = MatrixRealization(1)
    phi1, phi2 = MatrixJet.scalar(Jet([1, 0, 1], order)), MatrixJet.scalar(x_jet(order))
    # the third kernel element 1 checks the second transform as well
    phi3 = MatrixJet.identity(1).truncate(order)
    steps, last = darboux_chain(d_power_operator(real, 3), [phi1, phi2, phi3])
    for i, (op, mapped, _) in enumerate(steps):
        image = op.apply(mapped)
        assert image.x_order == order - 3 - i and image.is_zero()
    assert last.order == 3 and last.coeff(3) == real.one
    (_, _, s1), (_, _, s2), _ = steps
    f = MatrixJet.scalar(exp_jet(F(1, 2), order) + Jet([0, 0, 0, F(-2, 3)], order))
    composite = ls_apply(ls_apply(f, s1), s2)
    assert composite.x_order == order - 2
    kernel = [1 + x**2, x]
    crum = sympy.wronskian(kernel + [sympy.exp(x / 2) - sympy.Rational(2, 3) * x**3], x)
    expected = sympy.series(crum / sympy.wronskian(kernel, x), x, 0, order - 1).removeO()
    for k in range(order - 1):
        c = expected.coeff(x, k)
        assert composite.entry(0, 0).at(k) == F(int(c.p), int(c.q)), k


def test_order_four_chain_annihilates_its_kernel():
    # the build of an order-4 transform reads B_{3,j}, the first Bell row with
    # a D B_{m-1,j-1} term that is not zero
    order = 14
    real = MatrixRealization(1)
    kernel = [MatrixJet.scalar(Jet(c, order)) for c in ([1, 0, 1], [0, 1], [2, 0, 0, 1])]
    steps, last = darboux_chain(d_power_operator(real, 4), kernel)
    for i, (op, mapped, _) in enumerate(steps):
        image = op.apply(mapped)
        assert image.x_order == order - 4 - i and image.is_zero()
    assert last.order == 4 and last.coeff(4) == real.one


# -- closed coefficient formula ---------------------------------------------------------------


def test_transformed_coefficients_d2(ring, s):
    op = transformed_coefficients(d_power_operator(ring, 2), s)
    assert op.coeff(0) == 2 * s.d()
    assert op.coeff(1).is_zero()
    assert op.coeff(2) == ring.one


def test_transformed_coefficients_d1(ring, s):
    op = transformed_coefficients(d_power_operator(ring, 1), s)
    assert op.coeff(0).is_zero()
    assert op.coeff(1) == ring.one


def test_coefficient_audit_low_orders(ring, s):
    rng = random.Random(46)
    for order in (1, 2):
        for _ in range(4):
            op = random_free_operator(rng, ring, order)
            while op.order != order:
                op = random_free_operator(rng, ring, order)
            audit = audit_transformed_coefficients(op, s)
            assert audit.agrees, audit.report()


def test_coefficient_audit_high_orders(ring, s):
    # agreement or a structured report naming the first differing power
    rng = random.Random(47)
    for order in (3, 4):
        op = random_free_operator(rng, ring, order)
        audit = audit_transformed_coefficients(op, s)
        assert audit.agrees or audit.first_mismatch is not None
        assert "agree" in audit.report() or "differs" in audit.report()


def test_coefficient_audit_names_the_first_wrong_coefficient(ring, s, monkeypatch):
    true_formula = darboux.transformed_coefficients
    monkeypatch.setattr(darboux, "transformed_coefficients", lambda *args: (
        true_formula(*args) + DiffOperator([ring.zero, ring.zero, s], ring)))
    audit = audit_transformed_coefficients(d_power_operator(ring, 3), s)
    assert not audit.agrees
    assert audit.first_mismatch == 2
    assert audit.report() == "transformed coefficient a[2] differs: formula s vs expansion 0"


# -- time propagation --------------------------------------------------------------------------


def test_propagate_translation_flow():
    real = MatrixRealization(1)
    phi = time_propagate(d_power_operator(real, 1), MatrixJet.scalar(Jet((0, 1))), 3)
    expected = MatrixJet([[exact_bijet([[0, 1, 0, 0], [1, 0, 0, 0]])]])
    assert phi == expected


def test_propagate_heat_flow():
    real = MatrixRealization(1)
    phi = time_propagate(d_power_operator(real, 2), MatrixJet.scalar(Jet((0, 0, 1))), 2)
    expected = MatrixJet([[exact_bijet([[0, 2, 0], [0, 0, 0], [1, 0, 0]])]])
    assert phi == expected


def exact_bijet(rows):
    from bellops import BiJet

    return BiJet(rows, None, len(rows[0]) - 1)


def test_propagate_t_order_zero():
    real = MatrixRealization(1)
    phi0 = MatrixJet.scalar(Jet((2, 5), 8))
    out = time_propagate(d_power_operator(real, 1), phi0, 0)
    assert out.kind == "bijet"
    assert out == phi0


def test_propagate_budget_enforced():
    real = MatrixRealization(1)
    phi0 = MatrixJet.scalar(Jet((1, 1, 1), 2))
    with pytest.raises(InsufficientOrderError):
        time_propagate(d_power_operator(real, 2), phi0, 2)


@pytest.mark.parametrize(
    "lam, coeffs, x_order, t_order",
    [(F(3, 4), [F(-2, 3), F(1, 5), F(1, 2)], 12, 4), (F(-5, 2), [F(1, 3), 0, 0, F(-1, 7)], 10, 2)],
    ids=["order-2", "order-3"],
)
def test_propagate_matches_sympy_series(lam, coeffs, x_order, t_order):
    # dim 1, constant coefficients: phi0 = exp(lam x) evolves to exp(lam x + p(lam) t)
    # with p(lam) = sum a_n lam^n, which sympy expands in x and t on its own
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    a = [sympy.Rational(c.numerator, c.denominator) for c in map(F, coeffs)]
    rate = sympy.Rational(lam.numerator, lam.denominator)
    p = sum(c * rate**n for n, c in enumerate(a))
    L = DiffOperator([MatrixJet.constant([[c]]) for c in coeffs])
    phi = time_propagate(L, MatrixJet.scalar(exp_jet(lam, x_order)), t_order)
    valid = x_order - L.order * t_order
    assert (phi.kind, phi.x_order, phi.t_order) == ("bijet", valid, t_order)
    in_t = sympy.series(sympy.exp(rate * x + p * t), t, 0, t_order + 1).removeO()
    expected = sympy.Poly(sympy.series(in_t, x, 0, valid + 1).removeO(), x, t)
    entry = phi.entry(0, 0)
    for i in range(valid + 1):
        for j in range(t_order + 1):
            c = expected.coeff_monomial(x**i * t**j)
            assert entry.at(i, j) == F(int(c.p), int(c.q)), (i, j)


def test_propagate_rejects_bijet_input():
    real = MatrixRealization(1)
    phi0 = MatrixJet.scalar(Jet((0, 1), 8)).promote()
    with pytest.raises(UnsupportedRealizationError):
        time_propagate(d_power_operator(real, 1), phi0, 1)


def test_propagate_precision_ledger():
    real = MatrixRealization(1)
    phi0 = MatrixJet.scalar(Jet([1] * 17, 16))
    out = time_propagate(d_power_operator(real, 2), phi0, 4)
    assert out.x_order == 8
    assert out.t_order == 4


# -- end-to-end -----------------------------------------------------------------------------------


def test_matveev_scalar_end_to_end():
    real = MatrixRealization(1)
    op = d_power_operator(real, 2)
    phi0 = MatrixJet.scalar(Jet(list(exp_jet(1, 12).coeffs), 16))
    psi0 = MatrixJet.scalar(Jet(list(exp_jet(-1, 12).coeffs), 16))
    report = matveev_verify(op, phi0, psi0, 4)
    assert report.ok
    assert report.residual.is_zero()
    assert report.burgers_residual.is_zero()
    assert report.residual.x_order == 5
    assert report.residual.t_order == 3


@pytest.mark.parametrize("field", ["transformed", "burgers_rhs"])
def test_matveev_verify_reports_a_wrong_transform(field, monkeypatch):
    # each residual sees its own part of the transform
    true_transform = darboux.darboux_transform

    def wrong(L, s, table=None):
        out = true_transform(L, s, table)
        if field == "transformed":
            out.transformed = out.transformed + DiffOperator([s.one_like()])
        else:
            out.burgers_rhs = out.burgers_rhs + s.one_like()
        return out

    monkeypatch.setattr(darboux, "darboux_transform", wrong)
    phi0 = MatrixJet.scalar(Jet(list(exp_jet(1, 12).coeffs), 16))
    psi0 = MatrixJet.scalar(Jet(list(exp_jet(-1, 12).coeffs), 16))
    report = matveev_verify(d_power_operator(MatrixRealization(1), 2), phi0, psi0, 4)
    assert report.ok is False
    assert report.residual.is_zero() is (field != "transformed")
    assert report.burgers_residual.is_zero() is (field != "burgers_rhs")


def test_matveev_seed_gives_zero_transform():
    real = MatrixRealization(1)
    op = d_power_operator(real, 2)
    phi0 = MatrixJet.scalar(Jet(list(exp_jet(1, 12).coeffs), 16))
    report = matveev_verify(op, phi0, phi0, 4)
    assert report.ok
    assert report.psi_tilde.is_zero()


def test_matveev_matrix_seeds():
    a = MatrixJet.constant([[0, 1], [0, 0]])
    b = MatrixJet.constant([[0, 0], [1, 0]])
    ident = MatrixJet.identity(2)
    x = MatrixJet.diagonal(x_jet(16), 2)
    phi0 = (ident + x * a + (x * x) * b).truncate(16)
    psi0 = (ident + x * b).truncate(16)
    op = d_power_operator(MatrixRealization(2), 2)
    report = matveev_verify(op, phi0, psi0, 3)
    assert report.ok


def test_matveev_nonconstant_coefficient_operator():
    # order-1 operator with a genuine x-dependent coefficient
    real = MatrixRealization(1)
    op = DiffOperator(
        [MatrixJet.scalar(Jet((0, 1), 16)), real.one], real
    )  # D + x
    phi0 = MatrixJet.scalar(Jet((1, 2, 1), 16))
    psi0 = MatrixJet.scalar(Jet((1, 0, 3), 16))
    report = matveev_verify(op, phi0, psi0, 4)
    assert report.ok
