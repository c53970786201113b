"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is identity-based over exact rational arithmetic, so there are no
tolerances anywhere; a criterion passes only when the stated identity holds
on the nose (free ring) or on the full jointly valid range (jets).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import io
import random
from fractions import Fraction as F

from bellops import (
    BellTable,
    DiffOperator,
    FreeRing,
    Jet,
    MatrixJet,
    MatrixRealization,
    burgers_rhs,
    d_power_operator,
    darboux_transform,
    divide_left,
    divide_right,
    exp_jet,
    factor_from_kernel,
    make_ls,
    matveev_verify,
    transformed_coefficients,
    x_jet,
)
from bellops.cli import run_command

from helpers import (
    random_free_operator,
    random_matrix_jet,
    random_matrix_operator,
)
from test_bell import expected_gen, expected_left, expected_right
from test_division import ls_power_coefficients, reconstruct


def _pass(cid, detail):
    print(f"[{cid}] PASS  {detail}")


def _fresh_ring():
    return FreeRing(("s", "u", "a0", "a1", "a2", "a3", "a4"))


def test_c01_golden_bell_tables():
    ring = _fresh_ring()
    s = ring.gen("s")
    table = BellTable(s)
    failures = []
    for n in range(1, 5):
        if table.left(n) != expected_left(ring, s, n):
            failures.append(f"left {n}")
        if table.right(n) != expected_right(ring, s, n):
            failures.append(f"right {n}")
    for n in range(4, 9):
        for k in range(1, 5):
            if table.gen(n, k) != expected_gen(ring, s, n, k):
                failures.append(f"gen ({n},{k})")
    assert not failures, failures
    _pass("C01", "left/right n=1..4 and gen k=1..4 at n=4..8 match the displayed tables")


def test_c02_division_identities():
    ring = _fresh_ring()
    s = ring.gen("s")
    table = BellTable(s)
    ls = make_ls(s)
    for n in range(1, 9):
        right = table.h(n - 1).compose(ls) + DiffOperator([table.left(n)], ring)
        assert right == d_power_operator(ring, n), f"right identity at n={n}"
        left = ls.compose(table.h_plus(n - 1)) + DiffOperator([table.right(n)], ring)
        assert left == d_power_operator(ring, n), f"left identity at n={n}"
    _pass("C02", "H_(n-1) o L_s + B_n = D^n and L_s o H^+_(n-1) + B^+_n = D^n for n=1..8")


def test_c03_duality():
    ring = _fresh_ring()
    s = ring.gen("s")
    table = BellTable(s)
    star_table = BellTable(s.star())
    for n in range(0, 9):
        assert table.left(n).star() == star_table.right(n), f"duality at n={n}"
    _pass("C03", "B_n(s)* = B_n^+(s*) exactly for n=0..8")


def test_c04_power_formula():
    ring = _fresh_ring()
    s = ring.gen("s")
    table = BellTable(s)
    ls = make_ls(s)
    value = ring.one
    for n in range(0, 9):
        expected = value if n % 2 == 0 else -value
        assert table.right(n) == expected, f"power formula at n={n}"
        value = ls.apply(value)
    _pass("C04", "B_n^+ = (-1)^n L_s^n e exactly for n=0..8")


def test_c05_division_round_trip():
    ring = _fresh_ring()
    s = ring.gen("s")
    rng = random.Random(20260810)
    checked = 0
    for _ in range(25):
        op = random_free_operator(rng, ring, 4)
        for divide in (divide_right, divide_left):
            out = divide(op, s)
            assert reconstruct(out, s, ring) == op
        coeffs, remainder = ls_power_coefficients(op, s)
        left = divide_left(op, s)
        assert left.remainder == remainder
        for n, c in enumerate(coeffs):
            assert left.quotient.coeff(n) == c
        checked += 1
    real = MatrixRealization(2)
    for _ in range(25):
        op = random_matrix_operator(rng, 2, 5, 16)
        sj = random_matrix_jet(rng, 2, 16)
        for divide in (divide_right, divide_left):
            out = divide(op, sj)
            assert reconstruct(out, sj, real) == op
        coeffs, remainder = ls_power_coefficients(op, sj)
        left = divide_left(op, sj)
        assert left.remainder == remainder
        for n, c in enumerate(coeffs):
            assert left.quotient.coeff(n) == c
        checked += 1
    assert checked == 50
    _pass("C05", "50 random operators reconstruct exactly on both sides; "
                 "left coefficients agree between the recursion and power forms")


def test_c06_kernel_factorization():
    lam = F(7, 3)
    real = MatrixRealization(1)
    op = DiffOperator([MatrixJet.constant([[-lam * lam]]), real.zero, real.one], real)
    phi = MatrixJet.scalar(exp_jet(lam, 16))
    s, outcome = factor_from_kernel(op, phi, "right")
    assert outcome.exact
    assert outcome.remainder.is_zero()
    assert s == MatrixJet.constant([[lam]])
    rebuilt = outcome.quotient.compose(make_ls(s)) + DiffOperator([outcome.remainder], real)
    assert rebuilt == op
    _pass("C06", "exp-series kernel element factors D^2 - lam^2 with zero remainder")


def test_c07_darboux_example_bytes():
    ring = _fresh_ring()
    s = ring.gen("s")
    out = darboux_transform(d_power_operator(ring, 2), s)
    expected_op = DiffOperator([2 * s.d(), ring.zero, ring.one], ring)
    expected_rhs = s.d().d() + 2 * (s.d() * s)
    assert out.transformed == expected_op
    assert out.burgers_rhs == expected_rhs
    assert str(out.transformed) == str(expected_op) == "D^2 + 2*D(s)"
    assert out.burgers_rhs.to_text() == expected_rhs.to_text() == "2*D(s)*s + D^2(s)"
    _pass("C07", "transform of D^2 prints canonically as D^2 + 2*D(s); "
                 "Burgers RHS as 2*D(s)*s + D^2(s)")


def test_c08_intertwining_defect():
    ring = _fresh_ring()
    s = ring.gen("s")
    rng = random.Random(808)
    for _ in range(12):
        op = random_free_operator(rng, ring, 4)
        out = darboux_transform(op, s)
        ls = make_ls(s)
        diff = ls.compose(op) - out.transformed.compose(ls)
        assert diff.order <= 0
        r = out.remainder
        expected = r.d() + (r * s - s * r)
        assert diff.coeff(0) == expected
        assert burgers_rhs(op, s) == expected
    _pass("C08", "L_s o L - Ltilde o L_s is order <= 0 and equals Dr + [r,s] "
                 "= Burgers RHS on 12 random operators")


def test_c09_matveev_end_to_end():
    real = MatrixRealization(1)
    op = d_power_operator(real, 2)
    phi0 = MatrixJet.scalar(Jet([exp_jet(1, 12).coefficient(0, 0, k) for k in range(13)], 16))
    psi0 = MatrixJet.scalar(Jet([exp_jet(-1, 12).coefficient(0, 0, k) for k in range(13)], 16))
    report = matveev_verify(op, phi0, psi0, 4)
    assert report.residual.is_zero()
    assert report.burgers_residual.is_zero()
    assert report.ok
    scalar_range = (report.residual.x_order, report.residual.t_order)

    a = MatrixJet.constant([[0, 1], [0, 0]])
    b = MatrixJet.constant([[0, 0], [1, 0]])
    assert a * b != b * a
    ident = MatrixJet.identity(2)
    x = MatrixJet.diagonal(x_jet(16), 2)
    phi0m = (ident + x * a + (x * x) * b).truncate(16)
    psi0m = (ident + x * b + (x * x * x) * a).truncate(16)
    report2 = matveev_verify(d_power_operator(MatrixRealization(2), 2), phi0m, psi0m, 4)
    assert report2.residual.is_zero()
    assert report2.burgers_residual.is_zero()
    assert report2.ok
    _pass("C09", f"wavefunction-transform residuals vanish identically; scalar valid "
                 f"range x={scalar_range[0]} t={scalar_range[1]}; 2x2 non-commuting seeds too")


def test_c10_coefficient_formula_audit():
    ring = FreeRing(("s",) + tuple(f"a{k}" for k in range(6)))
    s = ring.gen("s")
    # fully generic coefficients per order, and the displayed D^2 case
    cases = [DiffOperator([ring.gen(f"a{k}") for k in range(n + 1)], ring) for n in range(1, 6)]
    for op in cases + [d_power_operator(ring, 2)]:
        formula, oracle = transformed_coefficients(op, s), darboux_transform(op, s).transformed
        assert formula == oracle, f"order {op.order}: a[{formula.mismatch(oracle)}] differs"
    _pass("C10", "closed coefficient formula equals L_s o M + r for generic operators "
                 "of order N=1..5")


def test_c11_cli_goldens(tmp_path):
    op_path = tmp_path / "d2.op"
    op_path.write_text("a[2] = e\n")

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    code, out, _ = run(["bell", "--side", "left", "--n", "2"])
    assert (code, out) == (0, "s^2 + D(s)\n")
    code, out, _ = run(["darboux", str(op_path)])
    assert (code, out) == (0, "a[2]=e, a[1]=0, a[0]=2*D(s)\nburgers: 2*D(s)*s + D^2(s)\n")
    code, out, _ = run(["divide", "--side", "right", str(op_path), "--s", "s"])
    assert (code, out) == (0, "quotient: D + s\nremainder: s^2 + D(s)\n")

    # 30-case print/parse round trip
    from test_parsing import corpus, parse

    cases = corpus()
    assert len(cases) >= 30
    for element in cases:
        assert parse(element.to_text()) == element

    # exit-code contract
    assert run(["bell", "--side", "left"])[0] == 2
    assert run(["no-such-command"])[0] == 2
    assert run(["bell", "--side", "left", "--n", "2", "--s", "D^2(q"])[0] == 1
    assert run(["divide", "--side", "right", str(tmp_path / "missing.op"), "--s", "s"])[0] == 1
    assert run(["bell", "--side", "left", "--n", "3"])[0] == 0
    _pass("C11", "three CLI goldens byte-identical; 30-case round-trip; exit codes 0/1/2")
