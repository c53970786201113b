"""Command-line behaviour: golden stdout, exit codes, JSON shapes."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import bellops
from bellops import (BellTable, BiJet, DiffOperator, FreeElement, FreeRing, Jet, Letter, MatrixJet,
                     burgers_rhs, darboux, darboux_transform, divide_left, divide_right,
                     riccati_residual)
from bellops.cli import element_json, json_text, matrix_lines, run_command
from bellops.free import ratio_text


def run(argv, files=None, tmp_path=None):
    argv = list(argv)
    if files:
        for marker, content in files.items():
            path = tmp_path / marker
            path.write_text(content)
            argv = [a.replace(marker, str(path)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


D2_FILE = {"d2.op": "a[2] = e\n"}

# Recorded CLI runs: every command in both output modes on the free ring and on
# jet/bijet sessions where it is defined, plus domain (exit 1) and usage (exit 2)
# errors.  File names in argv refer to GOLDENS["files"].
GOLDENS = json.loads((Path(__file__).parent / "cli_goldens.json").read_text())


@pytest.mark.parametrize("case", GOLDENS["cases"], ids=lambda c: " ".join(c["argv"]))
def test_cli_golden_matrix(case, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to this width
    code, out, err = run(case["argv"], GOLDENS["files"], tmp_path)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_golden_bell(tmp_path):
    code, out, err = run(["bell", "--side", "left", "--n", "2"])
    assert code == 0
    assert out == "s^2 + D(s)\n"
    assert err == ""


def test_golden_darboux(tmp_path):
    code, out, err = run(["darboux", "d2.op"], D2_FILE, tmp_path)
    assert code == 0
    assert out == "a[2]=e, a[1]=0, a[0]=2*D(s)\nburgers: 2*D(s)*s + D^2(s)\n"


def test_golden_divide(tmp_path):
    code, out, err = run(
        ["divide", "--side", "right", "d2.op", "--s", "s"], D2_FILE, tmp_path
    )
    assert code == 0
    assert out == "quotient: D + s\nremainder: s^2 + D(s)\n"


def test_bell_right_and_gen(tmp_path):
    code, out, _ = run(["bell", "--side", "right", "--n", "2"])
    assert (code, out) == (0, "s^2 - D(s)\n")
    code, out, _ = run(["bell", "--side", "gen", "--n", "5", "--k", "2"])
    assert (code, out) == (0, "s^2 + 5*D(s)\n")


def test_bell_gen_requires_k(tmp_path):
    code, out, err = run(["bell", "--side", "gen", "--n", "5"])
    assert code == 1
    assert "requires --k" in err


def test_output_deterministic(tmp_path):
    first = run(["bell", "--side", "left", "--n", "4"])
    second = run(["bell", "--side", "left", "--n", "4"])
    assert first == second


def test_json_element(tmp_path):
    code, out, _ = run(["--output", "json", "bell", "--side", "left", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "terms": [
            {
                "coeff": "1",
                "word": [
                    {"gen": "s", "star": False, "d0": 0, "d": 0},
                    {"gen": "s", "star": False, "d0": 0, "d": 0},
                ],
            },
            {"coeff": "1", "word": [{"gen": "s", "star": False, "d0": 0, "d": 1}]},
        ]
    }


def test_json_divide(tmp_path):
    code, out, _ = run(
        ["--output", "json", "divide", "--side", "left", "d2.op", "--s", "s"],
        D2_FILE,
        tmp_path,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "left"
    assert payload["exact"] is False
    assert payload["quotient"]["order"] == 1
    assert {"terms", "order", "coeffs"} >= set(payload["quotient"].keys())


def test_factor_check_yes_no(tmp_path):
    files = {"dd.op": "a[2] = e\n", "fact.op": "a[2] = e\na[1] = -2*s\na[0] = s^2 - D(s)\n"}
    # D^2 - (s^2 + Ds) would be the right-factorable one; build it via bell values
    code, out, _ = run(["factor-check", "--side", "right", "dd.op", "--s", "s"],
                       files, tmp_path)
    assert code == 0
    assert out.endswith("factors: no\n")
    files2 = {"f2.op": "a[2] = e\na[0] = -s^2 - D(s)\n"}
    code, out, _ = run(["factor-check", "--side", "right", "f2.op", "--s", "s"],
                       files2, tmp_path)
    assert code == 0
    assert out == "residual: 0\nfactors: yes\n"


def test_burgers_command(tmp_path):
    code, out, _ = run(["burgers", "d2.op"], D2_FILE, tmp_path)
    assert (code, out) == (0, "burgers: 2*D(s)*s + D^2(s)\n")


def test_burgers_of_the_zero_operator_is_zero(tmp_path):
    files = {"zero.op": "a[0] = 0\n"}
    assert run(["burgers", "zero.op"], files, tmp_path) == (0, "burgers: 0\n", "")
    code, out, _ = run(["--output", "json", "burgers", "zero.op"], files, tmp_path)
    assert (code, json.loads(out)) == (0, {"burgers": {"terms": []}})
    # in jet sessions the zero has the kind and orders of s
    code, out, _ = run(["--ring", "jet", "--x-order", "3", "burgers", "zero.op", "--s", "x"],
                       files, tmp_path)
    assert (code, out) == (0, "burgers:\n  order: x=3\n  zero\n")
    bijet = ["--ring", "bijet", "--x-order", "3", "--t-order", "2"]
    code, out, _ = run(bijet + ["burgers", "zero.op", "--s", "x"], files, tmp_path)
    assert (code, out) == (0, "burgers:\n  order: x=3 t=exact\n  zero\n")
    code, out, _ = run(["--output", "json"] + bijet + ["burgers", "zero.op", "--s", "x"],
                       files, tmp_path)
    value = json.loads(out)["burgers"]
    assert (code, value["kind"], value["x_order"], value["t_order"]) == (0, "bijet", 3, None)


def _digits_value(text):
    """The value of a printed integer or fraction, converted in pieces short
    enough for ``int()`` at any digit limit."""
    num, _, den = text.partition("/")

    def whole(digits):
        sign, digits = (-1, digits[1:]) if digits.startswith("-") else (1, digits)
        value = 0
        for i in range(0, len(digits), 500):
            piece = digits[i:i + 500]
            value = value * 10 ** len(piece) + int(piece)
        return sign * value

    return Fraction(whole(num), whole(den or "1"))


def test_integers_of_any_size_print_and_round_trip(tmp_path):
    nines = 10**900 - 1
    files = {"big.op": f"a[0] = {nines}*e\n", "one.ic": "entry[0][0] = 1\n"}
    argv = ["--ring", "jet", "--x-order", "0", "propagate", "big.op", "--phi0", "one.ic",
            "--t-order", "6"]
    # level m of the propagated series is nines^m / m!, up to 5403 digits
    expected = [Fraction(nines**m, factorial(m)) for m in range(7)]
    code, out, err = run(argv, files, tmp_path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["order: x=0 t=6", "x^0 t^0: [[1]]"]
    printed = [line.split(": [[", 1)[1][:-2] for line in lines[1:]]
    assert [_digits_value(v) for v in printed] == expected
    code, out, err = run(["--output", "json"] + argv, files, tmp_path)
    assert (code, err) == (0, "")
    coeffs = json.loads(out)["entries"][0][0]["coeffs"][0]
    assert [_digits_value(v) for v in coeffs] == expected
    # zero runs at the split points, signs and denominators
    for n in (10**5000, 10**5000 + 7, -(10**4400) - 1, 2**20000 - 1):
        for q in (Fraction(n), Fraction(n, 3), Fraction(3, n)):
            assert _digits_value(ratio_text(2 * q.numerator, 2 * q.denominator)) == q
    assert ratio_text(-2 * 10**600, 14) == str(Fraction(-10**600, 7))
    # free-ring text and JSON go through the same printer
    files = {"big.op": f"a[0] = ({nines})^5*s\n"}
    code, out, _ = run(["burgers", "big.op", "--s", "0"], files, tmp_path)
    assert code == 0 and _digits_value(out[len("burgers: "):].split("*")[0]) == nines**5
    code, out, _ = run(["--output", "json", "burgers", "big.op", "--s", "0"], files, tmp_path)
    assert code == 0 and _digits_value(json.loads(out)["burgers"]["terms"][0]["coeff"]) == nines**5


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no integer digit limit")
def test_literals_and_coefficients_past_the_lowest_digit_limit():
    """At the lowest digit limit the interpreter allows, 1000-digit literals
    still parse, and coefficients of 1000 digits print in full as text and as
    JSON, for a free element and for a matrix.  The expected strings are built
    without any int-to-str conversion."""
    sevens = "7" * 1000
    jet = ["--ring", "jet", "--dim", "1"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for coeff in ("1/" + sevens, "-" + sevens + "/2"):
            argv = ["bell", "--side", "left", "--n", "1", "--s=" + coeff]
            assert run(argv) == (0, coeff + "\n", "")
            assert run(["--output", "json"] + argv) == (
                0, '{"terms": [{"coeff": "%s", "word": []}]}\n' % coeff, "")
            assert run(jet + argv) == (0, f"order: x=exact\nx^0: [[{coeff}]]\n", "")
            code, out, err = run(["--output", "json"] + jet + argv)
            assert (code, err) == (0, "")
            assert json.loads(out)["entries"] == [[{"order": None, "coeffs": [coeff]}]]
    finally:
        sys.set_int_max_str_digits(limit)


def test_exit_code_missing_file(tmp_path):
    code, out, err = run(["divide", "--side", "right", str(tmp_path / "nope.op"), "--s", "s"])
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_exit_code_usage(tmp_path):
    code, _, err = run(["bell", "--side", "left"])  # missing --n
    assert code == 2
    code, _, _ = run(["--bogus-flag", "bell", "--side", "left", "--n", "1"])
    assert code == 2
    code, _, _ = run(["no-such-command"])
    assert code == 2


def test_exit_code_domain_error(tmp_path):
    code, _, err = run(["bell", "--side", "left", "--n", "2", "--s", "D^2(q"])
    assert code == 1
    assert "error:" in err
    code, _, err = run(["bell", "--side", "gen", "--n", "2", "--k", "5"])
    assert code == 1


def test_deep_nesting_is_a_domain_error(tmp_path):
    deep = "(" * 3000 + "s" + ")" * 3000
    deep_d = "D(" * 3000 + "s" + ")" * 3000
    for argv, offset in (
        (["bell", "--side", "left", "--n", "2", "--s=" + deep], 100),
        (["darboux", "d2.op", "--s=" + deep], 100),
        (["bell", "--side", "left", "--n", "1", "--s=" + deep_d], 201),
    ):
        code, out, err = run(argv, D2_FILE, tmp_path)
        assert (code, out) == (1, "")
        assert err == f"error: parentheses nested deeper than 100 (at offset {offset})\n"


def test_huge_exponent_is_a_domain_error(tmp_path):
    """A fresh interpreter with a deadline, so a regression fails instead of hanging."""
    path = tmp_path / "huge.op"
    path.write_text("a[2] = e\na[0] = s^99999999\n")
    src = str(Path(bellops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "bellops", "darboux", str(path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: line 2: exponent larger than 1000 (at offset 2)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ring", "jet", "--dim", "100000", "bell", "--side", "left", "--n", "1", "--s", "x"],
         "jet session needs (x-order + 1) * dim^2 * (t-order + 1) = 170000000000 stored "
         "coefficients, more than 1000000"),
        (["--ring", "jet", "--x-order", "1000000000", "bell", "--side", "left", "--n", "1"],
         "jet session needs (x-order + 1) * dim^2 * (t-order + 1) = 1000000001 stored "
         "coefficients, more than 1000000"),
        # one coefficient over the budget
        (["--ring", "jet", "--x-order", "1000000", "bell", "--side", "left", "--n", "1"],
         "jet session needs (x-order + 1) * dim^2 * (t-order + 1) = 1000001 stored "
         "coefficients, more than 1000000"),
        (["--ring", "bijet", "--dim", "10", "--x-order", "999", "--t-order", "99",
          "bell", "--side", "left", "--n", "1"],
         "jet session needs (x-order + 1) * dim^2 * (t-order + 1) = 10000000 stored "
         "coefficients, more than 1000000"),
        # an order-0 operator puts no x-order bound on the t-order
        (["--ring", "jet", "--x-order", "4", "propagate", "d0.op", "--phi0", "seed.ic",
          "--t-order", "100000"], "--t-order larger than 1000"),
        (["--ring", "jet", "--dim", "9", "--x-order", "4000", "verify-matveev", "d0.op",
          "--phi0", "seed.ic", "--psi0", "seed.ic", "--t-order", "300"],
         "jet session needs (x-order + 1) * dim^2 * (t-order + 1) = 97548381 stored "
         "coefficients, more than 1000000"),
    ],
    ids=["dim", "x-order", "x-order-boundary", "bijet", "propagate-t-order", "matveev-sizes"],
)
def test_oversized_jet_sessions_are_domain_errors(argv, message, tmp_path):
    """A fresh interpreter with a deadline: refused sizes are never allocated."""
    files = {"d0.op": "a[0] = e\n", "seed.ic": "entry[0][0] = 1 + x\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        argv = [str(tmp_path / name) if a == name else a for a in argv]
    src = str(Path(bellops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "bellops", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def _fresh_process(argv, timeout=60):
    """(exit code, stdout, stderr) of ``python -m bellops argv`` in a new interpreter."""
    src = str(Path(bellops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "bellops", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["bell", "--side", "left", "--n", "20"], 32768),
        (["bell", "--side", "left", "--n", "1", "--s", "(s + D(s))^40"], 65536),
    ],
    ids=["bell-n-20", "power-40"],
)
def test_free_products_over_the_term_budget_are_domain_errors(argv, pairs):
    """A fresh interpreter with a deadline: B_20 took about a minute to build and
    (s + D(s))^40 would not fit in memory before the term budget."""
    code, out, err = _fresh_process(argv)
    assert (code, out) == (1, "")
    assert err == f"error: free-ring product of {pairs} term pairs exceeds the budget of 16384\n"


def test_derivations_over_the_letter_budget_are_domain_errors():
    """D^k(s^4) has 4 C(k+3, 3) letters; without a budget on d, k = 1000 would
    run for days.  A fresh interpreter with a deadline."""
    code, out, err = _fresh_process(["bell", "--side", "left", "--n", "0",
                                     "--s", "D^1000(s*s*s*s)"])
    assert (code, out) == (1, "")
    assert err == ("error: free-ring derivative of 536176 letters exceeds the budget "
                   "of 524288\n")


def test_nested_number_powers_are_refused_before_they_are_formed():
    """((7^1000)^1000)^1000 would form 7^(10^9), about 350 MB.  A fresh
    interpreter with a deadline."""
    code, out, err = _fresh_process(["bell", "--side", "left", "--n", "0",
                                     "--s", "((7^1000)^1000)^1000"], timeout=10)
    assert (code, out) == (1, "")
    assert err == "error: power of a number larger than 3322000 bits (at offset 16)\n"


def test_one_parser_prints_as_a_fresh_process(monkeypatch):
    # usage errors twice in a row, and help after a good call, go to the same
    # stream with the same bytes as from a new interpreter
    monkeypatch.setenv("COLUMNS", "80")
    calls = [["bell", "--side", "sideways", "--n", "3"], ["divide", "--side", "left"],
             ["bell", "--side", "left", "--n", "2"], ["--help"], ["bell", "--help"]]
    assert [run(argv) for argv in calls] == [_fresh_process(argv) for argv in calls]


def test_time_derivative_in_an_initial_condition_file_is_a_domain_error(tmp_path):
    files = {"d0.op": "a[0] = e\n", "seed.ic": "entry[0][0] = D0(x)\n"}
    code, out, err = run(["--ring", "jet", "--x-order", "4", "propagate", "d0.op",
                          "--phi0", "seed.ic", "--t-order", "1"], files, tmp_path)
    assert (code, out, err) == (1, "", "error: d0 is not defined in this realization\n")


def test_t_order_counts_only_where_series_in_t_are_built(tmp_path):
    # a jet session keeps one t-level unless the command propagates in t
    code, out, _ = run(["--ring", "jet", "--x-order", "9", "--t-order", "5000",
                        "bell", "--side", "left", "--n", "1", "--s", "x"])
    assert code == 0 and out.startswith("order: x=9")
    files = {"d0.op": "a[0] = 2*e\n", "seed.ic": "entry[0][0] = 1\n"}
    code, out, err = run(["--ring", "jet", "--x-order", "0", "propagate", "d0.op",
                          "--phi0", "seed.ic", "--t-order", "1000"], files, tmp_path)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["order: x=0 t=1000", "x^0 t^0: [[1]]"]


def test_long_literal_is_a_domain_error(tmp_path):
    """Literals past Python's own 4300-digit conversion limit fail at their offset."""
    long = "7" * 5000
    for argv, offset in (
        (["bell", "--side", "left", "--n", "1", "--s", long], 0),
        (["bell", "--side", "left", "--n", "1", "--s", "s + 1/" + long], 6),
        (["bell", "--side", "left", "--n", "1", "--s", "0" * 1001], 0),
    ):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err == f"error: numeric literal longer than 1000 digits (at offset {offset})\n"
    code, out, _ = run(["bell", "--side", "left", "--n", "1", "--s", "1/" + "7" * 1000])
    assert code == 0 and out.startswith("1/777")


def test_operator_index_limit_is_a_domain_error(tmp_path):
    """An operator-file index past MAX_POWER fails on its line before any work."""
    for index in ("1001", "7" * 5000, "0" * 5000 + "1001"):
        files = {"big.op": f"a[0] = e\n# order\na[{index}] = e\n"}
        code, out, err = run(["divide", "--side", "right", "big.op", "--s", "s"], files, tmp_path)
        assert (code, out) == (1, "")
        assert err == "error: line 3: coefficient index larger than 1000\n"
    # leading zeros do not count against the bound
    files = {"small.op": "a[" + "0" * 5000 + "1] = e\n"}
    code, out, _ = run(["divide", "--side", "right", "small.op", "--s", "s"], files, tmp_path)
    assert code == 0 and out


def test_entry_index_limit_is_a_domain_error(tmp_path):
    """An initial-condition index past dim - 1 fails on its line, without echoing it."""
    argv = ["--ring", "jet", "--dim", "2", "--x-order", "4",
            "propagate", "d1.op", "--phi0", "seed.ic", "--t-order", "1"]
    for i, j in (("2", "0"), ("0", "10"), ("7" * 5000, "0"), ("0", "0" * 5000 + "2")):
        files = {"d1.op": "a[1] = e\n", "seed.ic": f"entry[0][0] = 1\n\nentry[{i}][{j}] = x\n"}
        code, out, err = run(argv, files, tmp_path)
        assert (code, out) == (1, "")
        assert err == "error: line 3: entry index outside dim 2\n"
    # leading zeros do not count against the bound
    files = {"d1.op": "a[1] = e\n", "seed.ic": "entry[" + "0" * 5000 + "1][0] = x\n"}
    code, out, _ = run(argv, files, tmp_path)
    assert (code, out) == (0, "order: x=3 t=1\nx^0 t^1: [[0, 0], [1, 0]]\nx^1 t^0: [[0, 0], [1, 0]]\n")


def test_digits_are_ascii_only(tmp_path):
    """Other decimal digits (here Arabic-Indic) are bad characters, not numbers."""
    jet = ["--ring", "jet", "--x-order", "2"]
    propagate = ["--ring", "jet", "--dim", "2", "--x-order", "4",
                 "propagate", "d1.op", "--phi0", "seed.ic", "--t-order", "1"]
    for argv, files, message in (
        (["bell", "--side", "left", "--n", "1", "--s", "٣/٧"], None,
         "unexpected character '٣' (at offset 0)"),
        (jet + ["bell", "--side", "left", "--n", "1", "--s", "x^٢"], None,
         "unexpected character '٢' (at offset 2)"),
        (["divide", "--side", "right", "bad.op", "--s", "s"], {"bad.op": "a[٣] = 1\n"},
         "line 1: expected 'a[<k>] = <expr>'"),
        (propagate, {"d1.op": "a[1] = e\n", "seed.ic": "entry[٠][0] = x\n"},
         "line 1: expected 'entry[<i>][<j>] = <polynomial>'"),
    ):
        assert run(argv, files, tmp_path) == (1, "", f"error: {message}\n")


def test_help_exit_zero(tmp_path):
    code, out, _ = run(["--help"])
    assert code == 0


def test_jet_mode_bell(tmp_path):
    code, out, _ = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "6",
         "bell", "--side", "left", "--n", "2", "--s", "1+x"]
    )
    assert code == 0
    assert out == "order: x=5\nx^0: [[2]]\nx^1: [[2]]\nx^2: [[1]]\n"


def test_jet_mode_divide_round_trip(tmp_path):
    files = {"lam.op": "a[2] = e\na[0] = -9/4*e\n"}
    code, out, _ = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "10",
         "divide", "--side", "right", "lam.op", "--s", "3/2*e"],
        files,
        tmp_path,
    )
    assert code == 0
    assert "quotient:" in out and "remainder:" in out
    assert "zero" in out  # exact remainder block prints as zero


def test_propagate_translation(tmp_path):
    files = {"d1.op": "a[1] = e\n", "seed.ic": "entry[0][0] = x\n"}
    code, out, _ = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "6",
         "propagate", "d1.op", "--phi0", "seed.ic", "--t-order", "2"],
        files,
        tmp_path,
    )
    assert code == 0
    assert out == "order: x=4 t=2\nx^0 t^1: [[1]]\nx^1 t^0: [[1]]\n"


def test_verify_matveev_cli(tmp_path):
    files = {
        "d2.op": "a[2] = e\n",
        "phi.ic": "entry[0][0] = 1 + x + 1/2*x^2 + 1/6*x^3\n",
        "psi.ic": "entry[0][0] = 1 - x + 1/2*x^2\n",
    }
    code, out, _ = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "12",
         "verify-matveev", "d2.op", "--phi0", "phi.ic", "--psi0", "psi.ic",
         "--t-order", "3"],
        files,
        tmp_path,
    )
    assert code == 0
    assert "residual-zero: yes" in out
    assert "burgers-zero: yes" in out


def test_verify_matveev_exits_1_when_a_residual_is_not_zero(tmp_path, monkeypatch):
    true_transform = darboux.darboux_transform

    def wrong(L, s):
        out = true_transform(L, s)
        out.burgers_rhs = out.burgers_rhs + s.one_like()
        return out

    monkeypatch.setattr(darboux, "darboux_transform", wrong)
    files = {
        "d2.op": "a[2] = e\n",
        "phi.ic": "entry[0][0] = 1 + x\n",
        "psi.ic": "entry[0][0] = 1 - x\n",
    }
    code, out, err = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "8",
         "verify-matveev", "d2.op", "--phi0", "phi.ic", "--psi0", "psi.ic",
         "--t-order", "2"],
        files,
        tmp_path,
    )
    assert (code, err) == (1, "")
    assert "residual-zero: yes" in out
    assert "burgers-zero: no" in out


def test_verify_matveev_json(tmp_path):
    files = {
        "d2.op": "a[2] = e\n",
        "phi.ic": "entry[0][0] = 1 + x\n",
        "psi.ic": "entry[0][0] = 1 - x\n",
    }
    code, out, _ = run(
        ["--ring", "jet", "--dim", "1", "--x-order", "8", "--output", "json",
         "verify-matveev", "d2.op", "--phi0", "phi.ic", "--psi0", "psi.ic",
         "--t-order", "2"],
        files,
        tmp_path,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["residual_zero"] is True


def test_stdout_stderr_separation(tmp_path):
    code, out, err = run(["bell", "--side", "left", "--n", "2"])
    assert err == ""
    code, out, err = run(["bell", "--side", "left", "--n", "2", "--s", "q"])
    assert out == ""
    assert err != ""


# -- the matrix printer against coefficient() -------------------------------------

_BIG = 3**1300  # a numerator of 2061 bits
_COEFFICIENTS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6),
                                 Fraction(_BIG, 7), -_BIG, 0, 0, 0])


@st.composite
def _matrices(draw):
    """Jet or bi-jet matrices of dim 1-3 on finite or exact axes, with ragged
    levels on exact axes, jets among bi-jets, and all-zero matrices."""
    dim = draw(st.integers(1, 3))
    bijet = draw(st.booleans())
    x_order = draw(st.sampled_from([None, None, 0, 1, 3]))
    t_order = draw(st.sampled_from([None, None, 0, 2]))
    levels = st.lists(_COEFFICIENTS, min_size=1, max_size=4)
    entries = []
    for _ in range(dim * dim):
        if bijet and draw(st.integers(0, 3)):
            rows = draw(st.lists(st.lists(_COEFFICIENTS, max_size=3), min_size=1, max_size=4))
            entries.append(BiJet(rows, x_order, t_order))
        else:
            entries.append(Jet(draw(levels), x_order))
    m = MatrixJet([entries[i * dim:(i + 1) * dim] for i in range(dim)])
    return m * 0 if draw(st.integers(0, 5)) == 5 else m


def _order_text(v):
    return "exact" if v is None else str(v)


def _entry_lines(m):
    """The text printer, read through coefficient() over the stored extents."""
    header = f"order: x={_order_text(m.x_order)}"
    label = "x^{k}"
    if m.kind == "bijet":
        header += f" t={_order_text(m.t_order)}"
        label = "x^{k} t^{t}"
    cells = [e for row in m.nums for e in row]
    n = range(m.dim)
    body = []
    for k in range(max(len(lv) for e in cells for lv in e)):
        for t in range(max(map(len, cells))):
            mat = [[m.coefficient(i, j, k, t) for j in n] for i in n]
            if any(c != 0 for row in mat for c in row):
                rows = ("[" + ", ".join(map(str, row)) + "]" for row in mat)
                body.append(label.format(k=k, t=t) + ": [" + ", ".join(rows) + "]")
    return [header] + (body or ["zero"])


def _entry_json(m):
    """The JSON printer, read through coefficient() over each entry's stored extents."""
    out = {"dim": m.dim, "kind": m.kind, "x_order": m.x_order, "t_order": m.t_order}
    n = range(m.dim)
    if m.kind == "jet":
        out["entries"] = [[{"order": m.x_order, "coeffs": [
            str(m.coefficient(i, j, k)) for k in range(len(m.nums[i][j][0]))]}
            for j in n] for i in n]
    else:
        out["entries"] = [[{"x_order": m.x_order, "t_order": m.t_order, "coeffs": [
            [str(m.coefficient(i, j, k, t)) for t in range(len(m.nums[i][j]))]
            for k in range(max(map(len, m.nums[i][j])))]}
            for j in n] for i in n]
    return out


@settings(max_examples=150, deadline=None)
@given(m=_matrices())
def test_matrices_print_as_their_entries_read(m):
    assert matrix_lines(m) == _entry_lines(m)
    assert element_json(m) == _entry_json(m)
    assert json_text(m) == json.dumps(_entry_json(m))


# -- the JSON writer against json.dumps of an oracle tree ----------------------------


def _oracle(value):
    """The documented JSON shape of a free element or operator, built from
    ``terms()``, ``Letter._asdict()`` and ``str(Fraction)``."""
    if isinstance(value, DiffOperator):
        return {"order": value.order,
                "coeffs": [_oracle(value.coeff(k)) for k in range(value.order + 1)]}
    if isinstance(value, dict):
        return {key: _oracle(v) for key, v in value.items()}
    if isinstance(value, FreeElement):
        return {"terms": [{"coeff": str(c), "word": [letter._asdict() for letter in word]}
                          for word, c in value.terms()]}
    return value


def _at_lowest_digit_limit(fn, *args):
    """``fn(*args)`` with the interpreter's integer digit limit at its lowest,
    640 digits, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return fn(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _free_elements(ring, coefficients, max_terms, max_len):
    letters = st.builds(Letter, st.sampled_from(ring.generators), st.booleans(),
                        st.integers(0, 1), st.integers(0, 2))
    words = st.lists(letters, max_size=max_len).map(tuple)
    return st.dictionaries(words, st.sampled_from(coefficients), max_size=max_terms).map(
        lambda terms: FreeElement(ring, terms))


# a non-ASCII generator, which json.dumps escapes; numerators past 640 digits
_WIDE_RING = FreeRing(("s", "u", "\u03b1"))
_WIDE_ELEMENTS = _free_elements(
    _WIDE_RING, [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 6), 10**700 + 1,
                 Fraction(-(10**700) - 3, 7), Fraction(9, 10**650 + 1)], 5, 4)


@settings(max_examples=150, deadline=None)
@given(a=_WIDE_ELEMENTS, b=_WIDE_ELEMENTS)
def test_json_text_is_json_dumps_of_the_oracle_tree(a, b):
    ring = _WIDE_RING
    values = [a, ring.zero, ring.one, a - a, DiffOperator([], ring),
              DiffOperator([a, ring.zero, b], ring), {"side": "left", "quotient": a,
                                                      "exact": a.is_zero(), "order": None}]
    for value in values:
        expected = json.dumps(_oracle(value))
        assert _at_lowest_digit_limit(json_text, value) == expected
    assert json_text(ring.zero) == '{"terms": []}'
    assert json_text(ring.one) == '{"terms": [{"coeff": "1", "word": []}]}'


_CLI_RING = FreeRing(("s", "u"))
_CLI_ELEMENTS = _free_elements(_CLI_RING, [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)], 2, 2)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(s=_CLI_ELEMENTS, coeffs=st.lists(_CLI_ELEMENTS, min_size=2, max_size=3),
       n=st.integers(0, 4))
def test_command_payloads_print_as_json_dumps_of_the_oracle(s, coeffs, n, tmp_path_factory):
    ring = _CLI_RING
    coeffs[-1] = coeffs[-1] or ring.one
    L = DiffOperator(coeffs, ring)
    path = tmp_path_factory.getbasetemp() / "payload.op"
    path.write_text(L.to_file_text())
    table = BellTable(s)
    transform = darboux_transform(L, s)
    expected = [
        (["bell", "--side", "left", "--n", str(n)], table.left(n)),
        (["bell", "--side", "right", "--n", str(n)], table.right(n)),
        (["bell", "--side", "gen", "--n", str(n), "--k", str(n // 2)], table.gen(n, n // 2)),
        (["burgers", str(path)], {"burgers": burgers_rhs(L, s)}),
        (["darboux", str(path)], {"transformed": transform.transformed,
                                  "remainder": transform.remainder,
                                  "defect": transform.intertwine_defect,
                                  "burgers": transform.burgers_rhs}),
    ]
    for side, divide in (("right", divide_right), ("left", divide_left)):
        outcome = divide(L, s)
        residual = riccati_residual(L, s, side)
        expected += [
            (["divide", "--side", side, str(path)],
             {"side": side, "quotient": outcome.quotient, "remainder": outcome.remainder,
              "exact": outcome.exact}),
            (["factor-check", "--side", side, str(path)],
             {"side": side, "residual": residual, "exact": residual.is_zero()}),
        ]
    for argv, value in expected:
        argv = ["--output", "json", "--gens", "s,u"] + argv + ["--s=" + str(s)]
        assert run(argv) == (0, json.dumps(_oracle(value)) + "\n", "")


def test_json_output_formats_no_text(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("text formatted under --output json")

    monkeypatch.setattr(FreeElement, "to_text", refuse)
    monkeypatch.setattr(FreeElement, "signed_text", refuse)
    for argv in (["darboux", "d2.op"], ["divide", "--side", "left", "d2.op"],
                 ["factor-check", "--side", "right", "d2.op"], ["burgers", "d2.op"]):
        code, out, err = run(["--output", "json"] + argv, D2_FILE, tmp_path)
        assert (code, err) == (0, "") and json.loads(out)


# -- fuzzing the command line --------------------------------------------------

# "g" stands for the session's generator; of the atoms, one in twenty is never valid
_ATOMS = st.sampled_from(["g", "g", "g*'", "e", "0", "2", "1/2"] * 19
                         + ["s", "x", "t", "3/0", "(", "'", "#"])

# Exponents stay at most 3 and D powers at most 2, so that no example forms a
# large element; larger ones are refused before any ring work.
_EXPRESSIONS = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from(["+", "-", "*", " * ", "+", "-", "*", "+-"]), inner)
    .map("".join),
    st.tuples(st.sampled_from(["(", "-(", "D(", "D^2(", "D0(", "D^1001("]), inner)
    .map(lambda pair: pair[0] + pair[1] + ")"),
    st.tuples(inner, st.sampled_from(["^0", "^2", "^3", "^2", "^3", "^", "^1001"]))
    .map(lambda pair: "(" + pair[0] + ")" + pair[1]),
), max_leaves=6)

# (valid values, invalid values) of each option and file line head
_CHOICES = {
    "--gens": (["s", "s,u"], ["s,s", "e", ""]),
    "--dim": (["1", "2"], ["0"]),
    "--x-order": (["0", "2", "3"], ["-1"]),
    "--t-order": (["0", "1", "2"], ["-1"]),
    "--n": (["0", "1", "3"], ["-1", "n"]),
    "--k": (["0", "1", "2"], ["-1", "9"]),
    "--side": (["left", "right"], ["gen", "up"]),
    "op": (["a[2] = ", "a[1] = ", "a[0] = "], ["a[1001] = ", "b[0] = ", "a[x] = ", "# "]),
    "ic": (["entry[0][0] = ", "entry[1][1] = ", "entry[0][1] = "], ["entry[2][0] = ", "a[0] = "]),
}


@st.composite
def _command_lines(draw):
    """A session's global options, one command, and its files: an operator
    file, and an initial-condition file for ``propagate``; about one choice in
    ten is invalid."""

    def pick(key, good=None):
        """A valid choice (``good`` when given), or one in ten times an invalid one."""
        valid, invalid = _CHOICES[key]
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(invalid))
        return draw(st.sampled_from(valid)) if good is None else good

    ring = draw(st.sampled_from(["free", "jet", "bijet"]))
    argv = ["--output", draw(st.sampled_from(["text", "json"])), "--ring", ring]
    gen = "x"
    if ring == "free":
        gens = pick("--gens")
        argv += ["--gens", gens]
        gen = draw(st.sampled_from(gens.split(",")))
    else:
        argv += [a for opt in ("--dim", "--x-order", "--t-order") for a in (opt, pick(opt))]
    command = draw(st.sampled_from(["bell", "divide", "factor-check", "darboux", "burgers",
                                    "propagate"]))
    argv.append(command)
    if command == "bell":
        side = draw(st.sampled_from(["left", "right", "gen"]))
        argv += ["--side", side, "--n", pick("--n")]
        if side == "gen" or draw(st.integers(0, 9)) == 0:
            argv += ["--k", pick("--k")]
    else:
        argv.append("fuzz.op")
    if command in ("divide", "factor-check"):
        argv += ["--side", pick("--side")]
    if command == "propagate":
        argv += ["--phi0", "fuzz.ic", "--t-order", pick("--t-order")]
    else:
        argv.append("--s=" + draw(_EXPRESSIONS).replace("g", gen))
    files = {}
    for name, head in (("fuzz.op", "op"), ("fuzz.ic", "ic")):
        lines = [pick(head, _CHOICES[head][0][i]) + draw(_EXPRESSIONS).replace("g", gen)
                 for i in range(draw(st.integers(1, 3)))]
        files[name] = "\n".join(lines) + "\n"
    return argv, files


@settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(case=_command_lines())
def test_any_command_line_ends_in_a_known_code_with_one_error_line(case, tmp_path_factory):
    code, out, err = run(*case, tmp_path_factory.getbasetemp())
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == err.splitlines()[-1:]
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1
