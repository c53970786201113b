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

import bellops
from bellops import darboux
from bellops.cli import run_command
from bellops.free import fraction_text


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
            assert _digits_value(fraction_text(q)) == q
    assert fraction_text(Fraction(-10**600, 7)) == str(Fraction(-10**600, 7))
    # free-ring text and JSON go through the same printer
    files = {"big.op": f"a[0] = ({nines})^5*s\n"}
    code, out, _ = run(["burgers", "big.op", "--s", "0"], files, tmp_path)
    assert code == 0 and _digits_value(out[len("burgers: "):].split("*")[0]) == nines**5
    code, out, _ = run(["--output", "json", "burgers", "big.op", "--s", "0"], files, tmp_path)
    assert code == 0 and _digits_value(json.loads(out)["burgers"]["terms"][0]["coeff"]) == nines**5


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
    src = str(Path(bellops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "bellops", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: free-ring product of {pairs} term pairs exceeds "
                           "the budget of 16384\n")


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

    def wrong(L, s, table=None):
        out = true_transform(L, s, table)
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
