"""Command-line front end.

Global options pick the ring realization and output mode; subcommands dispatch
to the kernel and return an unrendered :class:`Result`, which :func:`render`
prints as text or JSON, each coefficient read from the numerator grid (``nums``
over ``den``) in lowest terms.  JSON is written in one pass by
:func:`json_text`, with the bytes ``json.dumps`` prints for the documented
shape; a free element encodes each of its distinct letters once.  Exit codes:
0 success, 1 domain error (bad input data, failed verification), 2 usage
error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import NamedTuple

from .bell import BellTable
from .darboux import burgers_rhs, darboux_transform, matveev_verify, time_propagate
from .division import divide_left, divide_right, riccati_residual
from .errors import KernelError
from .free import FreeElement, FreeRing, ratio_text
from .jets import MatrixJet, MatrixRealization, x_jet
from .operators import DiffOperator
from .parsing import MAX_POWER, parse_element, parse_entry_text, parse_operator_text

# Most stored coefficients, (x-order + 1) * dim^2 * (t-order + 1), a jet session
# may ask for; a bigger one is an error before any series is built.
MAX_COEFFICIENTS = 10**6

# Commands that build series in t in any jet session.
T_SERIES_COMMANDS = ("propagate", "verify-matveev")


class Session:
    """Evaluation context derived from the global options."""

    def __init__(self, args):
        self.args = args
        if args.ring == "free":
            generators = tuple(g.strip() for g in args.gens.split(",") if g.strip())
            self.ring = FreeRing(generators)
            self.env = {g: self.ring.gen(g) for g in generators}
            self.one = self.ring.one
            self.realization = self.ring
        else:
            if args.dim < 1:
                raise KernelError("jet modes need --dim >= 1")
            if args.x_order < 0:
                raise KernelError("jet modes need --x-order >= 0")
            if args.ring == "bijet" and args.t_order < 0:
                raise KernelError("bijet mode needs --t-order >= 0")
            uses_t = args.ring == "bijet" or args.command in T_SERIES_COMMANDS
            t_order = args.t_order if uses_t else 0
            if t_order > MAX_POWER:
                raise KernelError(f"--t-order larger than {MAX_POWER}")
            size = (args.x_order + 1) * args.dim**2 * (t_order + 1)
            if size > MAX_COEFFICIENTS:
                raise KernelError(
                    f"jet session needs (x-order + 1) * dim^2 * (t-order + 1) = {size} "
                    f"stored coefficients, more than {MAX_COEFFICIENTS}")
            x = MatrixJet.diagonal(x_jet(args.x_order), args.dim)
            one = MatrixJet.identity(args.dim)
            if args.ring == "bijet":
                x = x.promote()
                one = one.promote()
            self.env = {"x": x}
            self.one = one
            self.realization = MatrixRealization(args.dim)

    def element(self, text: str):
        return parse_element(text, self.env, self.one)

    def operator(self, path: str) -> DiffOperator:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_operator_text(text, self.env, self.one, self.realization)

    def seed(self, path: str) -> MatrixJet:
        if self.args.ring == "free":
            raise KernelError("initial-condition files need a jet session (--ring jet)")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_entry_text(text, self.args.dim, self.args.x_order)


class Result(NamedTuple):
    """A command's unrendered outcome.

    ``payload`` is what ``--output json`` prints; ``fields`` are the
    ``(label, value)`` pairs text mode prints, a ``None`` label printing the
    value bare, each value formatted only then; ``code`` is the exit code.
    """

    payload: object
    fields: list
    code: int = 0


# -- rendering -------------------------------------------------------------------


def _fmt_order(v):
    return "exact" if v is None else str(v)


def matrix_lines(m: MatrixJet):
    """Row-major coefficient tables, one line per nonzero series order."""
    header = f"order: x={_fmt_order(m.x_order)}"
    label = "x^{k}"
    if m.kind == "bijet":
        header += f" t={_fmt_order(m.t_order)}"
        label = "x^{k} t^{t}"
    cells = [e for row in m.nums for e in row]
    nx, nt = max(len(lv) for e in cells for lv in e), max(map(len, cells))
    body = []
    for k in range(nx):
        for t in range(nt):
            mat = [[_at(e, t, k) for e in row] for row in m.nums]
            if any(map(any, mat)):
                body.append(label.format(k=k, t=t) + ": " + _mat_text(mat, m.den))
    return [header] + (body or ["zero"])


def _at(e, t, k):
    """Numerator of x^k t^t in an entry's t-levels ``e``; 0 past a short level."""
    return e[t][k] if t < len(e) and k < len(e[t]) else 0


def _mat_text(mat, den):
    return "[" + ", ".join("[" + ", ".join(ratio_text(v, den) for v in row) + "]"
                           for row in mat) + "]"


def text_lines(label, value):
    """One field as text: `label: value` for yes/no, strings, symbolic elements
    and operators, `label:` over an indented block for matrices and matrix
    operators.  A None label prints the value bare."""
    if isinstance(value, bool):
        value = "yes" if value else "no"
    if isinstance(value, DiffOperator) and not (
        value.is_zero() or isinstance(value.coeff(0), FreeElement)
    ):
        block = [line for k in range(value.order, -1, -1)
                 for line in text_lines(f"a[{k}]", value.coeff(k))]
    elif isinstance(value, MatrixJet):
        block = matrix_lines(value)
    else:
        return [str(value) if label is None else f"{label}: {value}"]
    return block if label is None else [f"{label}:"] + ["  " + line for line in block]


def element_json(value: MatrixJet):
    """The JSON tree of a matrix."""
    out = {
        "dim": value.dim,
        "kind": value.kind,
        "x_order": value.x_order,
        "t_order": value.t_order,
    }
    den = value.den
    if value.kind == "jet":
        out["entries"] = [
            [{"order": value.x_order, "coeffs": [ratio_text(v, den) for v in e[0]]} for e in row]
            for row in value.nums
        ]
    else:
        out["entries"] = [
            [
                {
                    "x_order": value.x_order,
                    "t_order": value.t_order,
                    "coeffs": [[ratio_text(_at(e, t, k), den) for t in range(len(e))]
                               for k in range(max(map(len, e)))],
                }
                for e in row
            ]
            for row in value.nums
        ]
    return out


def operator_json(op: DiffOperator, element=element_json):
    """``{"order", "coeffs"}``, the coefficients from ``a[0]`` up through
    ``element``: JSON trees of matrices by default, unrendered for :func:`json_text`."""
    return {"order": op.order, "coeffs": [element(op.coeff(k)) for k in range(op.order + 1)]}


def free_json(value: FreeElement) -> str:
    """``{"terms": [{"coeff", "word": [{"gen", "star", "d0", "d"}]}]}`` as JSON
    text, each distinct letter and numerator encoded once; a coefficient's
    characters (digits, ``-``, ``/``) need no escape."""
    letter = value.letters(lambda letter: json.dumps(letter._asdict())).__getitem__
    coeffs = {num: ratio_text(num, value.den) for num in set(value.nums.values())}
    terms = [f'{{"coeff": "{coeffs[num]}", "word": [{", ".join(map(letter, word))}]}}'
             for _, word, num in value.coded_terms()]
    return '{"terms": [' + ", ".join(terms) + "]}"


def json_text(value) -> str:
    """The text ``json.dumps`` prints for the JSON shape of ``value`` (a payload
    of dicts, lists, scalars, operators and elements), written in one pass."""
    if isinstance(value, dict):
        return "{" + ", ".join(json.dumps(key) + ": " + json_text(v)
                               for key, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(json_text, value)) + "]"
    if isinstance(value, DiffOperator):
        return json_text(operator_json(value, element=lambda c: c))
    if isinstance(value, FreeElement):
        return free_json(value)
    if isinstance(value, MatrixJet):
        return json.dumps(element_json(value))
    return json.dumps(value)


def render(result: Result, output: str, out) -> int:
    """Print a result in the chosen output mode; returns its exit code."""
    if output == "json":
        print(json_text(result.payload), file=out)
    else:
        for label, value in result.fields:
            for line in text_lines(label, value):
                print(line, file=out)
    return result.code


class CoefficientList(NamedTuple):
    """An operator as the text line ``a[N]=..., ..., a[0]=...``, formatted only
    when printed."""

    op: DiffOperator

    def __str__(self) -> str:
        op = self.op
        return ", ".join(f"a[{k}]={op.coeff(k)}" for k in range(op.order, -1, -1))


# -- commands ------------------------------------------------------------------------


def cmd_bell(session: Session, args) -> Result:
    table = BellTable(session.element(args.s))
    if args.side == "left":
        value = table.left(args.n)
    elif args.side == "right":
        value = table.right(args.n)
    else:
        if args.k is None:
            raise KernelError("--side gen requires --k")
        value = table.gen(args.n, args.k)
    return Result(value, [(None, value)])


def cmd_divide(session: Session, args) -> Result:
    op = session.operator(args.operator)
    s = session.element(args.s)
    outcome = divide_right(op, s) if args.side == "right" else divide_left(op, s)
    payload = {"side": outcome.side, "quotient": outcome.quotient,
               "remainder": outcome.remainder, "exact": outcome.exact}
    return Result(payload, [("quotient", outcome.quotient), ("remainder", outcome.remainder)])


def cmd_factor_check(session: Session, args) -> Result:
    op = session.operator(args.operator)
    s = session.element(args.s)
    residual = riccati_residual(op, s, args.side)
    exact = residual.is_zero()
    payload = {"side": args.side, "residual": residual, "exact": exact}
    return Result(payload, [("residual", residual), ("factors", exact)])


def cmd_darboux(session: Session, args) -> Result:
    op = session.operator(args.operator)
    s = session.element(args.s)
    outcome = darboux_transform(op, s)
    payload = {"transformed": outcome.transformed, "remainder": outcome.remainder,
               "defect": outcome.intertwine_defect, "burgers": outcome.burgers_rhs}
    if isinstance(outcome.remainder, FreeElement):
        transformed = (None, CoefficientList(outcome.transformed))
    else:
        transformed = ("transformed", outcome.transformed)
    return Result(payload, [transformed, ("burgers", outcome.burgers_rhs)])


def cmd_burgers(session: Session, args) -> Result:
    op = session.operator(args.operator)
    value = burgers_rhs(op, session.element(args.s))
    return Result({"burgers": value}, [("burgers", value)])


def cmd_propagate(session: Session, args) -> Result:
    op = session.operator(args.operator)
    result = time_propagate(op, session.seed(args.phi0), args.t_order)
    return Result(result, [(None, result)])


def cmd_verify_matveev(session: Session, args) -> Result:
    op = session.operator(args.operator)
    phi0 = session.seed(args.phi0)
    psi0 = session.seed(args.psi0)
    report = matveev_verify(op, phi0, psi0, args.t_order)
    residual_zero = report.residual.is_zero()
    burgers_zero = report.burgers_residual.is_zero()
    x_order, t_order = report.residual.x_order, report.residual.t_order
    payload = {"ok": report.ok, "residual_zero": residual_zero, "burgers_zero": burgers_zero,
               "x_order": x_order, "t_order": t_order}
    fields = [("residual-zero", residual_zero), ("burgers-zero", burgers_zero),
              ("valid-range", f"x={_fmt_order(x_order)} t={_fmt_order(t_order)}")]
    return Result(payload, fields, 0 if report.ok else 1)


# -- argument wiring --------------------------------------------------------------------


@functools.cache  # parsing leaves no state on the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellops",
        description="Kernel for noncommutative differential operators: Bell tables, "
        "division, factorization checks and Darboux transforms.",
    )
    parser.add_argument("--ring", choices=("free", "jet", "bijet"), default="free")
    parser.add_argument("--gens", default="s", help="comma-separated generators (free ring)")
    parser.add_argument("--dim", type=int, default=1, help="matrix dimension (jet modes)")
    parser.add_argument("--x-order", type=int, default=16, dest="x_order")
    parser.add_argument("--t-order", type=int, default=4, dest="t_order")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bell", help="print a Bell-table entry")
    p.add_argument("--side", choices=("left", "right", "gen"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", default="s", help="factor element expression")
    p.set_defaults(handler=cmd_bell)

    p = sub.add_parser("divide", help="divide an operator by D - s")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("operator", help="operator file (a[k] = expr lines)")
    p.add_argument("--s", default="s")
    p.set_defaults(handler=cmd_divide)

    p = sub.add_parser("factor-check", help="evaluate the factorization residual")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("operator")
    p.add_argument("--s", default="s")
    p.set_defaults(handler=cmd_factor_check)

    p = sub.add_parser("darboux", help="transform an operator and print the Burgers RHS")
    p.add_argument("operator")
    p.add_argument("--s", default="s")
    p.set_defaults(handler=cmd_darboux)

    p = sub.add_parser("burgers", help="print the generalized Burgers right-hand side")
    p.add_argument("operator")
    p.add_argument("--s", default="s")
    p.set_defaults(handler=cmd_burgers)

    p = sub.add_parser("propagate", help="Taylor-propagate d_t phi = L phi")
    p.add_argument("operator")
    p.add_argument("--phi0", required=True, help="initial-condition file")
    p.add_argument("--t-order", type=int, required=True, dest="t_order")
    p.set_defaults(handler=cmd_propagate)

    p = sub.add_parser("verify-matveev", help="end-to-end wavefunction-transform check")
    p.add_argument("operator")
    p.add_argument("--phi0", required=True)
    p.add_argument("--psi0", required=True)
    p.add_argument("--t-order", type=int, required=True, dest="t_order")
    p.set_defaults(handler=cmd_verify_matveev)

    return parser


def run_command(argv, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        return render(args.handler(Session(args), args), args.output, out)
    except (KernelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
