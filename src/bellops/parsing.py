"""Surface syntax for ring elements, operator files and initial-condition files.

Grammar (whitespace insensitive, products keep their written order):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUM | 'e' | 'D' ('^' INT)? '(' expr ')' | 'D0' ('^' INT)? '(' expr ')'
            | IDENT ["*'"] | '(' expr ')'
    NUM    := INT ('/' INT)?

The star suffix token is ``*'`` so it cannot collide with multiplication.
Exponents (``^INT``, ``D^INT``, ``D0^INT``) and operator-file indices are at
most ``MAX_POWER``, and entry indices at most ``dim - 1``; integer literals in
``NUM`` are at most ``MAX_DIGITS`` digits long.
Operator files hold ``a[<k>] = <expr>`` lines; initial-condition files hold
``entry[<i>][<j>] = <polynomial in x>`` lines.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DuplicateIndexError,
    ExprSyntaxError,
    OperatorFileError,
    UndeclaredGeneratorError,
    UnsupportedRealizationError,
)
from .jets import Jet, MatrixJet, x_jet
from .operators import DiffOperator

# Deepest allowed parenthesis nesting, counting the parentheses of D(...) and
# D0(...); each level costs a few parser and evaluator frames, so this keeps
# hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100

# Largest allowed exponent in ``^k``, ``D^k`` and ``D0^k``, and largest index k
# in an operator file's ``a[k]``; a bigger one is an error before any ring work
# starts.
MAX_POWER = 1000

# Longest allowed integer literal, numerator or denominator, in digits (leading
# zeros count); it is converted in pieces, under any digit limit of ``int()``.
MAX_DIGITS = 1000


def _bounded(digits: str, limit: int = MAX_POWER):
    """The value of a decimal digit string, or None when it exceeds ``limit``;
    the length is checked before any conversion."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        return None
    return int(digits)


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class UnitE:
    pass


@dataclass(frozen=True)
class GenRef:
    name: str
    star: bool = False


@dataclass(frozen=True)
class DApp:
    which: str  # 'D' or 'D0'
    power: int
    inner: object


@dataclass(frozen=True)
class PowNode:
    base: object
    exponent: int


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<INT>[0-9]+)|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)|(?P<STAR>\*')"
    r"|(?P<OP>[*+\-^()/]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        token = m.group(kind)  # an operator token is its own kind
        tokens.append((token if kind == "OP" else kind, token, m.start(kind)))
        pos = m.end()
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, generators=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.generators = generators
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        node = self.sum()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return node

    def sum(self):
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        terms.append((sign, self.term()))
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            terms.append((1 if op == "+" else -1, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            return PowNode(base, self.power())
        return base

    def power(self):
        """'^' INT, with the integer at most MAX_POWER."""
        self.take("^")
        tok = self.take("INT")
        k = _bounded(tok[1])
        if k is None:
            raise ExprSyntaxError(f"exponent larger than {MAX_POWER}", tok[2])
        return k

    def group(self):
        """'(' expr ')', nested at most MAX_NESTING deep."""
        tok = self.take("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
        node = self.sum()
        self.take(")")
        self.depth -= 1
        return node

    def literal(self):
        """INT, at most MAX_DIGITS digits long: (value, offset)."""
        tok = self.take("INT")
        if len(tok[1]) > MAX_DIGITS:
            raise ExprSyntaxError(f"numeric literal longer than {MAX_DIGITS} digits", tok[2])
        value = 0
        for i in range(0, len(tok[1]), 600):  # under int()'s lowest digit limit, 640
            piece = tok[1][i:i + 600]
            value = value * 10 ** len(piece) + int(piece)
        return value, tok[2]

    def atom(self):
        tok = self.peek()
        if tok[0] == "INT":
            value = Fraction(self.literal()[0])
            if self.peek()[0] == "/":
                self.take()
                den, at = self.literal()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", at)
                value = value / den
            return Num(value)
        if tok[0] == "(":
            return self.group()
        if tok[0] == "IDENT":
            self.take()
            name = tok[1]
            if name == "e":
                return UnitE()
            if name in ("D", "D0"):
                power = self.power() if self.peek()[0] == "^" else 1
                return DApp(name, power, self.group())
            star = False
            if self.peek()[0] == "STAR":
                self.take()
                star = True
            if self.generators is not None and name not in self.generators:
                raise UndeclaredGeneratorError(
                    f"generator {name!r} is not declared (declared: "
                    f"{', '.join(sorted(self.generators)) or 'none'})"
                )
            return GenRef(name, star)
        raise ExprSyntaxError(f"expected a factor, found {tok[1] or 'end of input'!r}", tok[2])


def parse_expr(text: str, generators=None):
    """Parse expression text into an AST; validates generator names if given."""
    return _Parser(text, generators).parse()


# -- evaluation ----------------------------------------------------------------


def evaluate(node, env, one):
    """Evaluate an AST against name bindings and the ring unit."""
    if isinstance(node, Num):
        return one * node.value
    if isinstance(node, UnitE):
        return one
    if isinstance(node, GenRef):
        try:
            value = env[node.name]
        except KeyError:
            raise UndeclaredGeneratorError(f"generator {node.name!r} is not bound") from None
        return value.star() if node.star else value
    if isinstance(node, DApp):
        value = evaluate(node.inner, env, one)
        for _ in range(node.power):
            if node.which == "D":
                value = value.d()
            else:
                if not hasattr(value, "d0"):
                    raise UnsupportedRealizationError("d0 is not defined in this realization")
                value = value.d0()
        return value
    if isinstance(node, PowNode):
        # binary powering: powers of one element commute, so this is exact
        base = evaluate(node.base, env, one)
        value, k = one, node.exponent
        while k:
            if k & 1:
                value = value * base
            k >>= 1
            if k:
                base = base * base
        return value
    if isinstance(node, Product):
        value = evaluate(node.factors[0], env, one)
        for factor in node.factors[1:]:
            value = value * evaluate(factor, env, one)
        return value
    if isinstance(node, Sum):
        value = None
        for sign, term in node.terms:
            piece = evaluate(term, env, one)
            if sign < 0:
                piece = -piece
            value = piece if value is None else value + piece
        return value
    raise TypeError(f"unknown AST node {type(node).__name__}")


def parse_element(text: str, env, one):
    """Parse and evaluate expression text; the names bound in ``env`` are its
    generators."""
    return evaluate(parse_expr(text, env), env, one)


# -- file formats ----------------------------------------------------------------

_COEFF_LINE_RE = re.compile(r"^a\[([0-9]+)\]\s*=\s*(.+)$")
_ENTRY_LINE_RE = re.compile(r"^entry\[([0-9]+)\]\[([0-9]+)\]\s*=\s*(.+)$")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_operator_text(text: str, env, one, realization) -> DiffOperator:
    """Parse `a[k] = expr` lines into an operator; missing powers are zero."""
    coeffs = {}
    for lineno, line in _content_lines(text):
        m = _COEFF_LINE_RE.match(line)
        if not m:
            raise OperatorFileError("expected 'a[<k>] = <expr>'", lineno)
        k = _bounded(m.group(1))
        if k is None:
            raise OperatorFileError(f"coefficient index larger than {MAX_POWER}", lineno)
        if k in coeffs:
            raise DuplicateIndexError(f"coefficient a[{k}] assigned twice", lineno)
        try:
            coeffs[k] = parse_element(m.group(2), env, one)
        except (ExprSyntaxError, UndeclaredGeneratorError) as exc:
            raise OperatorFileError(str(exc), lineno) from exc
    if not coeffs:
        raise OperatorFileError("operator file declares no coefficients", 1)
    top = max(coeffs)
    zero = realization.zero
    return DiffOperator([coeffs.get(k, zero) for k in range(top + 1)], realization)


def parse_entry_text(text: str, dim: int, x_order) -> MatrixJet:
    """Parse `entry[i][j] = polynomial in x` lines into a matrix jet."""
    env = {"x": x_jet(x_order)}
    one = Jet((1,), x_order)
    zero = Jet((0,), x_order)
    entries = [[zero for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for lineno, line in _content_lines(text):
        m = _ENTRY_LINE_RE.match(line)
        if not m:
            raise OperatorFileError("expected 'entry[<i>][<j>] = <polynomial>'", lineno)
        i, j = _bounded(m.group(1), dim - 1), _bounded(m.group(2), dim - 1)
        if i is None or j is None:
            raise OperatorFileError(f"entry index outside dim {dim}", lineno)
        if (i, j) in seen:
            raise DuplicateIndexError(f"entry[{i}][{j}] assigned twice", lineno)
        seen.add((i, j))
        try:
            entries[i][j] = parse_element(m.group(3), env, one)
        except (ExprSyntaxError, UndeclaredGeneratorError) as exc:
            raise OperatorFileError(str(exc), lineno) from exc
    return MatrixJet(entries)
