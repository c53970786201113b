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
``NUM`` are at most ``MAX_DIGITS`` digits long; a power of a number may not pass
what a ``MAX_DIGITS``-digit literal to ``MAX_POWER`` reaches in bits, so
``((7^1000)^1000)^1000`` is refused.

Parsing and evaluation are one walk: each grammar method of ``_Parser`` reads
its form and returns a thunk, a zero-argument function that does the form's
ring work when called.  :func:`parse_element` calls the thunk only after the
whole text is read, so every syntax, bound and generator error is raised
before any ring operation, except the bound on a power of a number: it needs
the number's value and is checked just before the power is formed.

A number literal evaluates to a ``Fraction`` and stays one until it meets a
ring element: a product with an element ``a`` is the scalar product
``a * c``, a sum with ``a`` is ``a + one * c``, numbers combine with numbers as
Fractions, ``D``/``D0`` of a number differentiate ``one * c``, and a whole
value that is a number is ``one * c``.  A power multiplies from its base by
binary powering, with no first product by ``one`` (``a^0`` is ``one``).  Ring
operations keep the written order of factors and terms.

Operator files hold ``a[<k>] = <expr>`` lines; initial-condition files hold
``entry[<i>][<j>] = <polynomial in x>`` lines, each entry read as a 1 x 1
matrix jet.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DuplicateIndexError,
    ExprSyntaxError,
    OperatorFileError,
    UndeclaredGeneratorError,
)
from .free import FreeElement
from .jets import MatrixJet, x_jet
from .operators import DiffOperator

# Deepest allowed parenthesis nesting, counting the parentheses of D(...) and
# D0(...); each level costs a few parser and thunk frames, so this keeps
# hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100

# Largest allowed exponent in ``^k``, ``D^k`` and ``D0^k``, and largest index k
# in an operator file's ``a[k]``; a bigger one is an error before any ring work
# starts.
MAX_POWER = 1000

# Longest allowed integer literal, numerator or denominator, in digits (leading
# zeros count); it is converted in pieces, under any digit limit of ``int()``.
MAX_DIGITS = 1000

# Most bits one legal power of a number reaches, a MAX_DIGITS-digit literal to
# MAX_POWER; a power of a number that could pass it is refused before it is formed.
_MAX_NUMBER_POWER_BITS = MAX_POWER * (10**MAX_DIGITS - 1).bit_length()


def _bounded(digits: str, limit: int = MAX_POWER):
    """The value of a decimal digit string, or None when it exceeds ``limit``;
    the length is checked before any conversion."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        return None
    return int(digits)


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
    """Recursive descent whose grammar methods return thunks (see above)."""

    def __init__(self, text: str, env, one):
        self.tokens = _tokenize(text)
        self.i = 0
        self.env = env
        self.one = one
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
        value = self.sum()
        tok = self.peek()
        if tok[0] != "END":
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return value

    def sum(self):
        """Terms added left to right; a negative term is negated, then added."""
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        terms = [(sign, self.term())]
        while self.peek()[0] in ("+", "-"):
            terms.append((1 if self.take()[0] == "+" else -1, self.term()))
        if len(terms) == 1 and sign == 1:
            return terms[0][1]
        one = self.one

        def value():
            total = None
            for sign, term in terms:
                piece = term()
                if sign < 0:
                    piece = -piece
                if total is None:
                    total = piece
                elif isinstance(total, Fraction) is isinstance(piece, Fraction):
                    total = total + piece
                elif isinstance(total, Fraction):  # a number meets a ring element as one * c
                    total = piece + one * total
                else:
                    total = total + one * piece
            return total
        return value

    def term(self):
        """Factors multiplied left to right, in their written order; a number
        scales the ring element it meets."""
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]

        def value():
            total = factors[0]()
            for factor in factors[1:]:
                piece = factor()
                if isinstance(total, Fraction) and not isinstance(piece, Fraction):
                    total = piece * total
                else:
                    total = total * piece
            return total
        return value

    def factor(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        exponent, one = self.power(), self.one
        at = self.tokens[self.i - 1][2]  # the exponent's offset

        def value():
            b = base()
            if isinstance(b, Fraction):
                bits = max(b.numerator.bit_length(), b.denominator.bit_length())
                if exponent * bits > _MAX_NUMBER_POWER_BITS:
                    raise ExprSyntaxError(
                        f"power of a number larger than {_MAX_NUMBER_POWER_BITS} bits", at)
                return b ** exponent
            # binary powering from the base: powers of one element commute, so
            # this is exact, and it forms no product with one
            total, k = None, exponent
            while k:
                if k & 1:
                    total = b if total is None else total * b
                k >>= 1
                if k:
                    b = b * b
            return one if total is None else total
        return value

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
        value = self.sum()
        self.take(")")
        self.depth -= 1
        return value

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

    def derivation(self, name):
        """D or D0 (already taken) to a power, applied to a group one derivation at a time."""
        power = self.power() if self.peek()[0] == "^" else 1
        inner, one = self.group(), self.one

        def value():
            v = inner()
            if isinstance(v, Fraction):
                v = one * v
            if power > 1 and isinstance(v, FreeElement):  # one is budgeted by d itself
                v.check_derivations(power, d0=name == "D0")
            for _ in range(power):
                v = v.d() if name == "D" else v.d0()
            return v
        return value

    def atom(self):
        tok = self.peek()
        one = self.one
        if tok[0] == "INT":
            number = Fraction(self.literal()[0])
            if self.peek()[0] == "/":
                self.take()
                den, at = self.literal()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", at)
                number = number / den
            return lambda: number
        if tok[0] == "(":
            return self.group()
        if tok[0] == "IDENT":
            self.take()
            name = tok[1]
            if name == "e":
                return lambda: one
            if name in ("D", "D0"):
                return self.derivation(name)
            star = self.peek()[0] == "STAR"
            if star:
                self.take()
            if name not in self.env:
                raise UndeclaredGeneratorError(
                    f"generator {name!r} is not declared (declared: "
                    f"{', '.join(sorted(self.env)) or 'none'})"
                )
            generator = self.env[name]
            return (lambda: generator.star()) if star else (lambda: generator)
        raise ExprSyntaxError(f"expected a factor, found {tok[1] or 'end of input'!r}", tok[2])


def parse_element(text: str, env, one):
    """Parse and evaluate expression text; the names bound in ``env`` are its
    generators.  The whole text is parsed before any ring operation; a value
    that is a number in the end is ``one`` times it."""
    value = _Parser(text, env, one).parse()()
    return one * value if isinstance(value, Fraction) else value


# -- file formats ----------------------------------------------------------------

_COEFF_LINE_RE = re.compile(r"^a\[([0-9]+)\]\s*=\s*(.+)$")
_ENTRY_LINE_RE = re.compile(r"^entry\[([0-9]+)\]\[([0-9]+)\]\s*=\s*(.+)$")


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_operator_text(text: str, env, one) -> DiffOperator:
    """Parse `a[k] = expr` lines into an operator over the ring of ``one``;
    missing powers are zero."""
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
    realization = one.realization
    zero = realization.zero
    return DiffOperator([coeffs.get(k, zero) for k in range(top + 1)], realization)


def parse_entry_text(text: str, dim: int, x_order) -> MatrixJet:
    """Parse `entry[i][j] = polynomial in x` lines into a matrix jet; each entry is
    a 1 x 1 matrix, read with ``x``, ``one`` and zero of x-order ``x_order``."""
    env = {"x": x_jet(x_order)}
    one = MatrixJet.identity(1).truncate(x_order)
    entries = [[MatrixJet.zeros(1).truncate(x_order)] * dim for _ in range(dim)]
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
