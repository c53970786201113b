"""Expression grammar, file formats and the print/parse round-trip."""

import random
import string
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BellTable,
    BiJet,
    DuplicateIndexError,
    FreeElement,
    MatrixJet,
    ExprSyntaxError,
    FreeRing,
    Jet,
    OperatorFileError,
    PrecisionExhaustedError,
    UndeclaredGeneratorError,
    UnsupportedRealizationError,
    d_power_operator,
    x_jet,
)
from bellops import jets as jets_module
from bellops.parsing import (
    MAX_POWER,
    _tokenize,
    parse_element,
    parse_entry_text,
    parse_operator_text,
)

from helpers import random_element, random_matrix_jet

RING = FreeRing(("s", "u", "a0", "a1", "a2", "a3", "a4"))
ENV = {g: RING.gen(g) for g in RING.generators}


def parse(text):
    return parse_element(text, ENV, RING.one)


# -- an independent evaluator over expression trees ---------------------------------
#
# A tree is ("num", n, d) | ("e",) | ("gen", name, star) | ("sum", ((sign, tree), ...))
# | ("prod", (tree, ...)) | ("pow", tree, k) | ("d", "D" or "D0", k, tree).


def oracle(tree, env=ENV, one=RING.one, zero=RING.zero):
    """The value of a tree, computed with the realization's operations alone: every
    number is ``one`` times it, a sum starts from ``zero`` and a power from ``one``."""
    kind = tree[0]
    if kind == "num":
        return F(tree[1], tree[2]) * one
    if kind == "e":
        return one
    if kind == "gen":
        return env[tree[1]].star() if tree[2] else env[tree[1]]
    if kind == "sum":
        total = zero
        for sign, term in tree[1]:
            value = oracle(term, env, one, zero)
            total = total + value if sign > 0 else total - value
        return total
    if kind == "prod":
        return reduce(mul, [oracle(t, env, one, zero) for t in tree[1]])
    if kind == "pow":
        return reduce(mul, [oracle(tree[1], env, one, zero)] * tree[2], one)
    value = oracle(tree[3], env, one, zero)
    for _ in range(tree[2]):
        if tree[1] == "D":
            value = value.d()
        elif hasattr(value, "d0"):
            value = value.d0()
        else:
            raise UnsupportedRealizationError("no d0")
    return value


# binding strength of each tree kind, and the strength each child position needs
_STRENGTH = {"sum": 0, "prod": 1, "pow": 2}


def render(tree, rng, needs=0):
    """Tree to text with random spacing and redundant parentheses."""
    kind = tree[0]
    if kind == "num":
        tokens = [str(tree[1])]
        if tree[2] != 1 or rng.random() < 0.5:
            tokens += ["/", str(tree[2])]
    elif kind == "e":
        tokens = ["e"]
    elif kind == "gen":
        tokens = [tree[1]] + (["*'"] if tree[2] else [])
    elif kind == "sum":
        tokens = []
        for i, (sign, term) in enumerate(tree[1]):
            if sign < 0 or i:
                tokens.append("-" if sign < 0 else "+")
            tokens.append(render(term, rng, 1))
    elif kind == "prod":
        tokens = [render(tree[1][0], rng, 2)]
        for factor in tree[1][1:]:
            tokens += ["*", render(factor, rng, 2)]
    elif kind == "pow":
        tokens = [render(tree[1], rng, 3), "^", str(tree[2])]
    else:
        tokens = [tree[1]] + (["^", str(tree[2])] if tree[2] != 1 or rng.random() < 0.5 else [])
        tokens += ["(", render(tree[3], rng), ")"]
    if _STRENGTH.get(kind, 3) < needs or rng.random() < 0.15:
        tokens = ["(", *tokens, ")"]
    return "".join(rng.choice(["", "", " ", "  ", "\t", "\n"]) + t for t in tokens)


def _leaves(names):
    return st.one_of(  # half generators, half constants
        st.builds(lambda g, star: ("gen", g, star), st.sampled_from(names), st.booleans()),
        st.one_of(st.builds(lambda n, d: ("num", n, d), st.integers(0, 30), st.integers(1, 6)),
                  st.just(("e",))),
    )


def _extend(children):
    return st.one_of(
        st.builds(lambda terms: ("sum", tuple(terms)),
                  st.lists(st.tuples(st.sampled_from([1, -1]), children), min_size=1, max_size=3)),
        st.builds(lambda fs: ("prod", tuple(fs)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda b, k: ("pow", b, k), children, st.integers(0, 3)),
        st.builds(lambda w, k, t: ("d", w, k, t), st.sampled_from(["D", "D0"]),
                  st.integers(0, 2), children),
    )


def _trees(names):
    return st.recursive(_leaves(names), _extend, max_leaves=8)


_TREES = _trees(["s", "u"])

# Each realization as the parser meets it: (env, one, exact zero).
_X = x_jet(6)
_Y = MatrixJet([[BiJet([[1, 2], [0, 1]], 5, 3), BiJet([[0, 1]], 5, 3)],
                [BiJet([[1], [1]], 5, 3), BiJet([[2, 0, 1], [0, -1]], 5, 3)]])
REALIZATIONS = {
    "free": (ENV, RING.one, RING.zero),
    # an initial-condition file's 1 x 1 session: x and one both of the file's x-order
    "jet": ({"x": MatrixJet.diagonal(_X, 1)}, MatrixJet.identity(1).truncate(6), MatrixJet.zeros(1)),
    # a --dim 2 jet session: x diagonal and finite, one the exact identity
    "matrix": ({"x": MatrixJet.diagonal(_X, 2)}, MatrixJet.identity(2), MatrixJet.zeros(2)),
    # a --ring bijet session, with a t-dependent y of finite t-order beside x
    "bijet": ({"x": MatrixJet.diagonal(_X, 2).promote(), "y": _Y},
              MatrixJet.identity(2).promote(), MatrixJet.zeros(2)),
}
_TREES_BY_REALIZATION = {name: _trees(sorted(env)) for name, (env, _, _) in REALIZATIONS.items()}


def _signature(value):
    """Everything a value is made of: its type and, for series, its kind, orders
    and grid, so that a changed order shows even where ``==`` holds."""
    if isinstance(value, FreeElement):
        return "FreeElement", value.den, value.nums
    return type(value).__name__, value.kind, value.x_order, value.t_order, value.nums, value.den


def _outcome(evaluate):
    """The signature of ``evaluate()``, or the class of the error it raises."""
    try:
        return _signature(evaluate())
    except (PrecisionExhaustedError, UnsupportedRealizationError) as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(REALIZATIONS)), st.data(), st.randoms(use_true_random=False))
def test_parse_element_matches_the_tree_evaluated_directly(name, data, rng):
    tree = data.draw(_TREES_BY_REALIZATION[name])
    env, one, zero = REALIZATIONS[name]
    text = render(tree, rng)
    expected = _outcome(lambda: oracle(tree, env, one, zero))
    assert _outcome(lambda: parse_element(text, env, one)) == expected, (name, text)


_TREES_OF = {
    "3/2*x + 5": ("sum", ((1, ("prod", (("num", 3, 2), ("gen", "x", False)))), (1, ("num", 5, 1)))),
    "x^3": ("pow", ("gen", "x", False), 3),
    "x^8": ("pow", ("gen", "x", False), 8),
    "2*3*x^0 - 1/2": ("sum", ((1, ("prod", (("num", 2, 1), ("num", 3, 1),
                                             ("pow", ("gen", "x", False), 0)))),
                              (-1, ("num", 1, 2)))),
}


@pytest.mark.parametrize("name", ["jet", "matrix", "bijet"])
def test_literals_scale_without_kernel_products(name, monkeypatch):
    """A number scales the element it meets, and a power forms no product with one."""
    env, one, zero = REALIZATIONS[name]
    calls = []
    kernel = jets_module._sum_of_products
    monkeypatch.setattr(jets_module, "_sum_of_products",
                        lambda *args: calls.append(1) or kernel(*args))
    for text, products in (("3/2*x + 5", 0), ("x^3", 2), ("x^8", 3), ("2*3*x^0 - 1/2", 0)):
        calls.clear()
        value = parse_element(text, env, one)
        assert len(calls) == products, text
        assert _signature(value) == _signature(oracle(_TREES_OF[text], env, one, zero)), text


def test_precedence_gives_the_tree_shapes():
    s, ds = ("gen", "s", False), ("d", "D", 1, ("gen", "s", False))
    # one ordered product of three factors, not 2*D(s*s) or (2*s)*D(s)
    assert parse("2*D(s)*s") == oracle(("prod", (("num", 2, 1), ds, s)))
    # a sum of a power and a derivative, not s^(2 + D(s)) or D applied to the sum
    assert parse("s^2 + D(s)") == oracle(("sum", ((1, ("pow", s, 2)), (1, ds))))
    assert parse("1/2^2") == oracle(("pow", ("num", 1, 2), 2))
    assert parse("s*'^2") == oracle(("pow", ("gen", "s", True), 2))
    # the leading minus takes the first term only, not the whole sum
    assert parse("-s + u") == oracle(("sum", ((-1, s), (1, ("gen", "u", False)))))
    assert parse("e") == RING.one
    assert parse("1/2") == F(1, 2) * RING.one


def test_ordered_products_stay_distinct():
    left = parse("2*D(s)*s + s*D(s)")
    s = ENV["s"]
    assert left == 2 * (s.d() * s) + s * s.d()
    assert parse("D(s)*s") != parse("s*D(s)")


def test_basic_evaluation():
    s = ENV["s"]
    assert parse("s^2 + D(s)") == s * s + s.d()
    assert parse("D^2(s)") == s.d().d()
    assert parse("-s") == -s
    assert parse("0") == RING.zero
    assert parse("3 - 2*e") == RING.one
    assert parse("(s + u)^2") == (s + ENV["u"]) * (s + ENV["u"])
    assert parse("s*'") == s.star()
    assert parse("D(s*')") == s.star().d()
    assert parse("D0(s)") == s.d0()


QRING = FreeRing(("q", "s", "u"))
QENV = {g: QRING.gen(g) for g in QRING.generators}


def refusal(text, env=QENV, one=QRING.one):
    """The error that parsing ``text`` against ``env`` raises."""
    with pytest.raises((ExprSyntaxError, UndeclaredGeneratorError)) as err:
        parse_element(text, env, one)
    return err.value


# (text, message, offset); the last three come after one of every grammar form
POSITION_ERRORS = [
    ("D^2(q", "expected ), found 'end of input'", 5),
    ("s +", "expected a factor, found 'end of input'", 3),
    ("s ? u", "unexpected character '?'", 2),
    ("", "expected a factor, found 'end of input'", 0),
    ("s )", "unexpected trailing ')'", 2),
    ("2*s*' - D^2(u)^3 + 1/2 )", "unexpected trailing ')'", 23),
    ("(s + u)*e ?", "unexpected character '?'", 10),
    ("-D0(s) + e*s^2 +", "expected a factor, found 'end of input'", 16),
]
NESTING_ERRORS = [
    ("s + " + "(" * 101 + "s" + ")" * 101, "parentheses nested deeper than 100", 104),
    ("(" * 50 + "D(" * 51 + "s" + ")" * 101, "parentheses nested deeper than 100", 151),
]
POWER_ERRORS = [
    ("s^1001", "exponent larger than 1000", 2),
    ("u + D^1001(s)", "exponent larger than 1000", 6),
    ("D0^99999999(s)", "exponent larger than 1000", 3),
    ("(s)^" + "9" * 5000, "exponent larger than 1000", 4),
    # as ((7^1000)^1000)^1000 (test_cli, in a fresh process); without the bound
    # this one is formed in a fraction of a second, so the test fails, not hangs
    ("((7^1000)^1000)^2", "power of a number larger than 3322000 bits", 16),
]
LITERAL_ERRORS = [
    ("1" * 1001, "numeric literal longer than 1000 digits", 0),
    ("s + 2/0", "zero denominator", 6),
]
UNDECLARED = [  # (text, env, one, message)
    ("q + s", {"s": QENV["s"]}, QRING.one, "generator 'q' is not declared (declared: s)"),
    ("q", ENV, RING.one, "generator 'q' is not declared (declared: a0, a1, a2, a3, a4, s, u)"),
    ("D^2(q", ENV, RING.one,
     "generator 'q' is not declared (declared: a0, a1, a2, a3, a4, s, u)"),
    ("3*s^2 - D(s) + w", QENV, QRING.one, "generator 'w' is not declared (declared: q, s, u)"),
    ("y", {"x": x_jet(8)}, Jet((1,), 8), "generator 'y' is not declared (declared: x)"),
]


def assert_syntax_errors(cases):
    for text, message, offset in cases:
        err = refusal(text)
        assert type(err) is ExprSyntaxError
        assert (str(err), err.position) == (f"{message} (at offset {offset})", offset)


def test_syntax_error_position():
    assert_syntax_errors(POSITION_ERRORS)


def test_nesting_limit():
    assert parse("(" * 100 + "s" + ")" * 100) == parse("s")
    assert parse("D(" * 100 + "s" + ")" * 100) == parse("D^100(s)")
    assert_syntax_errors(NESTING_ERRORS)


def test_power_limit():
    assert MAX_POWER == 1000
    s = ("gen", "s", False)
    assert parse("s^1000") == oracle(("pow", s, 1000))
    assert parse("D^0001000(s)") == oracle(("d", "D", 1000, s))
    assert_syntax_errors(POWER_ERRORS)


def test_literal_limits():
    assert_syntax_errors(LITERAL_ERRORS)


class Untouchable:
    """A stand-in ring element on which every operation and attribute raises."""

    def __getattr__(self, name):
        raise AssertionError(f"ring work before the parse ended: .{name}")

    def _touched(self, *args):
        raise AssertionError("ring work before the parse ended: arithmetic")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _touched
    __truediv__ = __pow__ = __eq__ = __bool__ = _touched
    __hash__ = object.__hash__


def test_every_refusal_comes_before_any_ring_work():
    syntax_errors = POSITION_ERRORS + NESTING_ERRORS + POWER_ERRORS + LITERAL_ERRORS
    # the nested power after its ^2 form, so a missing bound fails before forming 7^(10^9)
    cases = [(text, QENV, QRING.one) for text, _, _ in syntax_errors]
    cases.append(("((7^1000)^1000)^1000", QENV, QRING.one))
    for text, env, one in cases + [case[:3] for case in UNDECLARED]:
        expected = refusal(text, env, one)
        untouchable = {name: Untouchable() for name in env}
        with pytest.raises(type(expected)) as err:
            parse_element(text, untouchable, Untouchable())
        assert type(err.value) is type(expected)
        assert str(err.value) == str(expected)
        assert getattr(err.value, "position", None) == getattr(expected, "position", None)
    # the stand-ins do catch ring work: a text that parses reaches them
    with pytest.raises(AssertionError, match="ring work"):
        parse_element("s + 1", {"s": Untouchable()}, Untouchable())


def test_binary_powering_matches_repeated_products():
    rng = random.Random(7)
    free = random_element(rng, RING, ["s", "u"], max_terms=2)
    matrix = random_matrix_jet(rng, 2, 5)
    for value, one in ((free, RING.one), (matrix, MatrixJet.identity(2))):
        expected = one
        for k in range(13):
            assert parse_element(f"m^{k}", {"m": value}, one) == expected
            expected = expected * value


def test_undeclared_generator():
    for text, env, one, message in UNDECLARED:
        err = refusal(text, env, one)
        assert (type(err), str(err)) == (UndeclaredGeneratorError, message)
    assert parse_element("D^2(q)", {"q": QRING.gen("q")}, QRING.one) == QRING.gen("q").d().d()


def test_whitespace_insensitive():
    assert parse(" s ^ 2+D( s )") == parse("s^2 + D(s)")


# -- operator files --------------------------------------------------------------------


def op_from(text):
    return parse_operator_text(text, ENV, RING.one)


def test_operator_file_basic():
    assert op_from("a[2] = e\n") == d_power_operator(RING, 2)


def test_operator_file_schroedinger_shape():
    op = op_from("# comment line\na[2] = e\na[0] = -(u)\n")
    assert op.order == 2
    assert op.coeff(0) == -ENV["u"]
    assert op.coeff(1).is_zero()


def test_operator_file_duplicate_index():
    with pytest.raises(DuplicateIndexError):
        op_from("a[1] = e\na[1] = s\n")


def test_operator_file_bad_line():
    with pytest.raises(OperatorFileError) as err:
        op_from("a[1] = e\nb[0] = s\n")
    assert err.value.line == 2
    with pytest.raises(OperatorFileError):
        op_from("a[0] = D^2(q\n")
    with pytest.raises(OperatorFileError):
        op_from("\n")
    # the index bound is inclusive: a[1000] parses, a[1001] is an error on its line
    assert op_from("a[1000] = e\n").order == 1000
    with pytest.raises(OperatorFileError) as err:
        op_from("a[0] = e\na[1001] = e\n")
    assert err.value.line == 2
    # so is a power of a number past the bits one legal power reaches
    with pytest.raises(OperatorFileError) as err:
        op_from("a[0] = e\na[1] = ((7^1000)^1000)^2\n")
    assert err.value.line == 2


# -- pretty-printer round trip -------------------------------------------------------------


def corpus():
    s = ENV["s"]
    u = ENV["u"]
    table = BellTable(s)
    cases = [RING.zero, RING.one, -RING.one, s, -s, F(1, 2) * s, 7 * RING.one]
    cases += [table.left(n) for n in range(1, 6)]
    cases += [table.right(n) for n in range(1, 6)]
    cases += [table.gen(4, 2), table.gen(5, 3), table.gen(6, 4)]
    cases += [
        s.star(),
        (s * s.d()).star(),
        s.d0(),
        s.d0().d(),
        s * u - u * s,
        (s + u) * (s - u),
        2 * (s.d() * s) + s * s.d(),
        s.d().d().d(),
        F(-3, 4) * (u * u) + s,
        (s.star() * u).d(),
    ]
    return cases


def test_print_parse_round_trip():
    cases = corpus()
    assert len(cases) >= 30
    for element in cases:
        text = element.to_text()
        assert parse(text) == element, text


def test_printing_is_deterministic():
    cases = corpus()
    first = [e.to_text() for e in cases]
    second = [e.to_text() for e in cases]
    assert first == second


def test_operator_file_round_trip():
    table = BellTable(ENV["s"])
    for op in (table.h(3), table.h_plus(4), d_power_operator(RING, 5)):
        assert op_from(op.to_file_text()) == op


# -- initial-condition files ------------------------------------------------------------------


def test_entry_file_basic():
    text = "entry[0][0] = 1 + x^2\nentry[1][1] = 2\nentry[0][1] = x\n"
    m = parse_entry_text(text, 2, 8)
    assert m.x_order == 8
    assert m == MatrixJet([[Jet((1, 0, 1), 8), Jet((0, 1), 8)], [Jet((0,), 8), Jet((2,), 8)]])


def test_entry_file_star_reflects_x():
    """As for a 1 x 1 matrix, the star of an entry is x -> -x."""
    m = parse_entry_text("entry[0][0] = (1 + x*')^2\n", 1, 4)
    assert m == MatrixJet.scalar(Jet((1, -2, 1), 4))


def test_entry_file_has_no_time_derivative():
    with pytest.raises(UnsupportedRealizationError):
        parse_entry_text("entry[0][0] = D0(x)\n", 1, 4)


def test_a_number_only_entry_keeps_the_file_x_order():
    """``one`` has the file's x-order, so a number is not an exact constant."""
    m = parse_entry_text("entry[0][0] = 3/2\n", 1, 5)
    assert (m.kind, m.x_order, m.t_order) == ("jet", 5, None)
    assert (m.nums, m.den) == ([[[[3, 0, 0, 0, 0, 0]]]], 2)


# An entry as (text, coefficients of the polynomial it denotes, x-orders its
# derivatives cost); the coefficients are computed on Fraction lists alone.
def _poly_add(a, b, sign=1):
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + sign * (b[k] if k < len(b) else 0) for k in range(n)]


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _entry_sum(terms):
    (sign, (text, poly, cost)), rest = terms[0], terms[1:]
    text, poly = ("-" if sign < 0 else "") + f"({text})", [sign * c for c in poly]
    for sign, term in rest:
        text += (" + " if sign > 0 else " - ") + f"({term[0]})"
        poly, cost = _poly_add(poly, term[1], sign), max(cost, term[2])
    return text, poly, cost


_ENTRIES = st.recursive(
    st.one_of(st.builds(lambda n, d: (f"{n}/{d}", [F(n, d)], 0),
                        st.integers(0, 30), st.integers(1, 6)),
              st.just(("x", [F(0), F(1)], 0)), st.just(("x*'", [F(0), F(-1)], 0))),
    lambda children: st.one_of(
        st.builds(_entry_sum, st.lists(st.tuples(st.sampled_from([1, -1]), children),
                                       min_size=1, max_size=3)),
        st.builds(lambda a, b: (f"({a[0]})*({b[0]})", _poly_mul(a[1], b[1]), max(a[2], b[2])),
                  children, children),
        # a^0 is one, of the file's x-order, whatever a costs
        st.builds(lambda a, k: (f"({a[0]})^{k}", reduce(_poly_mul, [a[1]] * k, [F(1)]),
                                a[2] if k else 0), children, st.integers(0, 3)),
        st.builds(lambda a: (f"D({a[0]})", [k * c for k, c in enumerate(a[1])][1:] or [F(0)],
                             a[2] + 1), children),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entry_files_give_the_grid_built_from_jets(data):
    """A file of dim 1-3 with unlisted entries reads as the matrix of the entries'
    polynomials, each a Jet cut to the file's x-order less what its derivatives cost."""
    dim = data.draw(st.integers(1, 3))
    cells = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                               unique=True, max_size=dim * dim))
    listed = {cell: data.draw(_ENTRIES) for cell in cells}
    ds = sum(text.count("D(") for text, _, _ in listed.values())
    x_order = data.draw(st.integers(ds, ds + 6))
    text = "".join(f"entry[{i}][{j}] = {e[0]}\n" for (i, j), e in listed.items())
    expected = MatrixJet([[Jet(listed[i, j][1], x_order - listed[i, j][2]) if (i, j) in listed
                           else Jet((0,), x_order) for j in range(dim)] for i in range(dim)])
    m = parse_entry_text(text, dim, x_order)
    assert (m.kind, m.x_order, m.t_order, m.nums, m.den) == (
        expected.kind, expected.x_order, expected.t_order, expected.nums, expected.den), text


def test_entry_file_errors():
    with pytest.raises(OperatorFileError):
        parse_entry_text("entry[2][0] = x\n", 2, 8)
    with pytest.raises(DuplicateIndexError):
        parse_entry_text("entry[0][0] = x\nentry[0][0] = 1\n", 2, 8)
    with pytest.raises(OperatorFileError):
        parse_entry_text("entry[0][0] = y\n", 2, 8)


# -- tokenizer fuzzing ---------------------------------------------------------

_TOKEN_CHARS = frozenset(string.ascii_letters + string.digits + "_*+-^()/")
_PIECES = ["s", "u1", "_a", "D", "D0", "e", "x", "12", "007", "*'", "*", "+", "-", "^",
           "(", ")", "/", " ", "\t", "\n"]
_BAD = ["'", "!", "#", "[", ".", ",", "=", "%", "\u00e9", "\x00"]


def _first_bad(text):
    """Offset of the first character no token can start with, or None."""
    i = 0
    while i < len(text):
        if text.startswith("*'", i):
            i += 2
        elif text[i].isspace() or text[i] in _TOKEN_CHARS:
            i += 1
        else:
            return i
    return None


def _kind(token):
    if token.isdigit():
        return "INT"
    if token == "*'":
        return "STAR"
    return "IDENT" if token[0] in string.ascii_letters + "_" else token


@settings(max_examples=300, deadline=1000)
@given(st.lists(st.sampled_from(_PIECES + _BAD), max_size=30).map("".join))
def test_tokens_cover_the_input_or_the_first_bad_character_is_named(text):
    bad = _first_bad(text)
    if bad is not None:
        with pytest.raises(ExprSyntaxError) as info:
            _tokenize(text)
        assert info.value.position == bad
        return
    tokens = _tokenize(text)
    assert tokens[-1] == ("END", "", len(text))
    assert "".join(token for _, token, _ in tokens) == "".join(text.split())
    for kind, token, at in tokens[:-1]:
        assert (kind, text[at:at + len(token)]) == (_kind(token), token)
