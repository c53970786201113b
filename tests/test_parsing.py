"""Expression grammar, file formats and the print/parse round-trip."""

import random
import string
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BellTable,
    DuplicateIndexError,
    MatrixJet,
    ExprSyntaxError,
    FreeRing,
    Jet,
    OperatorFileError,
    UndeclaredGeneratorError,
    UnsupportedRealizationError,
    d_power_operator,
)
from bellops.parsing import (
    MAX_POWER,
    DApp,
    GenRef,
    Num,
    PowNode,
    Product,
    Sum,
    UnitE,
    _tokenize,
    parse_element,
    parse_entry_text,
    parse_expr,
    parse_operator_text,
)

from helpers import random_element, random_matrix_jet

RING = FreeRing(("s", "u", "a0", "a1", "a2", "a3", "a4"))
ENV = {g: RING.gen(g) for g in RING.generators}


def parse(text):
    return parse_element(text, ENV, RING.one)


def test_ast_shapes():
    assert parse_expr("s^2 + D(s)") == Sum(
        ((1, PowNode(GenRef("s"), 2)), (1, DApp("D", 1, GenRef("s"))))
    )
    assert parse_expr("2*D(s)*s") == Product((Num(F(2)), DApp("D", 1, GenRef("s")), GenRef("s")))
    assert parse_expr("e") == UnitE()
    assert parse_expr("s*'") == GenRef("s", star=True)
    assert parse_expr("D0(s)") == DApp("D0", 1, GenRef("s"))
    assert parse_expr("1/2") == Num(F(1, 2))


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


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("D^2(q")
    assert err.value.position == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("s +")
    with pytest.raises(ExprSyntaxError):
        parse_expr("s ? u")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")


def test_nesting_limit():
    assert parse("(" * 100 + "s" + ")" * 100) == parse("s")
    assert parse("D(" * 100 + "s" + ")" * 100) == parse("D^100(s)")
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("s + " + "(" * 101 + "s" + ")" * 101)
    assert err.value.position == 104
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(" * 50 + "D(" * 51 + "s" + ")" * 101)
    assert err.value.position == 151


def test_power_limit():
    assert MAX_POWER == 1000
    assert parse_expr("s^1000") == PowNode(GenRef("s"), 1000)
    assert parse_expr("D^0001000(s)") == DApp("D", 1000, GenRef("s"))
    for text, offset in (("s^1001", 2), ("u + D^1001(s)", 6), ("D0^99999999(s)", 3),
                         ("(s)^" + "9" * 5000, 4)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.position == offset
        assert "exponent larger than 1000" in str(err.value)


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
    with pytest.raises(UndeclaredGeneratorError):
        parse_expr("q + s", generators={"s"})
    with pytest.raises(UndeclaredGeneratorError):
        parse("q")


def test_whitespace_insensitive():
    assert parse(" s ^ 2+D( s )") == parse("s^2 + D(s)")


# -- operator files --------------------------------------------------------------------


def op_from(text):
    return parse_operator_text(text, ENV, RING.one, RING)


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
    assert m.entry(0, 0) == Jet((1, 0, 1), 8)
    assert m.entry(0, 1) == Jet((0, 1), 8)
    assert m.entry(1, 0) == Jet((0,), 8)
    assert m.entry(1, 1) == Jet((2,), 8)


def test_entry_file_star_reflects_x():
    """As for a 1 x 1 matrix, the star of an entry is x -> -x."""
    m = parse_entry_text("entry[0][0] = (1 + x*')^2\n", 1, 4)
    assert m.entry(0, 0) == Jet((1, -2, 1), 4)


def test_entry_file_has_no_time_derivative():
    with pytest.raises(UnsupportedRealizationError):
        parse_entry_text("entry[0][0] = D0(x)\n", 1, 4)


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
