"""Axioms and canonical-form behaviour of the free symbolic ring."""

import random
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BellTable,
    FreeElement,
    FreeRing,
    Letter,
    RealizationMismatchError,
    TermBudgetError,
)
from bellops import free
from bellops.free import FIELD_MAX, MAX_LETTERS, MAX_TERMS
from bellops.parsing import parse_element

RING = FreeRing(("s", "u"))

letters = st.builds(
    Letter,
    gen=st.sampled_from(["s", "u"]),
    star=st.booleans(),
    d0=st.integers(0, 1),
    d=st.integers(0, 2),
)
words = st.lists(letters, max_size=3).map(tuple)
elements = st.dictionaries(words, st.integers(-3, 3), max_size=4).map(
    lambda d: FreeElement(RING, {w: Fraction(c) for w, c in d.items()})
)
# Letter words with Fraction coefficients over mixed denominators, the
# constructor's input
fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))
term_dicts = st.dictionaries(words, fractions, max_size=5)


def test_additive_identity_and_cancellation(ring, s):
    assert s + ring.zero == s
    ds = s.d()
    assert (s * s + ds) + (-ds) == s * s


def test_unit_and_noncommutativity(ring, s):
    assert ring.one * s == s
    assert s * ring.one == s
    ds = s.d()
    assert s * ds != ds * s  # distinct canonical words


def test_derivation_of_unit_and_leibniz_example(ring, s):
    assert ring.one.d().is_zero()
    assert (s * s).d() == s.d() * s + s * s.d()


def test_star_of_generator_and_derivative(ring, s):
    s_star = ring.gen("s", star=True)
    assert s.star() == s_star
    # involution anti-commutes with the derivation
    assert s.d().star() == -(s_star.d())


def test_star_of_product_golden(ring, s):
    # (s * Ds)* carries the word reversed, letters starred, and one sign flip
    value = (s * s.d()).star()
    expected = FreeElement(
        ring,
        {(Letter("s", True, 0, 1), Letter("s", True, 0, 0)): Fraction(-1)},
    )
    assert value == expected
    # consistent with (ab)* = b* a*
    assert value == s.d().star() * s.star()


def test_d0_commutes_with_d(ring, s):
    assert s.d().d0() == s.d0().d()
    assert ring.one.d0().is_zero()


def test_d0_star_commutes(ring, s):
    # the second derivation carries no sign under the involution
    assert s.d0().star() == s.star().d0()


def test_characteristic_zero(ring):
    for n in range(1, 7):
        assert not (ring.one * n).is_zero()


def test_term_budget_is_checked_before_multiplying(ring, s):
    assert MAX_TERMS == 2**14
    # distinct words s^k D(s)^j, so a product has as many term pairs as it has terms
    a = FreeElement(ring, {(Letter("s"),) * k: Fraction(1) for k in range(1, 129)})
    b = FreeElement(ring, {(Letter("s", d=1),) * k: Fraction(1) for k in range(1, 129)})
    assert len((a * b).terms()) == MAX_TERMS
    with pytest.raises(TermBudgetError, match="16512 term pairs exceeds the budget of 16384"):
        (a + s.d().d()) * b
    with pytest.raises(TermBudgetError):
        b * (a + s.d().d())


def test_products_by_a_constant_form_no_term_pairs(ring, s):
    # B_1(s) = D(e) + e*s: a product by c e is not budgeted as term pairs
    big = parse_element("D^30(D^30(s*s*s*s))", {"s": s}, ring.one)
    assert len(big.nums) == 39711 > MAX_TERMS
    table = BellTable(big)
    assert table.left(1) == big
    assert table.right(1) == big
    assert ring.one * big is big and big * ring.one is big
    assert parse_element("2*D^30(D^30(s*s*s*s))", {"s": s}, ring.one) == big.scale(2)
    with pytest.raises(TermBudgetError, match="79422 term pairs"):
        (ring.one + s) * big


@settings(max_examples=60, deadline=None)
@given(a=elements, c=fractions)
def test_a_constant_times_an_element_is_its_scaling(a, c):
    ce = FreeElement(RING, {(): c})
    assert ce * a == a.scale(c) == a * ce


def test_realization_mismatch(ring):
    other = FreeRing(("s",))
    with pytest.raises(RealizationMismatchError):
        ring.gen("s") + other.gen("s")


def test_scalar_multiples(ring, s):
    assert 2 * s == s + s
    assert Fraction(1, 2) * (s + s) == s
    assert (s * 0).is_zero()


def test_canonical_term_order(ring, s):
    # longer words print first; within a length, larger letter tuples first
    b2 = s * s + s.d()
    assert b2.to_text() == "s^2 + D(s)"
    assert (s * s - s.d()).to_text() == "s^2 - D(s)"
    assert ring.zero.to_text() == "0"
    assert ring.one.to_text() == "e"
    assert (-ring.one).to_text() == "-e"
    assert (Fraction(1, 2) * s).to_text() == "1/2*s"


@settings(max_examples=60, deadline=None)
@given(a=elements, b=elements)
def test_leibniz_property(a, b):
    assert (a * b).d() == a.d() * b + a * b.d()


@settings(max_examples=60, deadline=None)
@given(a=elements, b=elements)
def test_involution_axioms(a, b):
    assert a.star().star() == a
    assert (a * b).star() == b.star() * a.star()
    assert a.d().star() == -(a.star().d())
    assert (a + b).star() == a.star() + b.star()


@settings(max_examples=60, deadline=None)
@given(a=elements)
def test_second_derivation_commutes(a):
    assert a.d().d0() == a.d0().d()


@settings(max_examples=40, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)


def test_random_distributivity():
    rng = random.Random(7)
    from helpers import random_element

    for _ in range(20):
        a = random_element(rng, RING)
        b = random_element(rng, RING)
        c = random_element(rng, RING)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


# -- representation: integer numerators over one denominator, words of codes ---


def _assert_stored_in_lowest_terms(e):
    assert e.den > 0 and all(e.nums.values()) and gcd(e.den, *e.nums.values()) == 1


def _model_terms(d):
    """Nonzero terms of a {Letter word: Fraction} dict in the documented order:
    longer words first, then larger words."""
    return sorted(((w, c) for w, c in d.items() if c), key=lambda kv: (len(kv[0]), kv[0]),
                  reverse=True)


def _model_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return out


def _model_star(a):
    out = {}
    for w, c in a.items():
        nw = tuple(letter._replace(star=not letter.star) for letter in reversed(w))
        out[nw] = out.get(nw, 0) + (-c if sum(letter.d for letter in w) % 2 else c)
    return out


any_letters = st.builds(Letter, gen=st.sampled_from(["s", "u"]), star=st.booleans(),
                        d0=st.integers(0, FIELD_MAX), d=st.integers(0, FIELD_MAX))


@settings(max_examples=200, deadline=None)
@given(a=any_letters | letters, b=any_letters | letters)
def test_codes_sort_as_letters(a, b):
    assert RING.letter(RING.code(a)) == a
    assert (RING.code(a) < RING.code(b)) == (a < b)
    assert (RING.code(a) == RING.code(b)) == (a == b)


@settings(max_examples=100, deadline=None)
@given(d=term_dicts)
def test_constructor_round_trips_through_terms(d):
    e = FreeElement(RING, d)
    assert e.terms() == _model_terms(d)
    assert FreeElement(RING, dict(e.terms())) == e
    assert all(e.coefficient(w) == c for w, c in d.items())
    _assert_stored_in_lowest_terms(e)


@settings(max_examples=100, deadline=None)
@given(da=term_dicts, db=term_dicts, q=fractions)
def test_mixed_denominators_survive_every_operation(da, db, q):
    a, b = FreeElement(RING, da), FreeElement(RING, db)
    added = {w: da.get(w, 0) + db.get(w, 0) for w in {**da, **db}}
    cases = [
        (a + b, added),
        (a - b, {w: da.get(w, 0) - db.get(w, 0) for w in added}),
        (a * b, _model_mul(da, db)),
        (a.scale(q), {w: q * c for w, c in da.items()}),
        (a.star(), _model_star(da)),
        (-a, {w: -c for w, c in da.items()}),
    ]
    for value, model in cases:
        assert value.terms() == _model_terms(model)
        _assert_stored_in_lowest_terms(value)


def test_letters_outside_the_codes_are_refused(ring):
    with pytest.raises(KeyError, match="generator 'q' not declared"):
        FreeElement(ring, {(Letter("q"),): 1})
    for bad in (Letter("s", d=FIELD_MAX + 1), Letter("s", d0=FIELD_MAX + 1), Letter("s", d=-1)):
        with pytest.raises(ValueError, match="derivative counts must lie in 0..1048575"):
            FreeElement(ring, {(bad,): 1})
        assert ring.one.coefficient((bad,)) == 0
    assert ring.one.coefficient((Letter("q"),)) == 0
    # a count at the top of its field is held; one more never carries into the next field
    for field, derive in (("d", FreeElement.d), ("d0", FreeElement.d0)):
        top = FreeElement(ring, {(Letter("s", **{field: FIELD_MAX - 1}),): 1})
        assert derive(top).terms() == [((Letter("s", **{field: FIELD_MAX}),), 1)]
        with pytest.raises(ValueError, match="derivative count would exceed 1048575"):
            derive(derive(top))


def test_derivation_budget_counts_letters(ring, s, monkeypatch):
    assert MAX_LETTERS == 2**19
    # B_16 (278528 letters) still has its derivative, as B_17 needs
    b16 = BellTable(s).left(16)
    assert sum(len(w) for w, _ in b16.terms()) <= MAX_LETTERS
    monkeypatch.setattr(free, "MAX_LETTERS", 6)
    value = s * s + s.d()  # 3 letters
    assert value.d().d0() == value.d0().d()  # derivatives of 5 letters each
    twice = value.d().d()  # D^2(s)*s + 2*D(s)^2 + s*D^2(s) + D^3(s)
    with pytest.raises(TermBudgetError) as err:
        twice.d()
    assert str(err.value) == "free-ring derivative of 7 letters exceeds the budget of 6"


@settings(max_examples=60, deadline=None)
@given(elements, st.booleans())
def test_predicted_derivations_refuse_whenever_a_step_would(x, d0):
    """check_derivations bounds the letters of each step's input from above, so
    it refuses k derivations whenever one of them would be over the budget."""
    derive = FreeElement.d0 if d0 else FreeElement.d
    formed, value = [], x
    for _ in range(4):
        formed.append(sum(len(w) for w, _ in value.terms()))
        value = derive(value)
    for k, letters in enumerate(formed, 1):
        if letters:
            with patch.object(free, "MAX_LETTERS", letters - 1):
                with pytest.raises(TermBudgetError):
                    x.check_derivations(k, d0)


def test_predicted_derivations_are_exact_for_one_word_and_its_derivatives(ring, s):
    # D^j(s^4) has 4 C(j + 3, 3) letters, over the budget from j = 91 on
    s4 = s * s * s * s
    s4.check_derivations(91)
    with pytest.raises(TermBudgetError) as err:
        s4.check_derivations(1000)
    assert str(err.value) == "free-ring derivative of 536176 letters exceeds the budget of 524288"
    # D^20(s^4) has C(23, 3) words that merge under further derivations; the bound
    # sees that they share their underived letters and their sum of d counts
    d20 = s4
    for _ in range(20):
        d20 = d20.d()
    d20.check_derivations(71)
    with pytest.raises(TermBudgetError, match="of 536176 letters"):
        d20.check_derivations(72)


def test_derivation_powers_are_refused_before_any_derivation(ring, s, monkeypatch):
    def derived(self, step):
        raise AssertionError("a derivation ran")

    monkeypatch.setattr(FreeElement, "_leibniz", derived)
    for text in ("D^1000(s*s*s*s)", "D0^1000(s*s*s*s)", "D^30(D^1000(s*s*s*s))"):
        with pytest.raises(TermBudgetError, match="of 536176 letters"):
            parse_element(text, {"s": s}, ring.one)
