"""Axioms and canonical-form behaviour of the free symbolic ring."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import FreeElement, FreeRing, Letter, RealizationMismatchError, TermBudgetError
from bellops.free import MAX_TERMS

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
