"""The specialization oracle: the free ring and matrix bi-jets against each other.

Sending each generator to a 2 x 2 matrix of bi-jets is a map of differential
rings with involution, so an entry point run in the free ring and then
specialized must agree, on the jointly valid orders, with the same entry point
run on the specialized inputs.  ``helpers.specialize`` computes the left side
in the dict-convolution model alone, never with ``MatrixJet`` arithmetic, so
this checks the jet kernel (packing, caches, slot widths) and the free ring
(words, codes, one denominator) against a third representation.  A fault in
code both realizations share, such as ``BellTable`` or ``compose``, shows on
both sides and is left to the closed forms.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bellops import (
    BellTable,
    BiJet,
    DiffOperator,
    FreeElement,
    FreeRing,
    Jet,
    Letter,
    MatrixJet,
    MatrixRealization,
    darboux_transform,
    divide_left,
    divide_right,
    riccati_residual,
    transformed_coefficients,
)
from helpers import _model, _omin, specialize

GENS = ("s", "u")
RING = FreeRing(GENS)
DIM = 2
REAL = MatrixRealization(DIM)
SCAN = 12  # exact axes are read this far
seeds = st.integers(0, 2**32 - 1)
# an example takes a fraction of a second, rarely 2 s; the deadline catches a blow-up
oracle = settings(max_examples=10, deadline=10000)


def _images(rng, x_order=10, t_order=None):
    """Random model matrices for the generators: bi-jets of the given orders, or
    jets (constant in t) for no t-order; each generator's coefficients share
    one denominator of its own."""
    images = {}
    for g in GENS:
        den = rng.choice((1, 2, 3, 5))
        images[g] = [[_model([[Fraction(rng.randint(-3, 3), den)
                               for _ in range(1 if t_order is None else t_order + 1)]
                              for _ in range(x_order + 1)], x_order, t_order)
                      for _ in range(DIM)] for _ in range(DIM)]
    return images


def _element(rng, max_terms, max_len, d0=0.0):
    """Words of up to ``max_len`` letters, each with d up to 1 and, with
    probability ``d0``, one d0."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(Letter(rng.choice(GENS), rng.random() < 0.3, int(rng.random() < d0),
                            rng.randint(0, 1))
                     for _ in range(rng.randint(0, max_len)))
        terms[word] = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    return FreeElement(RING, terms)


def _operator(rng, max_order=3):
    coeffs = [_element(rng, 2, 2) for _ in range(rng.randint(1, max_order) + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = RING.one
    return DiffOperator(coeffs, RING)


def _jet(model):
    """The matrix of bi-jets holding a model matrix's coefficients and orders."""
    entries = []
    for row in model:
        entries.append([])
        for d, xo, to in row:
            nx = max([i for i, _ in d] + [0]) + 1 if xo is None else xo + 1
            nt = max([j for _, j in d] + [0]) + 1 if to is None else to + 1
            rows = [[d.get((i, j), 0) for j in range(nt)] for i in range(nx)]
            constant_in_t = to is None and nt == 1
            entries[-1].append(Jet([r[0] for r in rows], xo) if constant_in_t
                               else BiJet(rows, xo, to))
    return MatrixJet(entries)


def _jets(value, images):
    """The specialized value as a matrix jet, or as an operator over them."""
    if isinstance(value, DiffOperator):
        return DiffOperator([_jet(m) for m in specialize(value, images)], REAL)
    return _jet(specialize(value, images))


def _assert_agrees(free_value, jet_value, images):
    """specialize(free_value) equals jet_value on their jointly valid orders."""
    if isinstance(free_value, DiffOperator):
        coeffs = specialize(free_value, images)
        zero = [[({}, None, None)] * DIM for _ in range(DIM)]
        for k in range(max(len(coeffs), len(jet_value.coeffs))):
            model = coeffs[k] if k < len(coeffs) else zero
            _assert_agrees_model(model, jet_value.coeff(k))
    else:
        _assert_agrees_model(specialize(free_value, images), jet_value)


def _assert_agrees_model(model, m):
    for i, row in enumerate(model):
        for j, (d, xo, to) in enumerate(row):
            v = m.entry(i, j)
            jx, jt = _omin(xo, m.x_order), _omin(to, m.t_order)
            assert jx is None or jx >= 0
            for a in range((SCAN if jx is None else jx) + 1):
                for b in range((SCAN if jt is None else jt) + 1 if m.kind == "bijet" else 1):
                    got = v.at(a, b) if isinstance(v, BiJet) else v.at(a) if b == 0 else 0
                    assert got == d.get((a, b), 0), (i, j, a, b)


@oracle
@given(seed=seeds)
def test_ring_operations_specialize(seed):
    # star, d, d0 and the product; with them (Da)* = -D(a*) in both realizations
    rng = random.Random(seed)
    images = _images(rng, 8, 2)
    a, b = _element(rng, 3, 4, d0=0.2), _element(rng, 2, 4, d0=0.2)
    ja, jb = _jets(a, images).promote(), _jets(b, images).promote()
    for free_value, jet_value in ((a, ja), (a.star(), ja.star()), (a.d(), ja.d()),
                                  (a.d0(), ja.d0()), (a * b, ja * jb), (b * a, jb * ja),
                                  (a - b.scale(Fraction(2, 3)), ja - jb * Fraction(2, 3))):
        _assert_agrees(free_value, jet_value, images)


@oracle
@given(seed=seeds)
def test_bell_entries_specialize(seed):
    rng = random.Random(seed)
    images = _images(rng)
    s = _element(rng, 2, 2)
    free_table, jet_table = BellTable(s), BellTable(_jets(s, images))
    n = rng.randint(0, 3)
    k = rng.randint(0, n)
    for name, args in (("left", (n,)), ("right", (n,)), ("gen", (n, k)), ("h", (n,)),
                       ("h_plus", (n,))):
        _assert_agrees(getattr(free_table, name)(*args), getattr(jet_table, name)(*args),
                       images)


@oracle
@given(seed=seeds)
def test_divisions_specialize(seed):
    rng = random.Random(seed)
    images = _images(rng)
    L, s = _operator(rng), _element(rng, 2, 2)
    jL, js = _jets(L, images), _jets(s, images)
    for divide in (divide_right, divide_left):
        free_out, jet_out = divide(L, s), divide(jL, js)
        _assert_agrees(free_out.quotient, jet_out.quotient, images)
        _assert_agrees(free_out.remainder, jet_out.remainder, images)
    for side in ("right", "left"):
        _assert_agrees(riccati_residual(L, s, side), riccati_residual(jL, js, side), images)


@oracle
@given(seed=seeds)
def test_transform_compose_and_apply_specialize(seed):
    rng = random.Random(seed)
    images = _images(rng)
    # s of single letters: the Burgers sum holds B_4(s), whose words are then 4 letters long
    L, M, s, u = _operator(rng), _operator(rng, 2), _element(rng, 2, 1), _element(rng, 2, 3)
    jL, jM, js, ju = (_jets(v, images) for v in (L, M, s, u))
    free_out, jet_out = darboux_transform(L, s), darboux_transform(jL, js)
    for field in ("transformed", "remainder", "intertwine_defect", "burgers_rhs"):
        _assert_agrees(getattr(free_out, field), getattr(jet_out, field), images)
    _assert_agrees(transformed_coefficients(L, s), transformed_coefficients(jL, js), images)
    _assert_agrees(L.compose(M), jL.compose(jM), images)
    _assert_agrees(L.apply(u), jL.apply(ju), images)
