"""Seeded random builders and the bi-jet model shared across test modules."""

import functools
from fractions import Fraction

from bellops import (
    DiffOperator,
    FreeElement,
    Jet,
    Letter,
    MatrixJet,
    darboux_transform,
    log_derivative,
)
from bellops.operators import ls_apply


def random_word(rng, gens, max_len=2, max_d=2):
    return tuple(
        Letter(rng.choice(gens), rng.random() < 0.2, 0, rng.randint(0, max_d))
        for _ in range(rng.randint(0, max_len))
    )


def random_element(rng, ring, gens=None, max_terms=3, max_len=2, max_d=2):
    gens = gens or list(ring.generators)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_word(rng, gens, max_len, max_d)
        terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return FreeElement(ring, terms)


def random_free_operator(rng, ring, max_order=4, gens=None):
    order = rng.randint(1, max_order)
    coeffs = [random_element(rng, ring, gens) for _ in range(order + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = ring.one
    return DiffOperator(coeffs, ring)


def random_jet(rng, order, lo=-3, hi=3):
    return Jet([Fraction(rng.randint(lo, hi)) for _ in range(order + 1)], order)


def random_matrix_jet(rng, dim, order):
    return MatrixJet([[random_jet(rng, order) for _ in range(dim)] for _ in range(dim)])


def random_matrix_operator(rng, dim, max_order, x_order):
    order = rng.randint(1, max_order)
    coeffs = [random_matrix_jet(rng, dim, x_order) for _ in range(order + 1)]
    return DiffOperator(coeffs)


def darboux_chain(L, kernel):
    """Iterated right Darboux transforms of ``L`` along its kernel elements.

    Step i maps ``kernel[i]`` through the factors D - s_1, ..., D - s_(i-1) of
    the earlier steps, takes s_i as the log-derivative of the image and
    transforms the operator of step i - 1 by s_i.  Returns ``(steps, L_k)``:
    ``steps[i] = (operator, mapped kernel element, s_i)``, where the operator
    must annihilate the mapped element, and ``L_k`` is the last transform.
    """
    steps = []
    for phi in kernel:
        for _, _, s in steps:
            phi = ls_apply(phi, s)
        s = log_derivative(phi, "right")
        steps.append((L, phi, s))
        L = darboux_transform(L, s).transformed
    return steps, L


# Independent model of a bi-jet: ({(i, j): coefficient of x^i t^j}, x_order,
# t_order) with None for an exact axis; keys lie inside the valid range.  A
# matrix of bi-jets is a list of rows of such models.


def _model(rows, xo, to):
    return (
        {
            (i, j): Fraction(c)
            for i, row in enumerate(rows)
            for j, c in enumerate(row)
            if c and (xo is None or i <= xo) and (to is None or j <= to)
        },
        xo,
        to,
    )


def _omin(a, b):
    return b if a is None else a if b is None else min(a, b)


def _in_range(key, xo, to):
    return (xo is None or key[0] <= xo) and (to is None or key[1] <= to)


def _model_add(a, b, sign=1):
    xo, to = _omin(a[1], b[1]), _omin(a[2], b[2])
    out = {}
    for d, f in ((a[0], 1), (b[0], sign)):
        for key, c in d.items():
            if _in_range(key, xo, to):
                out[key] = out.get(key, 0) + f * c
    return out, xo, to


def _model_mul(a, b):
    xo, to = _omin(a[1], b[1]), _omin(a[2], b[2])
    out = {}
    for (p, q), c in a[0].items():
        for (r, s), e in b[0].items():
            if _in_range((p + r, q + s), xo, to):
                out[(p + r, q + s)] = out.get((p + r, q + s), 0) + c * e
    return out, xo, to


def _model_diff(a, axis):
    orders = [a[1], a[2]]
    if orders[axis] is not None:
        orders[axis] -= 1
    out = {}
    for key, c in a[0].items():
        if key[axis]:
            shifted = list(key)
            shifted[axis] -= 1
            out[tuple(shifted)] = key[axis] * c
    return out, orders[0], orders[1]


def _model_matmul(a, b):
    dim = len(a)
    return [[functools.reduce(_model_add, (_model_mul(a[i][k], b[k][j]) for k in range(dim)))
             for j in range(dim)] for i in range(dim)]


def _model_letter(image, letter):
    """D^d D0^d0 of the image of a generator, starred first if the letter is:
    the star transposes and reflects x -> -x, as on matrix jets."""
    m = image
    if letter.star:
        m = [[({k: -c if k[0] % 2 else c for k, c in e[0].items()}, e[1], e[2]) for e in col]
             for col in zip(*m)]
    for axis, count in ((1, letter.d0), (0, letter.d)):
        for _ in range(count):
            m = [[_model_diff(e, axis) for e in row] for row in m]
    return m


def specialize(value, images):
    """The model of a free-ring element (or of each coefficient of a free-ring
    operator) under the ring map sending each generator ``g`` to the model
    matrix ``images[g]``: a sum over words of coefficient times the product of
    the letters' models.  Only the model's own operations are used."""
    if isinstance(value, DiffOperator):
        return [specialize(c, images) for c in value.coeffs]
    dim = len(next(iter(images.values())))
    unit = [[({(0, 0): Fraction(1)} if i == j else {}, None, None) for j in range(dim)]
            for i in range(dim)]
    products = {(): unit}  # the product of each word prefix met, built once

    def product(word):
        if word not in products:
            products[word] = _model_matmul(product(word[:-1]),
                                           _model_letter(images[word[-1].gen], word[-1]))
        return products[word]

    total = [[({}, None, None)] * dim for _ in range(dim)]
    for word, c in value.terms():
        term = [[({k: c * v for k, v in e[0].items()}, e[1], e[2]) for e in row]
                for row in product(word)]
        total = [[_model_add(x, y) for x, y in zip(r, q)] for r, q in zip(total, term)]
    return total
