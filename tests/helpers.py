"""Seeded random builders shared across test modules."""

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
