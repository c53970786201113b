"""Products of matrices of integer polynomials, the arithmetic under every
series product and every sum of series products in :mod:`bellops.jets`.

:func:`matmul` multiplies an r x K grid by a K x c grid of integer coefficient
lists and keeps the first ``n`` coefficients of each entry.  A sum of P products
of dim x dim matrices is one such product, of the dim x P dim row of left
factors by the P dim x dim column of right factors.  Operands with few nonzero
coefficients for their width are convolved term by term.  The others use
Kronecker substitution: each operand entry is packed once into one big integer
(one slot per coefficient), the K products for an output entry are summed as
integers, and the sum is unpacked once.
"""

from __future__ import annotations

import sys
from array import array
from itertools import product
from operator import add
from typing import Sequence

# A product of dim-row grids packs its operands (Kronecker substitution) when the
# sparser one has, per entry, at least KRONECKER_MIN_LEN / dim nonzero
# coefficients plus one per KRONECKER_BITS_PER_LEN bits of a coefficient
# product; below that, term by term.  Term by term pays per nonzero pair and
# per bit of each pair; packing pays every slot at the widest product's
# width, so zero gaps (a bi-jet's between t-levels) count against packing.
# Fitted to timings of both helpers on every product of the jet_darboux,
# matveev_bijet and jet_series_long benchmark workloads.
KRONECKER_MIN_LEN = 5
KRONECKER_BITS_PER_LEN = 20


def _schoolbook(a, b, n: int) -> list:
    """First ``n`` coefficients of each entry of the product of grids ``a``
    (r x K) and ``b`` (K x c) of integer coefficient lists, term by term."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[[0] * n for _ in range(cols)] for _ in range(rows)]
    for i, j, k in product(range(rows), range(cols), range(inner)):
        p, q = sorted((a[i][k], b[k][j]), key=len)
        acc = out[i][j]
        for s, v in enumerate(p[:n]):
            if v:
                row = q[: n - s]
                acc[s:s + len(row)] = map(add, acc[s:s + len(row)], map(v.__mul__, row))
    return out


# array type codes of the machine words a slot width may round up to
_WORDS = {array(code).itemsize: code for code in "BHIQ"}


def _slot_bytes(bits: int) -> int:
    """Bytes in a slot for values below ``2^bits`` in absolute value plus a sign
    bit, rounded up to a machine word when one is wide enough."""
    nb = bits // 8 + 1
    return min([w for w in _WORDS if w >= nb] or [nb])


def _pack(cs: Sequence[int], nb: int) -> int:
    """``sum_k cs[k] 2^(8 nb k)``; biased by half a slot, signed coefficients
    pack as plain little-endian bytes."""
    h, half = 1 << (8 * nb - 1), b"\0" * (nb - 1) + b"\x80"
    if nb in _WORDS:
        words = array(_WORDS[nb], [c + h for c in cs])
        if sys.byteorder == "big":
            words.byteswap()
        data = words.tobytes()
    else:
        data = b"".join([(c + h).to_bytes(nb, "little") for c in cs])
    return int.from_bytes(data, "little") - int.from_bytes(half * len(cs), "little")


def _unpack(v: int, n: int, nb: int) -> list:
    """The low ``n`` signed ``nb``-byte slots of ``v``, each less than half a slot
    in absolute value; biased by half a slot, they read as plain bytes."""
    h, half = 1 << (8 * nb - 1), b"\0" * (nb - 1) + b"\x80"
    v = (v + int.from_bytes(half * n, "little")) & ((1 << (8 * nb * n)) - 1)
    data = v.to_bytes(nb * n, "little")
    if nb in _WORDS:
        words = array(_WORDS[nb], data)
        if sys.byteorder == "big":
            words.byteswap()
        return [w - h for w in words]
    return [int.from_bytes(data[k:k + nb], "little") - h for k in range(0, nb * n, nb)]


def _bits(grid) -> int:
    """Bit length of the largest absolute coefficient in a grid of coefficient lists."""
    return max([max(max(cs), -min(cs)) for row in grid for cs in row if cs] + [0]).bit_length()


def _per_cell(grid) -> float:
    """Nonzero coefficients per cell of a grid of coefficient lists."""
    return sum([len(cs) - cs.count(0) for row in grid for cs in row]) / (len(grid) * len(grid[0]))


def _kronecker(a, b, n: int, bits: int = None) -> list:
    """``_schoolbook(a, b, n)`` by packing each operand entry into one integer once
    (an empty one is 0), then summing K big-integer products per output entry and
    unpacking it once.

    A slot holds any output coefficient plus a sign bit: a sum of at most
    ``K * min(la, lb)`` products of the operands' largest coefficients, whose
    bit lengths add up to ``bits``.
    """
    inner = len(b)
    if bits is None:
        bits = _bits(a) + _bits(b)
    la, lb = (max(len(cs) for row in g for cs in row) for g in (a, b))
    nb = _slot_bytes(bits + (inner * min(la, lb)).bit_length())
    pa, pb = ([[_pack(cs, nb) if cs else 0 for cs in row] for row in g] for g in (a, b))
    return [[_unpack(sum([pa[i][k] * pb[k][j] for k in range(inner)]), n, nb)
             for j in range(len(b[0]))] for i in range(len(a))]


def matmul(a, b, n: int) -> list:
    """First ``n`` coefficients of each entry of the product of grids ``a`` (r x K)
    and ``b`` (K x c) of integer coefficient lists, packed or term by term by the
    rule above, with ``dim = r``."""
    bits = _bits(a) + _bits(b)
    per_entry = min(_per_cell(a), _per_cell(b))
    if per_entry >= KRONECKER_MIN_LEN / len(a) + bits / KRONECKER_BITS_PER_LEN:
        return _kronecker(a, b, n, bits)
    return _schoolbook(a, b, n)
