"""Products of matrices of integer polynomials, the arithmetic under every
series product and every sum of series products in :mod:`bellops.jets`.

A product multiplies an r x K grid by a K x c grid of integer coefficient lists
and keeps coefficients ``low`` to ``n - 1`` of each entry (with ``low > 0``, a
middle product).  A sum of P products of dim x dim matrices is one such
product, of the dim x P dim row of left factors by the P dim x dim column of
right factors.  :func:`prefers_packing` is the rule that picks how: operands
with few nonzero coefficients for their width are convolved term by term
(:func:`_schoolbook`).  The others use Kronecker substitution: each operand
entry is one big integer, one slot per coefficient (:func:`pack_grid`, at the
width :func:`slot_bytes` gives), the K products for an output entry are summed
as integers, and the sum is unpacked once (:func:`packed_matmul`).  Slots
rounded up to a machine word go through signed ``array`` words in both
directions, with no Python loop per coefficient: a pack writes the
coefficients in two's complement and corrects the whole integer by one xor
with the half-slot bias and one subtraction (:func:`_pack`); an unpack adds
the bias, masks, xors it back and reads the words as signed values
(:func:`_unpack`).  Wider slots use the same bias formula, a slot at a time.
A packed entry depends only on its coefficients and the slot width, so a
caller that keeps its packs can reuse them in every product that needs that
width; :mod:`bellops.jets` keeps them on each matrix.
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
# matveev_bijet and jet_series_long benchmark workloads, middle products too:
# term by term skips the pairs below a cut, packed forms them all.
KRONECKER_MIN_LEN = 3
KRONECKER_BITS_PER_LEN = 15


def prefers_packing(per_entry: float, rows: int, bits: int) -> bool:
    """The rule above, for ``rows``-row grids whose sparser operand has
    ``per_entry`` nonzero coefficients per entry and whose largest coefficients
    have bit lengths adding up to ``bits``."""
    return per_entry >= KRONECKER_MIN_LEN / rows + bits / KRONECKER_BITS_PER_LEN


def _schoolbook(a, b, n: int, low: int) -> list:
    """Coefficients ``low`` to ``n - 1`` of each entry of the product of grids
    ``a`` (r x K) and ``b`` (K x c) of integer coefficient lists, term by term;
    the pairs below ``low`` are skipped."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[[0] * (n - low) for _ in range(cols)] for _ in range(rows)]
    for i, j, k in product(range(rows), range(cols), range(inner)):
        p, q = sorted((a[i][k], b[k][j]), key=len)
        acc = out[i][j]
        for s, v in enumerate(p[:n]):
            if v:
                row, at = q[max(low - s, 0):n - s], max(s - low, 0)
                acc[at:at + len(row)] = map(add, acc[at:at + len(row)], map(v.__mul__, row))
    return out


# signed array type codes of the machine words a slot width may round up to
_WORDS = {array(code).itemsize: code for code in "bhiq"}


def slot_bytes(bits: int, inner: int, la: int, lb: int) -> int:
    """Bytes in a slot of a product over ``inner`` = K whose operand entries span
    at most ``la`` and ``lb`` slots and whose largest coefficients have bit
    lengths adding up to ``bits``: a slot holds any output coefficient, a sum of
    at most ``K * min(la, lb)`` such products, plus a sign bit, rounded up to a
    machine word when one is wide enough.  Bounds that are larger than the
    operands' own give wider slots and the same product."""
    bits += (inner * min(la, lb)).bit_length()
    nb = bits // 8 + 1
    return min([w for w in _WORDS if w >= nb] or [nb])


def _bias(n: int, nb: int) -> int:
    """Half a slot in each of ``n`` slots of ``nb`` bytes: ``sum_k 2^(8 nb k + 8 nb - 1)``."""
    return int.from_bytes((b"\0" * (nb - 1) + b"\x80") * n, "little")


def _pack(cs: Sequence[int], nb: int) -> int:
    """``sum_k cs[k] 2^(8 nb k)`` for coefficients less than half a slot in
    absolute value.  Written as signed words (two's complement), the bytes read
    as ``U``, each slot ``cs[k]`` modulo a slot; xor with the half-slot bias
    ``B`` turns each slot into ``cs[k] + half`` without a carry, so the sum is
    ``(U ^ B) - B``."""
    if nb in _WORDS:
        words = array(_WORDS[nb], cs)
        if sys.byteorder == "big":
            words.byteswap()
        data = words.tobytes()
    else:
        data = b"".join([c.to_bytes(nb, "little", signed=True) for c in cs])
    bias = _bias(len(cs), nb)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(v: int, n: int, nb: int, low: int) -> list:
    """Slots ``low`` to ``n - 1`` of ``v``, signed ``nb``-byte slots each less than
    half a slot in absolute value.  Plus the half-slot bias ``B``, every slot holds
    its value plus half a slot, and no slot borrows from the next; masked to
    ``n`` slots (slots from ``n`` up are dropped, whatever they hold) and xored
    with ``B``, each slot is its value modulo a slot, which reads back as a
    signed word.  The shift down by ``low`` slots drops whole slots."""
    bias = _bias(n, nb)
    v = (((v + bias) & ((1 << (8 * nb * n)) - 1)) ^ bias) >> (8 * nb * low)
    data = v.to_bytes(nb * (n - low), "little")
    if nb in _WORDS:
        words = array(_WORDS[nb], data)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(data[k:k + nb], "little", signed=True) for k in range(0, len(data), nb)]


def pack_grid(grid, nb: int) -> list:
    """Each coefficient list of ``grid`` packed at ``nb`` bytes a slot (an all-zero
    one is 0)."""
    return [[_pack(cs, nb) if any(cs) else 0 for cs in row] for row in grid]


def packed_matmul(pa, pb, n: int, nb: int, low: int) -> list:
    """Coefficients ``low`` to ``n - 1`` of each entry of the product of packed
    grids ``pa`` (r x K) and ``pb`` (K x c): K big-integer products summed per
    entry, which is unpacked once."""
    cols = list(zip(*pb))
    return [[_unpack(sum([x * y for x, y in zip(row, col)]), n, nb, low) for col in cols]
            for row in pa]

