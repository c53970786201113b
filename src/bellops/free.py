"""Exact free noncommutative differential ring.

Elements are finite rational combinations of *words*; a word is an ordered
sequence of letters, each letter a (possibly starred, possibly differentiated)
declared generator.  Two commuting derivations act on letters: ``d`` (the main
derivation) and ``d0`` (a second derivation, e.g. by a time parameter).

The involution reverses words, stars every letter and multiplies the
coefficient by (-1)**(total d-count of the word), so that ``(Da)* == -D(a*)``
holds exactly while ``d0`` commutes with the star.

An element stores integer numerators over one positive denominator, in lowest
terms, keyed by words of int letter codes: from the top, the generator's rank
among the sorted names, the star bit, then ``d0`` and ``d`` in fields of
``FIELD_BITS`` bits.  Codes sort as :class:`Letter` tuples do, so terms print
in the same order; ``d`` adds 1 to a code, ``d0`` adds ``D0_STEP`` and the star
flips ``STAR_BIT``.  Letters and Fractions appear only in the constructor,
``terms()`` and ``coefficient()``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import comb, gcd, lcm
from operator import index
from typing import Mapping, NamedTuple

from .errors import RealizationMismatchError, TermBudgetError
from .jets import _frac

RESERVED_NAMES = frozenset({"e", "D", "D0", "x", "t"})
# A product of elements with a and b terms forms a * b term pairs; at most this
# many are formed, so for one generator s, B_n(s) (2^(n-1) words) is reached up
# to n = 16 and (s + D(s))^k (2^k words) up to k = 14.
MAX_TERMS = 2**14
# A derivation forms one word per letter of each word; at most this many are
# formed, so B_16(s) (278528 letters) has its derivative and D^k(s^4)
# (4 C(k+3, 3) letters) is refused, before any derivation, for k > 91.
MAX_LETTERS = 2**19
FIELD_BITS = 20  # a letter holds d and d0 counts up to FIELD_MAX
FIELD_MAX = (1 << FIELD_BITS) - 1
D0_STEP = 1 << FIELD_BITS
STAR_BIT = 1 << 2 * FIELD_BITS


class Letter(NamedTuple):
    """One generator occurrence: name, star flag and derivative counts."""

    gen: str
    star: bool = False
    d0: int = 0
    d: int = 0


def _refuse_letters(letters: int):
    raise TermBudgetError(f"free-ring derivative of {letters} letters exceeds "
                          f"the budget of {MAX_LETTERS}")


def _lowest(nums: dict, den: int) -> tuple:
    """``(nums, den)`` without zero numerators, divided by ``gcd(den, *nums.values())``."""
    if 0 in nums.values():
        nums = {w: c for w, c in nums.items() if c}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {w: c // g for w, c in nums.items()}, den // g
    return nums, den


@dataclass(frozen=True)
class FreeRing:
    """A free ring with a fixed tuple of declared generator names."""

    generators: tuple

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not name.isidentifier():
                raise ValueError(f"generator name {name!r} is not an identifier")
            if name in RESERVED_NAMES:
                raise ValueError(f"generator name {name!r} is reserved")
            if name in seen:
                raise ValueError(f"generator {name!r} declared twice")
            seen.add(name)
        names = tuple(sorted(self.generators))
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_ranks", {name: rank for rank, name in enumerate(names)})

    @property
    def zero(self) -> "FreeElement":
        return FreeElement._new(self, {}, 1)

    @property
    def one(self) -> "FreeElement":
        return FreeElement._new(self, {(): 1}, 1)

    def gen(self, name: str, star: bool = False) -> "FreeElement":
        return FreeElement._new(self, {(self.code(Letter(name, star)),): 1}, 1)

    def code(self, letter) -> int:
        """The int code of a letter ``(gen, star, d0, d)``."""
        gen, star, d0, d = letter
        rank = self._ranks.get(gen)
        if rank is None:
            raise KeyError(f"generator {gen!r} not declared in ring {self.generators}")
        d0, d = index(d0), index(d)
        if not (0 <= d0 <= FIELD_MAX and 0 <= d <= FIELD_MAX):
            raise ValueError(f"letter {tuple(letter)!r}: derivative counts must lie in "
                             f"0..{FIELD_MAX}")
        return ((2 * rank + bool(star)) << 2 * FIELD_BITS) + (d0 << FIELD_BITS) + d

    def letter(self, code: int) -> Letter:
        """The letter of an int code."""
        top = code >> 2 * FIELD_BITS
        return Letter(self._names[top >> 1], bool(top & 1), (code >> FIELD_BITS) & FIELD_MAX,
                      code & FIELD_MAX)


class FreeElement:
    """A canonicalized finite sum ``coeff * word`` over a :class:`FreeRing`:
    ``nums`` maps words of letter codes to nonzero integer numerators over the
    positive ``den``, with ``gcd(den, *nums) == 1``."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: FreeRing, terms: Mapping[tuple, Fraction]):
        """From ``{word of Letters: int or Fraction}``; a letter of an undeclared
        generator raises KeyError, a derivative count over ``FIELD_MAX`` ValueError."""
        coeffs = list(map(_frac, terms.values()))
        den = lcm(*(c.denominator for c in coeffs))
        nums: dict = {}
        for word, c in zip(terms, coeffs):
            w = tuple(map(ring.code, word))
            nums[w] = nums.get(w, 0) + c.numerator * (den // c.denominator)
        self.ring = ring
        self.nums, self.den = _lowest(nums, den)

    @classmethod
    def _new(cls, ring: FreeRing, nums: dict, den: int) -> "FreeElement":
        """From nonzero numerators over ``den``, already in lowest terms."""
        self = object.__new__(cls)
        self.ring, self.nums, self.den = ring, nums, den
        return self

    # -- realization plumbing -------------------------------------------------

    @property
    def realization(self) -> FreeRing:
        return self.ring

    def one_like(self) -> "FreeElement":
        return self.ring.one

    def zero_like(self) -> "FreeElement":
        return self.ring.zero

    def _check_compatible(self, other: "FreeElement"):
        if not isinstance(other, FreeElement) or (
                other.ring is not self.ring and other.ring != self.ring):
            raise RealizationMismatchError("operands must come from the same free ring")

    # -- inspection ------------------------------------------------------------

    def coded_terms(self) -> list:
        """(length, word of codes, numerator) triples in print order: longer
        words first, then larger words."""
        return sorted(zip(map(len, self.nums), self.nums, self.nums.values()), reverse=True)

    def letters(self, render=lambda letter: letter) -> dict:
        """``{code: render(letter)}`` over the distinct letters, each decoded once."""
        return {x: render(self.ring.letter(x)) for x in set().union(*self.nums)}

    def terms(self):
        """Canonically ordered (word of Letters, Fraction) pairs."""
        letter = self.letters().__getitem__
        return [(tuple(map(letter, w)), Fraction(c, self.den)) for _, w, c in self.coded_terms()]

    def coefficient(self, word) -> Fraction:
        try:
            w = tuple(map(self.ring.code, word))
        except (KeyError, ValueError):
            return Fraction(0)
        return Fraction(self.nums.get(w, 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    __hash__ = None

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check_compatible(other)
        a, b = (self, other) if len(self.nums) >= len(other.nums) else (other, self)
        g = gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        nums = dict(a.nums) if fa == 1 else {w: fa * c for w, c in a.nums.items()}
        get = nums.get
        for w, c in b.nums.items():
            nums[w] = get(w, 0) + fb * c
        return FreeElement._new(self.ring, *_lowest(nums, a.den * fa))

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement._new(self.ring, {w: -c for w, c in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        for c, x in ((self, other), (other, self)):
            if len(c.nums) == 1 and () in c.nums:  # c e: no pairs, as for c I in jets
                k = c.nums[()]
                return x if k == c.den == 1 else FreeElement._new(
                    self.ring, *_lowest({w: k * v for w, v in x.nums.items()}, x.den * c.den))
        pairs = len(self.nums) * len(other.nums)
        if pairs > MAX_TERMS:
            raise TermBudgetError(
                f"free-ring product of {pairs} term pairs exceeds the budget of {MAX_TERMS}")
        nums: dict = {}
        get = nums.get
        right = list(other.nums.items())
        for w1, c1 in self.nums.items():
            for w2, c2 in right:
                w = w1 + w2
                nums[w] = get(w, 0) + c1 * c2
        return FreeElement._new(self.ring, *_lowest(nums, self.den * other.den))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "FreeElement":
        c = _frac(value)
        nums = {w: c.numerator * v for w, v in self.nums.items()}
        return FreeElement._new(self.ring, *_lowest(nums, self.den * c.denominator))

    def check_derivations(self, k: int, d0: bool = False) -> None:
        """Refuse k successive derivations (``d``, or ``d0``) before any of them
        when the input to one is bounded over ``MAX_LETTERS`` letters.  j
        derivations take a word of length L to at most C(j + L - 1, L - 1)
        words of length L; words with the same letters underived and the same
        sum t of derived counts give at most C(t + j + L - 1, L - 1) in all.
        The bound is exact for one word, and above the count where words merge."""
        step = D0_STEP if d0 else 1
        groups = Counter()
        for w in filter(None, self.nums):
            counts = [x // step & FIELD_MAX for x in w]
            groups[tuple(x - c * step for x, c in zip(w, counts)), sum(counts)] += 1

        def letters(j):
            return sum(len(w) * min(n * comb(j + len(w) - 1, len(w) - 1),
                                    comb(t + j + len(w) - 1, len(w) - 1))
                       for (w, t), n in groups.items())
        j = bisect_left(range(k), True, key=lambda j: letters(j) > MAX_LETTERS)
        if j < k:
            _refuse_letters(letters(j))

    def _leibniz(self, step: int) -> "FreeElement":
        """Sum over each word's letters of the word with that letter's code
        raised by ``step``: 1 raises its d, ``D0_STEP`` its d0."""
        letters = sum(map(len, self.nums))
        if letters > MAX_LETTERS:
            _refuse_letters(letters)
        full = step * FIELD_MAX
        if any(x & full == full for x in set().union(*self.nums)):
            raise ValueError(f"a free-ring derivative count would exceed {FIELD_MAX}")
        nums: dict = {}
        get = nums.get
        for w, c in self.nums.items():
            bumped = list(w)
            for i in range(len(w)):
                bumped[i] += step
                nw = tuple(bumped)
                bumped[i] = w[i]
                nums[nw] = get(nw, 0) + c
        return FreeElement._new(self.ring, *_lowest(nums, self.den))

    def d(self) -> "FreeElement":
        """Main derivation: Leibniz sum of per-letter d-increments."""
        return self._leibniz(1)

    def d0(self) -> "FreeElement":
        """Second derivation; commutes with :meth:`d` letter by letter."""
        return self._leibniz(D0_STEP)

    def star(self) -> "FreeElement":
        """Involution: reverse words, star letters, sign by total d-count (the
        parity of the sum of a word's codes, since d is the lowest field)."""
        nums = {tuple([x ^ STAR_BIT for x in w[::-1]]): -c if sum(w) & 1 else c
                for w, c in self.nums.items()}
        return FreeElement._new(self.ring, nums, self.den)

    # -- printing ------------------------------------------------------------------

    def _pieces(self) -> list:
        """(is_negative, text without sign) per term, in print order."""
        texts = self.letters(letter_text)
        return [(c < 0, _term_text(w, abs(c), self.den, texts))
                for _, w, c in self.coded_terms()]

    def signed_text(self):
        """(is_negative, text) with the sign stripped when the element is a
        single negative term; used by the operator printer."""
        pieces = self._pieces()
        if len(pieces) == 1 and pieces[0][0]:
            return True, pieces[0][1]
        return False, _joined(pieces)

    def to_text(self) -> str:
        return _joined(self._pieces())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"FreeElement({self.to_text()!r})"


def _joined(pieces) -> str:
    if not pieces:
        return "0"
    (negative, body), rest = pieces[0], pieces[1:]
    return " ".join([("-" if negative else "") + body]
                    + [("- " if negative else "+ ") + body for negative, body in rest])


def letter_text(letter: Letter) -> str:
    core = letter.gen + ("*'" if letter.star else "")
    if letter.d0:
        core = f"D0^{letter.d0}({core})" if letter.d0 > 1 else f"D0({core})"
    if letter.d:
        core = f"D^{letter.d}({core})" if letter.d > 1 else f"D({core})"
    return core


def _int_text(n: int) -> str:
    """Decimal digits of ``n``.  ``str()`` refuses integers over the
    interpreter's digit limit (never below 640 digits), so a longer one is split
    at a power of ten into halves that are printed the same way."""
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).rjust(k, "0")


def ratio_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, for integers of any size."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def _term_text(word: tuple, num: int, den: int, texts: dict) -> str:
    """A term ``num/den * word`` with ``num > 0``, from the letters' texts by code."""
    one = num == den
    if not word:
        return "e" if one else ratio_text(num, den)
    factors = []
    for x, run in groupby(word):
        n = len(list(run))
        factors.append(texts[x] if n == 1 else f"{texts[x]}^{n}")
    body = "*".join(factors)
    return body if one else f"{ratio_text(num, den)}*{body}"
