"""Exact free noncommutative differential ring.

Elements are finite rational combinations of *words*; a word is an ordered
sequence of letters, each letter a (possibly starred, possibly differentiated)
declared generator.  Two commuting derivations act on letters: ``d`` (the main
derivation) and ``d0`` (a second derivation, e.g. by a time parameter).

The involution reverses words, stars every letter and multiplies the
coefficient by (-1)**(total d-count of the word), so that ``(Da)* == -D(a*)``
holds exactly while ``d0`` commutes with the star.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import RealizationMismatchError, TermBudgetError

RESERVED_NAMES = frozenset({"e", "D", "D0", "x", "t"})
# A product of elements with a and b terms forms a * b term pairs; at most this
# many are formed, so for one generator s, B_n(s) (2^(n-1) words) is reached up
# to n = 16 and (s + D(s))^k (2^k words) up to k = 14.
MAX_TERMS = 2**14


class Letter(NamedTuple):
    """One generator occurrence: name, star flag and derivative counts."""

    gen: str
    star: bool = False
    d0: int = 0
    d: int = 0


Word = tuple  # tuple[Letter, ...]; the empty word is the ring unit


def word_key(word: Word):
    """Canonical sort key; elements print and iterate in *descending* key order."""
    return (len(word), word)


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction scalar, got {type(value).__name__}")


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

    @property
    def zero(self) -> "FreeElement":
        return FreeElement(self, {})

    @property
    def one(self) -> "FreeElement":
        return FreeElement(self, {(): Fraction(1)})

    def gen(self, name: str, star: bool = False) -> "FreeElement":
        if name not in self.generators:
            raise KeyError(f"generator {name!r} not declared in ring {self.generators}")
        return FreeElement(self, {(Letter(name, star),): Fraction(1)})

    def element(self, terms: Mapping[Word, Fraction]) -> "FreeElement":
        return FreeElement(self, dict(terms))


class FreeElement:
    """A canonicalized finite sum ``coeff * word`` over a :class:`FreeRing`."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: FreeRing, terms: Mapping[Word, Fraction]):
        self.ring = ring
        self._terms = {w: c for w, c in terms.items() if c != 0}

    # -- realization plumbing -------------------------------------------------

    @property
    def realization(self) -> FreeRing:
        return self.ring

    def one_like(self) -> "FreeElement":
        return self.ring.one

    def zero_like(self) -> "FreeElement":
        return self.ring.zero

    def _check_compatible(self, other: "FreeElement"):
        if not isinstance(other, FreeElement) or other.ring != self.ring:
            raise RealizationMismatchError(
                "operands must come from the same free ring"
            )

    # -- inspection ------------------------------------------------------------

    def terms(self):
        """Canonically ordered (word, coeff) pairs."""
        return sorted(self._terms.items(), key=lambda kv: word_key(kv[0]), reverse=True)

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    __hash__ = None

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "FreeElement") -> "FreeElement":
        self._check_compatible(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return FreeElement(self.ring, terms)

    def __sub__(self, other: "FreeElement") -> "FreeElement":
        return self + (-other)

    def __neg__(self) -> "FreeElement":
        return FreeElement(self.ring, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        pairs = len(self._terms) * len(other._terms)
        if pairs > MAX_TERMS:
            raise TermBudgetError(
                f"free-ring product of {pairs} term pairs exceeds the budget of {MAX_TERMS}")
        terms: dict = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, Fraction(0)) + c1 * c2
        return FreeElement(self.ring, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "FreeElement":
        c = _coerce_scalar(value)
        return FreeElement(self.ring, {w: c * v for w, v in self._terms.items()})

    def _leibniz(self, bump) -> "FreeElement":
        """Sum over each word's letters of the word with that letter bumped."""
        terms: dict = {}
        for w, c in self._terms.items():
            for i, letter in enumerate(w):
                nw = w[:i] + (bump(letter),) + w[i + 1 :]
                terms[nw] = terms.get(nw, Fraction(0)) + c
        return FreeElement(self.ring, terms)

    def d(self) -> "FreeElement":
        """Main derivation: Leibniz sum of per-letter d-increments."""
        return self._leibniz(lambda l: Letter(l.gen, l.star, l.d0, l.d + 1))

    def d0(self) -> "FreeElement":
        """Second derivation; commutes with :meth:`d` letter by letter."""
        return self._leibniz(lambda l: Letter(l.gen, l.star, l.d0 + 1, l.d))

    def star(self) -> "FreeElement":
        """Involution: reverse words, star letters, sign by total d-count."""
        terms: dict = {}
        for w, c in self._terms.items():
            nw = tuple(letter._replace(star=not letter.star) for letter in reversed(w))
            sign = -1 if sum(letter.d for letter in w) % 2 else 1
            terms[nw] = terms.get(nw, Fraction(0)) + sign * c
        return FreeElement(self.ring, terms)

    # -- printing ------------------------------------------------------------------

    def signed_text(self):
        """(is_negative, text) with the sign stripped when the element is a
        single negative term; used by the operator printer."""
        items = self.terms()
        if len(items) == 1 and items[0][1] < 0:
            flipped = FreeElement(self.ring, {items[0][0]: -items[0][1]})
            return True, flipped.to_text()
        return False, self.to_text()

    def to_text(self) -> str:
        items = self.terms()
        if not items:
            return "0"
        pieces = []
        for idx, (word, coeff) in enumerate(items):
            body = _term_text(word, abs(coeff))
            if idx == 0:
                pieces.append(("-" if coeff < 0 else "") + body)
            else:
                pieces.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"FreeElement({self.to_text()!r})"


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
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).rjust(k, "0")


def fraction_text(q: Fraction) -> str:
    """``str(q)``, for a Fraction of any size."""
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def _term_text(word: Word, coeff: Fraction) -> str:
    if not word:
        return "e" if coeff == 1 else fraction_text(coeff)
    factors = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        base = letter_text(word[i])
        factors.append(base if j - i == 1 else f"{base}^{j - i}")
        i = j
    body = "*".join(factors)
    return body if coeff == 1 else f"{fraction_text(coeff)}*{body}"
