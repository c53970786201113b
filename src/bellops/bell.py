"""Left, right and generalized Bell polynomials with memoized tables.

All entries are produced by the defining recurrences:

    B_0 = e,          B_n = D B_{n-1} + B_{n-1} s
    B_0^+ = e,        B_n^+ = -D B_{n-1}^+ + s B_{n-1}^+
    B_{n,0} = e,      B_{n,k} = B_{n-1,k} + D B_{n-1,k-1}   (1 <= k <= n-1)
                      B_{n,n} = D B_{n-1,n-1} + B_n
    H_0 = e,          H_n = D o H_{n-1} + B_n   (the B_{n,k} rows, as one push of D)

for the quotient operators H_n = sum_k B_{n,n-k} D^k and
H_n^+ = sum_k B_{n-k}^+ D^k.  Closed alternative formulas live in the test
suite as independent oracles.
"""

from __future__ import annotations

import threading

from .errors import IndexRangeError
from .operators import DiffOperator, _push_d


class BellTable:
    """Memoized Bell-polynomial family for one fixed ring element s.

    Fills are guarded by an internal lock; once computed, entries are
    immutable and safe to read concurrently.
    """

    def __init__(self, s):
        self.s = s
        self._one = s.one_like()
        self._left = [self._one]
        self._right = [self._one]
        self._rows = [[self._one]]  # _rows[n][k] = B_{n,n-k}, the coefficients of H_n
        self._lock = threading.RLock()

    def left(self, n: int):
        """B_n(s)."""
        if n < 0:
            raise IndexRangeError("Bell index must be >= 0")
        with self._lock:
            while len(self._left) <= n:
                prev = self._left[-1]
                self._left.append(prev.d() + prev * self.s)
        return self._left[n]

    def right(self, n: int):
        """B_n^+(s)."""
        if n < 0:
            raise IndexRangeError("Bell index must be >= 0")
        with self._lock:
            while len(self._right) <= n:
                prev = self._right[-1]
                self._right.append(-(prev.d()) + self.s * prev)
        return self._right[n]

    def _row(self, n: int) -> list:
        """Coefficients of H_n, filled by H_m = D o H_{m-1} + B_m."""
        with self._lock:
            while len(self._rows) <= n:
                row = _push_d(self._rows[-1])
                row[0] = row[0] + self.left(len(self._rows))
                self._rows.append(row)
        return self._rows[n]

    def gen(self, n: int, k: int):
        """B_{n,k}(s); defined for 0 <= k <= n only."""
        if n < 0 or k < 0 or k > n:
            raise IndexRangeError(f"B_(n,k) needs 0 <= k <= n, got n={n}, k={k}")
        return self._row(n)[n - k]

    def h(self, n: int) -> DiffOperator:
        """Quotient operator H_n; order n, leading coefficient e."""
        if n < 0:
            raise IndexRangeError("operator index must be >= 0")
        return DiffOperator(self._row(n), self.s.realization)

    def h_plus(self, n: int) -> DiffOperator:
        """Quotient operator H_n^+; order n, leading coefficient e."""
        if n < 0:
            raise IndexRangeError("operator index must be >= 0")
        coeffs = [self.right(n - k) for k in range(n + 1)]
        return DiffOperator(coeffs, self.s.realization)
