"""Mutant catalogue: show that the tier-1 tests catch each listed fault.

Each mutant is one text replacement in one file of ``src/bellops``.  The
script copies the repository (``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``; the tests read ``perfbench/tracer.py``) to a temporary
directory, checks that the unmutated copy passes, then applies each mutant on
its own and runs tier-1 with ``-x``.  A mutant is killed when the run fails.
The survivors are listed at the end.

Run from anywhere, standard library only:

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when some survive, 2 when a
mutant's target text is not found exactly once or the unmutated copy fails.
The target check alone, ``_check_targets()``, is a step of the blocking CI
tests job, so a source change that moves a target fails there.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]

# (name, file under src/bellops, target text, replacement)
MUTANTS = [
    ("order ledger min -> max", "jets.py",
     "    return min(a, b)", "    return max(a, b)"),
    ("d costs no order", "jets.py",
     "xo = None if self.x_order is None else self.x_order - 1",
     "xo = None if self.x_order is None else self.x_order"),
    ("Bell right recurrence operands swapped", "bell.py",
     "-(prev.d()) + self.s * prev", "-(prev.d()) + prev * self.s"),
    ("Burgers sum operands swapped", "darboux.py",
     "yield ls_apply(a_n, s), table.left(n)", "yield table.left(n), ls_apply(a_n, s)"),
    ("apply operands swapped", "operators.py",
     "dot(zip(self.coeffs, derivs))", "dot(zip(derivs, self.coeffs))"),
    ("star without the reflection", "jets.py",
     "[[[[-v if k % 2 else v for k, v in enumerate(lv)]", "[[[[v for k, v in enumerate(lv)]"),
    ("Kronecker slot one byte too narrow", "intpoly.py",
     "nb = bits // 8 + 1", "nb = max(bits // 8, 1)"),
    ("Kronecker slot without room for the sum", "intpoly.py",
     "    bits += (inner * min(la, lb)).bit_length()\n", ""),
    ("Kronecker slot sized by one pair's dim, not K", "jets.py",
     "nb = slot_bytes(bits, inner,", "nb = slot_bytes(bits, dim,"),
    ("sum of products: per-pair denominator scale dropped", "jets.py",
     "fs = [den // p for p in ps]", "fs = [1 for p in ps]"),
    ("Newton middle product cut at k, not k + 1", "jets.py",
     "e = _sum_of_products([(a0.truncate(k2), lifted)], k + 1)",
     "e = _sum_of_products([(a0.truncate(k2), lifted)], k)"),
    ("Newton correction shifted by k, not k + 1", "jets.py",
     "x = lifted - _shifted(x * e, k + 1)", "x = lifted - _shifted(x * e, k)"),
    ("log_derivative correction shifted by h, not h + 1", "jets.py",
     "mul(_shifted(r, -cut), x_h), cut)", "mul(_shifted(r, -cut), x_h), cut - 1)"),
    ("sum of products: orders from the first pair only", "jets.py",
     "        xo, to = _omin(_omin(xo,",
     "        if not dens:\n            xo, to = _omin(_omin(xo,"),
    ("pack cache key without the slot width", "jets.py",
     'key = (nb, nx) if self.kind == "jet" else (nb, nx, nt, stride)',
     'key = nx if self.kind == "jet" else (nx, nt, stride)'),
    ("bi-jet pack key without the stride", "jets.py",
     'else (nb, nx, nt, stride)', 'else (nb, nx, nt)'),
    ("jet packed cut to its first product's order, then reused", "jets.py",
     'key = (nb, nx) if self.kind == "jet"', 'key = nb if self.kind == "jet"'),
    ("constancy ignores off-diagonal entries", "jets.py",
     "\n                        and heads.count(0) == len(heads) - dim * bool(c)):", "):"),
    ("constancy reads a finite-order tail as constant", "jets.py",
     "if (nonzero == len(heads) - heads.count(0) and heads", "if (heads"),
    ("constant pair added without its scale f_p", "jets.py",
     "k = den // p * c", "k = c"),
    ("equality drops the other side's denominator scale", "jets.py",
     "fa, fb = other.den // g, self.den // g", "fa, fb = 1, self.den // g"),
    ("equality stops at the shorter operand's levels", "jets.py",
     "range(max(len(ea), len(eb)) if to is None", "range(min(len(ea), len(eb)) if to is None"),
    ("equality ignores the longer x-level's tail", "jets.py",
     "if len(a) > len(b) and any(a[len(b):]):", "if False:"),
    ("exact-zero test ignores the orders", "jets.py",
     "return self.x_order is None and self.t_order is None and self.is_zero()",
     "return self.is_zero()"),
    ("0 - m returns m", "jets.py",
     "m = other if op is operator.add else -other", "m = other"),
    ("pack without the xor", "intpoly.py",
     'return (int.from_bytes(data, "little") ^ bias) - bias',
     'return int.from_bytes(data, "little") - bias'),
    ("unpack without the xor", "intpoly.py",
     "v = (((v + bias) & ((1 << (8 * nb * n)) - 1)) ^ bias) >> (8 * nb * low)",
     "v = ((v + bias) & ((1 << (8 * nb * n)) - 1)) >> (8 * nb * low)"),
    ("time_propagate divides by m + 2", "darboux.py",
     "Fraction(1, m + 1)", "Fraction(1, m + 2)"),
    ("larger MAX_TERMS", "free.py",
     "MAX_TERMS = 2**14", "MAX_TERMS = 2**15"),
    ("free product by c e: the other operand returned for any c", "free.py",
     "return x if k == c.den == 1 else", "return x if True else"),
    ("free product by c e: the constant's denominator dropped", "free.py",
     "x.den * c.den))", "x.den))"),
    ("free product: an operand with a constant term taken for c e", "free.py",
     "if len(c.nums) == 1 and () in c.nums:", "if () in c.nums:"),
    ("free star without the word reversal", "free.py",
     "x ^ STAR_BIT for x in w[::-1]", "x ^ STAR_BIT for x in w"),
    ("free d bumps only the first letter", "free.py",
     "for i in range(len(w)):", "for i in range(len(w[:1])):"),
    ("free lowest-terms reduction dropped", "free.py",
     "g = gcd(den, *nums.values())", "g = 1"),
    ("free derivation budget off", "free.py",
     "if letters > MAX_LETTERS:", "if False:"),
    ("derivation bound counts words, not letters", "free.py",
     "return sum(len(w) * min(", "return sum(min("),
    ("derivation bound without the cap on merged words", "free.py",
     "min(n * comb(j + len(w) - 1, len(w) - 1),", "max(n * comb(j + len(w) - 1, len(w) - 1),"),
    ("parser: D^k refused only derivation by derivation", "parsing.py",
     "if power > 1 and isinstance(v, FreeElement):", "if False:"),
    ("free derivative count carries into the next field", "free.py",
     "if any(x & full == full for x", "if False and any(x & full == full for x"),
    ("transform's intertwining check off", "darboux.py",
     "certify(defect, expected,", "certify(defect, defect,"),
    ("transform's Burgers check off", "darboux.py",
     "certify(rhs, expected,", "certify(rhs, rhs,"),
    ("intertwine_defect accepts order 1", "darboux.py",
     "(left.coeff(0),) + right.coeffs[1:]", "(left.coeff(0), left.coeff(1)) + right.coeffs[2:]"),
    ("divide_left coefficient check off", "division.py",
     "    certify(make_ls(s).compose(quotient)", "    (make_ls(s).compose(quotient)"),
    ("divide_left remainder check off", "division.py",
     "DiffOperator([remainder], L.realization), L,",
     "DiffOperator([L.coeff(0) - make_ls(s).compose(quotient).coeff(0)], L.realization), L,"),
    ("divide_left certificate compares with L's coefficient one power down", "division.py",
     "DiffOperator([remainder], L.realization), L,",
     "DiffOperator([remainder], L.realization), "
     "DiffOperator((L.realization.zero,) + L.coeffs, L.realization),"),
    ("mismatch starts at D^1", "operators.py",
     "for k in range(n) if not", "for k in range(1, n) if not"),
    ("mismatch compares with the other's coefficient one power down", "operators.py",
     "self.coeff(k) == other.coeff(k)", "self.coeff(k) == other.coeff(k - 1)"),
    ("mismatch scans only the shorter operator", "operators.py",
     "n = max(len(self.coeffs), len(other.coeffs))\n        return next(",
     "n = min(len(self.coeffs), len(other.coeffs))\n        return next("),
    ("certify never raises for operators", "operators.py",
     "        if k is not None:\n            raise error(", "        if False:\n            raise error("),
    ("certify never raises for elements", "operators.py",
     "    elif not (lhs == rhs):", "    elif False:"),
    ("push: carried c_(m-1) dropped", "operators.py",
     "[c.d() + prev for prev, c in", "[c.d() for prev, c in"),
    ("push: top coefficient differentiated", "operators.py",
     "+ [coeffs[-1]]", "+ [coeffs[-1].d()]"),
    ("compose: a * c swapped to c * a", "operators.py",
     "dot((a, t[m]) for a, t in", "dot((t[m], a) for a, t in"),
    ("dot, free ring: a * b swapped to b * a", "operators.py",
     "reduce(add, (a * b for a, b in pairs))", "reduce(add, (b * a for a, b in pairs))"),
    ("dot, free ring: first pair dropped", "operators.py",
     "reduce(add, (a * b for a, b in pairs))", "reduce(add, (a * b for a, b in pairs[1:]))"),
    ("Bell row: B_m subtracted", "bell.py",
     "row[0] = row[0] + self.left(len(self._rows))",
     "row[0] = row[0] - self.left(len(self._rows))"),
    ("Bell row: B_m added at the top slot", "bell.py",
     "row[0] = row[0] + self.left(len(self._rows))",
     "row[-1] = row[-1] + self.left(len(self._rows))"),
    ("ls_apply: s * u swapped to u * s", "operators.py",
     "return u.d() - s * u", "return u.d() - u * s"),
    ("factor_from_kernel premise check off", "division.py",
     "certify(L.apply(phi), phi.zero_like(),", "certify(L.apply(phi), L.apply(phi),"),
    ("factor_from_kernel right exactness check off", "division.py",
     "certify(outcome.remainder, outcome.remainder.zero_like(),",
     'certify(outcome.remainder, outcome.remainder if side == "right" else '
     "outcome.remainder.zero_like(),"),
    ("factor_from_kernel left exactness check off", "division.py",
     "certify(outcome.remainder, outcome.remainder.zero_like(),",
     'certify(outcome.remainder, outcome.remainder if side == "left" else '
     "outcome.remainder.zero_like(),"),
    ("matveev ok ignores the residual", "darboux.py",
     "ok = residual.is_zero() and burgers_residual.is_zero()",
     "ok = burgers_residual.is_zero()"),
    ("matveev ok ignores the Burgers residual", "darboux.py",
     "ok = residual.is_zero() and burgers_residual.is_zero()", "ok = residual.is_zero()"),
    ("verify-matveev exits 0 on a failed check", "cli.py",
     "0 if report.ok else 1", "0"),
    ("closed formula drops the pairs with n > k + 2", "darboux.py",
     "for n in range(k + 1, n_top + 1):", "for n in range(k + 1, min(n_top, k + 2) + 1):"),
    ("transformed_coefficients: first pair (a_k, B_(k,0)) dropped", "darboux.py",
     "        yield L.coeff(k), table.gen(k, 0)\n", ""),
    ("JSON word: every letter written as the word's first", "cli.py",
     '{", ".join(map(letter, word))}', '{", ".join(letter(word[0]) for _ in word)}'),
    ("JSON word: letters separated by ',' for ', '", "cli.py",
     '{", ".join(map(letter, word))}', '{",".join(map(letter, word))}'),
    ("JSON letter: non-ASCII names not escaped", "cli.py",
     "json.dumps(letter._asdict())", "json.dumps(letter._asdict(), ensure_ascii=False)"),
    ("printer: zero fill past a short level dropped", "cli.py",
     "return e[t][k] if t < len(e) and k < len(e[t]) else 0", "return e[t][k]"),
    ("tokenizer: operator tokens given the kind OP", "parsing.py",
     '(token if kind == "OP" else kind, token,', "(kind, token,"),
    ("parser: negative sum term added with its sign dropped", "parsing.py",
     "if sign < 0:", "if False:"),
    ("parser: a scalar term added with its sign dropped", "parsing.py",
     "if sign < 0:", "if sign < 0 and not isinstance(piece, Fraction):"),
    ("parser: a number before a ring element dropped from the sum", "parsing.py",
     "total = piece + one * total", "total = piece"),
    ("parser: c^k formed as c*k", "parsing.py",
     "return b ** exponent", "return b * exponent"),
    ("parser: binary powering skips the last squaring", "parsing.py",
     "if k:\n                    b = b * b", "if k > 1:\n                    b = b * b"),
    ("parser: D0 applied as D", "parsing.py",
     'if name == "D" else v.d0()', 'if name == "D" else v.d()'),
    ("initial-condition one left exact", "parsing.py",
     "one = MatrixJet.identity(1).truncate(x_order)", "one = MatrixJet.identity(1)"),
    ("unlisted initial-condition entry left exact", "parsing.py",
     "[[MatrixJet.zeros(1).truncate(x_order)] * dim", "[[MatrixJet.zeros(1)] * dim"),
    ("matrix constructor keeps each cell's own denominator", "jets.py",
     "[[_scaled(c.nums, den // c.den)[0][0] for c in row]", "[[c.nums[0][0] for c in row]"),
    ("matrix constructor accepts a cell of any dimension", "jets.py",
     "isinstance(c, MatrixJet) and c.dim == 1", "isinstance(c, MatrixJet)"),
    ("Jet keeps coefficients past its order", "jets.py",
     "nums = _fit(nums, order + 1)", "nums = _fit(nums, max(order + 1, len(nums)))"),
    ("from_t_levels accepts an empty level list", "jets.py",
     "        if not levels:\n", "        if False:\n"),
    ("scale accepts an operand of any type", "operators.py",
     "if not isinstance(c, (MatrixJet, FreeElement)):", "if False:"),
    ("truncate accepts a negative order", "jets.py",
     "if min(x_order or 0, t_order or 0) < 0:", "if False:"),
    ("coefficient reads entry (j, i)", "jets.py",
     "e = self.nums[i][j]", "e = self.nums[j][i]"),
    ("number-power bit bound off", "parsing.py",
     "if exponent * bits > _MAX_NUMBER_POWER_BITS:", "if False:"),
]


def _check_targets():
    """Exit with status 2 unless every target occurs exactly once in its file."""
    bad = []
    for name, rel, old, _ in MUTANTS:
        n = (ROOT / "src" / "bellops" / rel).read_text().count(old)
        if n != 1:
            bad.append(f"{name}: target found {n} times in src/bellops/{rel}: {old!r}")
    if bad:
        print("mutant targets do not match the source:", *bad, sep="\n  ", file=sys.stderr)
        sys.exit(2)


def _tier1(copy: Path) -> tuple:
    """(passed, seconds) of a tier-1 run in ``copy``."""
    # no bytecode: a restored file can keep the size and mtime of its mutant
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(PYTEST, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    # each run starts without the examples another mutant made fail
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    return done.returncode == 0, time.perf_counter() - start


def main():
    _check_targets()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="bellops-mutants-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, copy / item, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(src, copy / item)
        passed, seconds = _tier1(copy)
        print(f"unmutated copy: {'passes' if passed else 'FAILS'} ({seconds:.1f} s)", flush=True)
        if not passed:
            sys.exit(2)
        for name, rel, old, new in MUTANTS:
            path = copy / "src" / "bellops" / rel
            original = path.read_text()
            path.write_text(original.replace(old, new))
            passed, seconds = _tier1(copy)
            path.write_text(original)
            print(f"{'SURVIVED' if passed else 'killed  '} {seconds:6.1f} s  {name}", flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
