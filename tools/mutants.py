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
     "term = ls_apply(a_n, s) * table.left(n)", "term = table.left(n) * ls_apply(a_n, s)"),
    ("apply operands swapped", "operators.py",
     "acc = acc + a * deriv", "acc = acc + deriv * a"),
    ("star without the reflection", "jets.py",
     "[[[[-v if k % 2 else v for k, v in enumerate(lv)]", "[[[[v for k, v in enumerate(lv)]"),
    ("Kronecker slot one byte too narrow", "intpoly.py",
     "nb = bits // 8 + 1", "nb = max(bits // 8, 1)"),
    ("Kronecker slot without room for the sum", "intpoly.py",
     "nb = _slot_bytes(bits + (dim * min(la, lb)).bit_length())", "nb = _slot_bytes(bits)"),
    ("time_propagate divides by m + 2", "darboux.py",
     "Fraction(1, m + 1)", "Fraction(1, m + 2)"),
    ("larger MAX_TERMS", "free.py",
     "MAX_TERMS = 2**14", "MAX_TERMS = 2**15"),
    ("transform's intertwining check off", "darboux.py",
     "    if not (defect == expected):", "    if False:"),
    ("transform's Burgers check off", "darboux.py",
     "    if not (rhs == expected):", "    if False:"),
    ("intertwine_defect accepts order 1", "darboux.py",
     "if order > 0:", "if order > 1:"),
    ("divide_left coefficient check off", "division.py",
     "        if not (_alternating_sum(powers, n) == b[n]):", "        if False:"),
    ("divide_left remainder check off", "division.py",
     "    if not (_alternating_sum(powers, -1) == remainder):", "    if False:"),
    ("push: carried c_(m-1) dropped", "operators.py",
     "[c.d() + prev for prev, c in", "[c.d() for prev, c in"),
    ("push: top coefficient differentiated", "operators.py",
     "+ [coeffs[-1]]", "+ [coeffs[-1].d()]"),
    ("compose: a * c swapped to c * a", "operators.py",
     "[acc + a * c for acc, c in", "[acc + c * a for acc, c in"),
    ("Bell row: B_m subtracted", "bell.py",
     "row[0] = row[0] + self.left(len(self._rows))",
     "row[0] = row[0] - self.left(len(self._rows))"),
    ("Bell row: B_m added at the top slot", "bell.py",
     "row[0] = row[0] + self.left(len(self._rows))",
     "row[-1] = row[-1] + self.left(len(self._rows))"),
    ("ls_apply: s * u swapped to u * s", "operators.py",
     "return u.d() - s * u", "return u.d() - u * s"),
    ("factor_from_kernel premise check off", "division.py",
     "        if not image.is_zero():", "        if False:"),
    ("factor_from_kernel right exactness check off", "division.py",
     "        if not outcome.exact:\n            raise ConsistencyError(",
     "        if False:\n            raise ConsistencyError("),
    ("factor_from_kernel left exactness check off", "division.py",
     "        if not outcome.exact:\n            raise KernelPremiseViolatedError(",
     "        if False:\n            raise KernelPremiseViolatedError("),
    ("matveev ok ignores the residual", "darboux.py",
     "ok = residual.is_zero() and burgers_residual.is_zero()",
     "ok = burgers_residual.is_zero()"),
    ("matveev ok ignores the Burgers residual", "darboux.py",
     "ok = residual.is_zero() and burgers_residual.is_zero()", "ok = residual.is_zero()"),
    ("verify-matveev exits 0 on a failed check", "cli.py",
     "0 if report.ok else 1", "0"),
    ("coefficient audit never reports a mismatch", "darboux.py",
     "        if not (formula.coeff(k) == oracle.coeff(k)):", "        if False:"),
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
