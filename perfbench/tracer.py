"""Span tracer that wraps bellops' public functions from outside the package.

`Tracer.install` replaces each traced function, on its class or module and on
every module global of the package that binds the same object, with a wrapper
that records one span per call: name, start, end, parent span and operation
id.  Spans are kept in flat arrays and reduced to per-layer ``calls`` and
``self_s`` (duration minus the time covered by child spans) when the run ends.
`Tracer.uninstall` puts the original functions back.

Two counts are taken at the jets boundary, from the operands and result of
each series product: ``jets.coeff_products`` (schoolbook coefficient products
implied by the operand lengths) and ``jets.coeff_max_bits`` (largest
numerator-plus-denominator bit size of a product coefficient).  They are taken
after the product's span has closed; the time they take is recorded on the
enclosing span (``counting``) and left out of its self time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

# (layer name, module, class or None, attribute): every function bound to the
# attribute is traced under the layer name.
TARGETS = (
    ("jets.Jet.mul", "jets", "Jet", "__mul__"),
    ("jets.Jet.add", "jets", "Jet", "__add__"),
    ("jets.Jet.d", "jets", "Jet", "d"),
    ("jets.BiJet.mul", "jets", "BiJet", "__mul__"),
    ("jets.BiJet.add", "jets", "BiJet", "__add__"),
    ("jets.BiJet.dx", "jets", "BiJet", "dx"),
    ("jets.BiJet.dt", "jets", "BiJet", "dt"),
    ("jets.MatrixJet.mul", "jets", "MatrixJet", "__mul__"),
    ("jets.MatrixJet.add", "jets", "MatrixJet", "__add__"),
    ("jets.MatrixJet.invert", "jets", "MatrixJet", "invert"),
    ("jets.log_derivative", "jets", None, "log_derivative"),
    ("bell.BellTable.left", "bell", "BellTable", "left"),
    ("bell.BellTable.right", "bell", "BellTable", "right"),
    ("bell.BellTable.gen", "bell", "BellTable", "gen"),
    ("bell.BellTable.h", "bell", "BellTable", "h"),
    ("operators.DiffOperator.compose", "operators", "DiffOperator", "compose"),
    ("operators.DiffOperator.apply", "operators", "DiffOperator", "apply"),
    ("operators.DiffOperator.scale", "operators", "DiffOperator", "scale"),
    ("division.divide_right", "division", None, "divide_right"),
    ("division.divide_left", "division", None, "divide_left"),
    ("division.factor_from_kernel", "division", None, "factor_from_kernel"),
    ("darboux.darboux_transform", "darboux", None, "darboux_transform"),
    ("darboux.intertwine_defect", "darboux", None, "intertwine_defect"),
    ("darboux.burgers_rhs", "darboux", None, "burgers_rhs"),
    ("darboux.time_propagate", "darboux", None, "time_propagate"),
    ("darboux.matveev_verify", "darboux", None, "matveev_verify"),
    ("free.FreeElement.mul", "free", "FreeElement", "__mul__"),
    ("free.FreeElement.add", "free", "FreeElement", "__add__"),
    ("free.FreeElement.d", "free", "FreeElement", "d"),
    ("parsing.parse_element", "parsing", None, "parse_element"),
    ("parsing.parse_operator_text", "parsing", None, "parse_operator_text"),
    ("parsing.parse_entry_text", "parsing", None, "parse_entry_text"),
    ("cli.run_command", "cli", None, "run_command"),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


def _pairs(la: int, lb: int, n: int) -> int:
    """Index pairs (i, j) with i < la, j < lb and i + j < n."""
    total = 0
    for k in range(n):
        lo, hi = max(0, k - lb + 1), min(k, la - 1)
        if hi >= lo:
            total += hi - lo + 1
    return total


def _fraction_bits(c: Fraction) -> int:
    return c.numerator.bit_length() + c.denominator.bit_length()


def _omin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Tracer:
    """Records spans for the wrapped functions while `active` is true."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_counting = array("d")  # time spent counting child products
        self.coeff_products = 0
        self.coeff_max_bits = 0
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original) to restore

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target on its owner and on every bellops global bound to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bellops" or name.startswith("bellops."))]
        for name_id, (name, module, cls, attr) in enumerate(TARGETS):
            owner_module = sys.modules[f"bellops.{module}"]
            owner = getattr(owner_module, cls) if cls else owner_module
            original = owner.__dict__[attr]
            wrapper = self._wrap(name_id, name, original)
            # aliases such as `__radd__ = __add__` share the function object
            owners = [owner] if cls else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()

    def _wrap(self, name_id: int, name: str, fn):
        tracer = self
        counter = _PRODUCT_COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            tracer.span_counting.append(0.0)
            tracer._stack.append(span)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[span] = clock()
                tracer._stack.pop()
            if counter is not None and result is not NotImplemented:
                c0 = clock()
                products, bits = counter(args[0], args[1], result)
                tracer.coeff_products += products
                if bits > tracer.coeff_max_bits:
                    tracer.coeff_max_bits = bits
                parent = tracer._stack[-1]
                if parent >= 0:
                    tracer.span_counting[parent] += clock() - c0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start, end, parent index, operation id
        and the benchmark's own counting time inside it."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "name": SPAN_NAMES[self.span_name[i]], "start": self.span_start[i],
                    "end": self.span_end[i], "parent": self.span_parent[i],
                    "op": self.span_op[i], "counting": self.span_counting[i]}) + "\n")

    def layer_totals(self):
        """{name: (calls, self seconds)} for every traced name, zero if never reached.

        Self time is duration minus child spans minus the counting done in the span.
        """
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i] - self.span_counting[i]
        return {SPAN_NAMES[k]: (calls[k], self_s[k]) for k in range(len(TARGETS))}


# -- coefficient-product counts ----------------------------------------------------


def _jet_product(a, b, result):
    if isinstance(b, (int, Fraction)):
        return len(a.coeffs), max(map(_fraction_bits, result.coeffs))
    la, lb = len(a.coeffs), len(b.coeffs)
    o = _omin(a.order, b.order)
    n = la + lb - 1 if o is None else o + 1
    return _pairs(la, lb, n), max(map(_fraction_bits, result.coeffs))


def _bijet_product(a, b, result):
    bits = max(_fraction_bits(c) for row in result.coeffs for c in row)
    la, wa = len(a.coeffs), len(a.coeffs[0])
    if isinstance(b, (int, Fraction)):
        return la * wa, bits
    if not hasattr(b, "t_order"):  # a one-variable jet, embedded t-constant
        lb, wb, bx, bt = len(b.coeffs), 1, b.order, None
    else:
        lb, wb, bx, bt = len(b.coeffs), len(b.coeffs[0]), b.x_order, b.t_order
    xo, to = _omin(a.x_order, bx), _omin(a.t_order, bt)
    nx = la + lb - 1 if xo is None else xo + 1
    nt = wa + wb - 1 if to is None else to + 1
    return _pairs(la, lb, nx) * _pairs(wa, wb, nt), bits


_PRODUCT_COUNTERS = {"jets.Jet.mul": _jet_product, "jets.BiJet.mul": _bijet_product}
