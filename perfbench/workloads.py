"""Seeded inputs, timed operations and result checks for the four workloads.

Each workload turns a seed into a list of input items (`make_items`), runs one
item as one operation (`run`, which times only the calls into bellops and
returns the outputs with the (start, end) of each call), checks an operation's outputs
outside the timed region (`check` raises `CheckFailed`), by a route
independent of the one that computed them, and hashes them canonically
(`output_digest`).  Items are cycled in order, so an item index names the same
input on every run with the same seed.

bellops is called through module attributes (`bellops.divide_right`,
`cli.run_command`), never through names bound here, so the tracer's wrappers
on those attributes see every call.  `src/` must be on `sys.path`.
"""

from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction
from types import SimpleNamespace
from time import perf_counter

import bellops
from bellops import cli, darboux, division, free, jets, operators

FREE_GENS = ("s", "u", "a0", "a1", "a2", "a3", "a4")
DEEP_NESTING = 3000


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Workload:
    """Defaults shared by the workloads."""

    def known_failure(self, item):
        """The exception type a known defect of bellops raises on `item`, or None.

        Such a raise counts as a failed operation; any other raise is a wrong answer.
        """
        return None


class CheckFailed(Exception):
    """An output did not pass the benchmark's check."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def cli_call(argv):
    """One timed `run_command` call: ((start, end), exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    code = cli.run_command(argv, out, err)
    return (t0, perf_counter()), code, out.getvalue(), err.getvalue()


def timed(fn, *args):
    """((start, end), value) of one call."""
    t0 = perf_counter()
    value = fn(*args)
    return (t0, perf_counter()), value


# -- shared input helpers and checks -----------------------------------------------


def random_matrix(rng, dim, order, lo=-3, hi=3):
    Jet = jets.Jet
    return jets.MatrixJet(
        [[Jet([rng.randint(lo, hi) for _ in range(order + 1)], order) for _ in range(dim)]
         for _ in range(dim)]
    )


def check_division(L, s, outcome, side):
    """Rebuild L from quotient and remainder by operator composition."""
    ls = operators.make_ls(s)
    q = outcome.quotient
    product = q.compose(ls) if side == "right" else ls.compose(q)
    rebuilt = product + operators.DiffOperator([outcome.remainder], L.realization)
    require(rebuilt == L, f"{side} division does not rebuild L")
    require(outcome.exact == outcome.remainder.is_zero(), f"{side} division exact flag")


def bracket_defect(r, s):
    """Dr + [r, s], the order-0 intertwining defect for remainder r."""
    return r.d() + (r * s - s * r)


# -- jet_darboux -----------------------------------------------------------------------


class JetDarboux(Workload):
    """Dense 3x3 order-5 operators at x-order 24: both divisions and the transform."""

    name = "jet_darboux"
    items_per_seed = 12
    pass_len = 1  # operations in one pass of the mix
    trace_rate = 2 / 30  # traced operations per requested second: two at 30 s
    kinds = ("divide_right", "divide_left", "darboux")
    dim, order, x_order = 3, 5, 24

    def make_items(self, rng, workdir):
        items = []
        for _ in range(self.items_per_seed):
            coeffs = [random_matrix(rng, self.dim, self.x_order) for _ in range(self.order + 1)]
            items.append((operators.DiffOperator(coeffs), random_matrix(rng, self.dim, self.x_order)))
        return items

    def run(self, item):
        L, s = item
        t_right, right = timed(bellops.divide_right, L, s)
        t_left, left = timed(bellops.divide_left, L, s)
        t_tr, tr = timed(bellops.darboux_transform, L, s)
        times = {"divide_right": t_right, "divide_left": t_left, "darboux": t_tr}
        return (right, left, tr), times

    def check(self, item, outputs):
        L, s = item
        right, left, tr = outputs
        check_division(L, s, right, "right")
        check_division(L, s, left, "left")
        expected = bracket_defect(right.remainder, s)
        require(tr.remainder == right.remainder, "transform remainder differs from division")
        require(tr.intertwine_defect == expected, "intertwine defect is not Dr + [r, s]")
        require(tr.burgers_rhs == expected, "Burgers RHS is not Dr + [r, s]")
        top = L.order
        require(tr.transformed.order == top and tr.transformed.coeff(top) == L.coeff(top),
                "transform changed the order or the leading coefficient")

    def output_digest(self, item, outputs):
        right, left, tr = outputs
        return digest({
            "right": [cli.operator_json(right.quotient), cli.element_json(right.remainder)],
            "left": [cli.operator_json(left.quotient), cli.element_json(left.remainder)],
            "transformed": cli.operator_json(tr.transformed),
        })


# -- jet_series_long ---------------------------------------------------------------------


class JetSeriesLong(Workload):
    """factor_from_kernel on exp(lambda x) kernels at x-order 160, both sides."""

    name = "jet_series_long"
    items_per_seed = 24
    kinds = ("factor",)
    trace_rate = 6 / 30  # one pass at 30 s
    x_order = 160
    # (matrix dimension, side); scalar kernels twice as often as diagonal 2x2 ones
    pattern = ((1, "right"), (1, "left"), (2, "right"), (1, "left"), (1, "right"), (2, "left"))
    pass_len = len(pattern)

    def make_items(self, rng, workdir):
        items = []
        for i in range(self.items_per_seed):
            dim, side = self.pattern[i % len(self.pattern)]
            # one size class for every seed: |numerator| 11 or 13, denominator 8 or 9
            lam = Fraction(rng.choice((-1, 1)) * rng.choice((11, 13)), rng.choice((8, 9)))
            phi = jets.MatrixJet.diagonal(jets.exp_jet(lam, self.x_order), dim)
            real = phi.realization
            c0 = jets.MatrixJet.constant(
                [[-lam * lam if i == j else 0 for j in range(dim)] for i in range(dim)])
            L = operators.DiffOperator([c0, real.zero, real.one], real)
            items.append((L, phi, side, lam))
        return items

    def run(self, item):
        L, phi, side, _ = item
        span, (s, outcome) = timed(bellops.factor_from_kernel, L, phi, side)
        return (s, outcome), {"factor": span}

    def check(self, item, outputs):
        L, phi, side, lam = item
        s, outcome = outputs
        require(outcome.exact, "kernel factorization is not exact")
        rate = lam if side == "right" else -lam
        expected = jets.MatrixJet.constant(
            [[rate if i == j else 0 for j in range(phi.dim)] for i in range(phi.dim)])
        require(s == expected, f"factor element is not {rate}")
        check_division(L, s, outcome, side)

    def output_digest(self, item, outputs):
        s, outcome = outputs
        return digest([cli.element_json(s), cli.operator_json(outcome.quotient),
                       cli.element_json(outcome.remainder)])


# -- matveev_bijet -------------------------------------------------------------------------


def signed_sum(terms):
    """Render (coefficient, monomial text) pairs in the expression grammar,
    which has a unary minus only in front of the whole sum."""
    text = ""
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += f" {'-' if c < 0 else '+'} {body}"
    return text or "0"


def poly_text(coeffs, var="x"):
    """sum c_k var^k."""
    return signed_sum((c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
                      for k, c in enumerate(coeffs) if c != 0)


class MatveevBiJet(Workload):
    """verify-matveev through the CLI on 2x2 bi-jets over a grid of orders."""

    name = "matveev_bijet"
    trace_rate = 8 / 30  # one pass over the grid at 30 s
    kinds = ("matveev",)
    dim = 2
    # (operator order, x-order, t-order), each leaving a nonempty valid range
    # (x-order >= order * (t-order + 1) + 2); every run cycles through all of them
    grid = ((2, 16, 3), (2, 16, 6), (2, 20, 4), (2, 24, 5),
            (3, 16, 3), (3, 20, 5), (3, 24, 4), (3, 24, 6))

    @property
    def pass_len(self):
        return len(self.grid)

    def make_items(self, rng, workdir):
        items = []
        # a seed picks signs only, so every seed costs the same
        for idx, (n, x_order, t_order) in enumerate(self.grid):
            op = [f"a[{n}] = 1"]
            for k in range(n - 1, -1, -1):
                op.append(f"a[{k}] = " + poly_text([rng.choice((-2, 2)) for _ in range(2)]))
            files = {f"op{idx}.op": "\n".join(op) + "\n"}
            for which in ("phi", "psi"):
                lines = []
                for i in range(self.dim):
                    for j in range(self.dim):
                        const = 3 if i == j else rng.choice((-1, 1))
                        tail = [Fraction(rng.choice((-3, 3)), 2) for _ in range(3)]
                        lines.append(f"entry[{i}][{j}] = " + poly_text([const] + tail))
                files[f"{which}{idx}.ic"] = "\n".join(lines) + "\n"
            for fname, text in files.items():
                (workdir / fname).write_text(text, encoding="utf-8")
            argv = ["--ring", "jet", "--dim", str(self.dim), "--x-order", str(x_order),
                    "verify-matveev", str(workdir / f"op{idx}.op"),
                    "--phi0", str(workdir / f"phi{idx}.ic"),
                    "--psi0", str(workdir / f"psi{idx}.ic"), "--t-order", str(t_order)]
            items.append(argv)
        return items

    def run(self, argv):
        span, code, out, err = cli_call(argv)
        return (code, out, err), {"matveev": span}

    def check(self, argv, outputs):
        code, out, err = outputs
        require(code == 0, f"verify-matveev exited {code}: {err.strip()}")
        lines = out.splitlines()
        require("residual-zero: yes" in lines and "burgers-zero: yes" in lines,
                "verify-matveev residuals are not zero")
        require(err == "", "verify-matveev wrote to stderr")

    def output_digest(self, argv, outputs):
        code, out, _ = outputs
        return digest([code, out])


# -- free_symbolic ------------------------------------------------------------------------

# one deck of calls: 57 well-formed and 3 malformed (5%), shuffled per deck
FREE_DECK = (
    ("bell_left",) * 5 + ("bell_right",) * 5 + ("bell_gen",) * 5 + ("darboux",) * 12
    + ("divide_right",) * 9 + ("divide_left",) * 9
    + ("factor_right",) * 6 + ("factor_left",) * 6
    + ("usage_error", "syntax_error", "deep_nesting")
)
FREE_DECKS = 4


# per deck and kind, the sizes each occurrence gets: a seed picks letters and
# signs, not sizes, so every deck costs about the same
BELL_SIZES = ((1, 4), (1, 8), (1, 10), (1, 12), (2, 6))  # (terms of s, n)
GEN_SIZES = ((1, 4), (1, 6), (1, 8), (1, 10), (2, 5))
OPERATOR_ORDERS = (1, 2, 3, 4, 5)


def free_element_spec(rng, lengths, max_d):
    """{word: coefficient}: one word per length in `lengths`, all letters on
    distinct generators (so no two words merge), each letter starred with
    probability 0.2 and differentiated 0..max_d times."""
    gens = iter(rng.sample(FREE_GENS, sum(lengths)))
    spec = {}
    for length in lengths:
        word = tuple((next(gens), rng.random() < 0.2, rng.randint(0, max_d))
                     for _ in range(length))
        spec[word] = rng.choice((-2, -1, 1, 2))
    return spec


def letter_source(gen, star, d):
    core = gen + ("*'" if star else "")
    if d == 0:
        return core
    return f"D({core})" if d == 1 else f"D^{d}({core})"


def spec_text(spec):
    return signed_sum((c, "*".join(letter_source(*letter) for letter in word))
                      for word, c in sorted(spec.items()))


def spec_element(ring, spec):
    Letter = free.Letter
    terms = {}
    for word, c in spec.items():
        key = tuple(Letter(g, star, 0, d) for g, star, d in word)
        terms[key] = terms.get(key, Fraction(0)) + c
    return free.FreeElement(ring, terms)


def json_element(ring, payload):
    Letter = free.Letter
    terms = {}
    for term in payload["terms"]:
        word = tuple(Letter(l["gen"], l["star"], l["d0"], l["d"]) for l in term["word"])
        terms[word] = Fraction(term["coeff"])
    return free.FreeElement(ring, terms)


def json_operator(ring, payload):
    coeffs = [json_element(ring, c) for c in payload["coeffs"]]
    return operators.DiffOperator(coeffs, ring)


class FreeSymbolic(Workload):
    """Free-ring CLI calls: bell, darboux, divide and factor-check, 5% malformed."""

    name = "free_symbolic"
    pass_len = len(FREE_DECK)
    trace_rate = 10.0  # five decks at 30 s
    kinds = ("cli",)

    def make_items(self, rng, workdir):
        items = []
        for deck in range(FREE_DECKS):
            kinds = list(FREE_DECK)
            rng.shuffle(kinds)
            seen = {}
            for kind in kinds:
                occurrence = seen[kind] = seen.get(kind, -1) + 1
                items.append(self._make(rng, kind, occurrence, workdir, len(items)))
        return items

    def _make(self, rng, kind, occurrence, workdir, idx):
        gens = ["--gens", ",".join(FREE_GENS), "--output", "json"]
        if kind.startswith("bell"):
            side = kind[len("bell_"):]
            sizes = GEN_SIZES if side == "gen" else BELL_SIZES
            terms, n = sizes[occurrence % len(sizes)]
            spec = free_element_spec(rng, (1,) * terms, 1)
            argv = gens + ["bell", "--side", side, "--n", str(n), "--s=" + spec_text(spec)]
            meta = {"s": spec, "n": n, "side": side}
            if side == "gen":
                meta["k"] = rng.randint(0, n)
                argv += ["--k", str(meta["k"])]
            return {"kind": "bell", "argv": argv, **meta}
        if kind in ("usage_error", "syntax_error", "deep_nesting"):
            return self._malformed(rng, kind, workdir, idx, gens)
        order = OPERATOR_ORDERS[occurrence % len(OPERATOR_ORDERS)]
        op = [free_element_spec(rng, (1, 2), 2) for _ in range(order + 1)]
        if occurrence % 2 == 0:
            op[-1] = {(): 1}
        s = free_element_spec(rng, (1, 1), 1)
        path = workdir / f"free{idx}.op"
        path.write_text("".join(f"a[{k}] = {spec_text(c)}\n" for k, c in enumerate(op)),
                        encoding="utf-8")
        if kind == "darboux":
            argv = gens + ["darboux", str(path), "--s=" + spec_text(s)]
            side = "right"
        else:
            command, side = kind.split("_")
            command = "factor-check" if command == "factor" else command
            argv = gens + [command, "--side", side, str(path), "--s=" + spec_text(s)]
        return {"kind": kind.split("_")[0], "argv": argv, "op": op, "s": s, "side": side}

    def _malformed(self, rng, kind, workdir, idx, gens):
        if kind == "usage_error":
            argv = rng.choice((
                ["bell", "--side", "sideways", "--n", "3"],
                ["bell", "--n", "2"],
                ["--ring", "ring", "bell", "--side", "left", "--n", "2"],
                ["bell", "--side", "left", "--n", "two"],
                ["divide", "--side", "left"],
            ))
            return {"kind": "malformed", "argv": gens + argv, "expect": 2}
        if kind == "syntax_error":
            if rng.random() < 0.5:
                bad = rng.choice(("s+*u", "(s + u", "D(s", "s^", "q*s", "s u"))
                argv = ["bell", "--side", "left", "--n", "2", "--s=" + bad]
            else:
                path = workdir / f"bad{idx}.op"
                path.write_text(rng.choice(("a[x] = s\n", "a[1] = s +\n", "a[1] = s\na[1] = u\n",
                                            "a[2] s\n")), encoding="utf-8")
                argv = ["divide", "--side", "right", str(path)]
            return {"kind": "malformed", "argv": gens + argv, "expect": 1}
        deep = "(" * DEEP_NESTING + "s" + ")" * DEEP_NESTING
        argv = rng.choice((["bell", "--side", "left", "--n", "2", "--s=" + deep],
                           ["darboux", str(self._unit_operator(workdir)), "--s=" + deep]))
        # at the seed commit this escapes run_command as RecursionError; once fixed,
        # it must exit 1 like the other domain errors
        return {"kind": "malformed", "argv": gens + argv, "expect": 1,
                "known_failure": RecursionError}

    @staticmethod
    def _unit_operator(workdir):
        path = workdir / "d2.op"
        path.write_text("a[2] = e\n", encoding="utf-8")
        return path

    def known_failure(self, item):
        return item.get("known_failure")

    def run(self, item):
        span, code, out, err = cli_call(item["argv"])
        return (code, out, err), {"cli": span}

    def check(self, item, outputs):
        code, out, err = outputs
        if item["kind"] == "malformed":
            require(code == item["expect"], f"malformed input exited {code}, "
                                            f"expected {item['expect']}")
            require(out == "", "malformed input wrote to stdout")
            if code == 1:
                lines = err.splitlines()
                require(len(lines) == 1 and lines[0].startswith("error: "),
                        "domain error is not one 'error:' line")
            else:
                require(err.startswith("usage:"), "usage error without usage text")
            return
        require(code == 0, f"{item['kind']} exited {code}: {err.strip()}")
        require(err == "", "well-formed call wrote to stderr")
        payload = json.loads(out)
        ring = free.FreeRing(FREE_GENS)
        s = spec_element(ring, item["s"])
        getattr(self, "_check_" + item["kind"])(ring, s, item, payload)

    def output_digest(self, item, outputs):
        """None for malformed inputs, whose outputs are checked on every call."""
        if item["kind"] == "malformed":
            return None
        code, out, _ = outputs
        return digest([code, out])

    def _operator(self, ring, item):
        coeffs = [spec_element(ring, c) for c in item["op"]]
        return operators.DiffOperator(coeffs, ring)

    def _verified_division(self, L, s, side):
        divide = division.divide_right if side == "right" else division.divide_left
        outcome = divide(L, s)
        check_division(L, s, outcome, side)
        return outcome

    def _check_bell(self, ring, s, item, payload):
        got = json_element(ring, payload)
        n = item["n"]
        if item["side"] == "gen":
            # H_n = D o H_{n-1} + B_n; B_{n,k} is the coefficient of D^(n-k) in H_n
            d_op = operators.d_power_operator(ring, 1)
            h = operators.identity_operator(ring)
            for m in range(1, n + 1):
                h = d_op.compose(h) + operators.DiffOperator([left_power_bell(s, m)], ring)
            expected = h.coeff(n - item["k"])
        elif item["side"] == "left":
            expected = left_power_bell(s, n)
        else:
            expected = right_power_bell(s, n)
        require(got == expected, f"bell {item['side']} n={n} differs from the power formula")

    def _check_divide(self, ring, s, item, payload):
        L = self._operator(ring, item)
        quotient = json_operator(ring, payload["quotient"])
        remainder = json_element(ring, payload["remainder"])
        outcome = SimpleNamespace(quotient=quotient, remainder=remainder, exact=payload["exact"])
        require(payload["side"] == item["side"], "division side differs")
        check_division(L, s, outcome, item["side"])

    def _check_factor(self, ring, s, item, payload):
        L = self._operator(ring, item)
        residual = json_element(ring, payload["residual"])
        expected = self._verified_division(L, s, item["side"]).remainder
        require(residual == expected, "factorization residual differs from the remainder")
        require(payload["exact"] == residual.is_zero(), "factor-check exact flag")

    def _check_darboux(self, ring, s, item, payload):
        L = self._operator(ring, item)
        transformed = json_operator(ring, payload["transformed"])
        closed = darboux.transformed_coefficients(L, s)
        require(transformed == closed, "transform differs from the closed coefficient formula")
        remainder = self._verified_division(L, s, "right").remainder
        require(json_element(ring, payload["remainder"]) == remainder,
                "transform remainder differs from the division")
        expected = bracket_defect(remainder, s)
        require(json_element(ring, payload["defect"]) == expected, "defect is not Dr + [r, s]")
        require(json_element(ring, payload["burgers"]) == expected,
                "Burgers RHS is not Dr + [r, s]")


def right_power_bell(s, n):
    """B_n^+(s) = (-1)^n L_s^n e, by repeated operator application."""
    ls = operators.make_ls(s)
    value = s.one_like()
    for _ in range(n):
        value = ls.apply(value)
    return -value if n % 2 else value


def left_power_bell(s, n):
    """B_n(s) = (B_n^+(s*))*, the duality with the right family."""
    return right_power_bell(s.star(), n).star()


WORKLOADS = {w.name: w for w in (JetDarboux(), JetSeriesLong(), MatveevBiJet(), FreeSymbolic())}
