"""Self-tests for the benchmark's tracer and checks.

Run from the repository root:  python3 -m pytest perfbench -q

Workloads run here at reduced sizes so the tests take seconds; the code paths
through bellops are the ones the full-size workloads take.
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bellops  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bellops import cli, darboux, jets  # noqa: E402
from tracer import SPAN_NAMES, TARGETS, Tracer, _pairs  # noqa: E402


def small_workloads():
    jd = workloads.JetDarboux()
    jd.dim, jd.order, jd.x_order, jd.items_per_seed = 2, 3, 8, 2
    sl = workloads.JetSeriesLong()
    sl.x_order, sl.items_per_seed = 24, 6
    mv = workloads.MatveevBiJet()
    mv.grid = ((2, 16, 3), (3, 16, 3))
    return [jd, sl, mv, workloads.FreeSymbolic()]


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Two traced passes per workload over its first items, seed 0."""
    out = {}
    for w in small_workloads():
        items = w.make_items(random.Random(0), tmp_path_factory.mktemp(w.name))
        n_ops = 60 if w.name == "free_symbolic" else len(items)
        out[w.name] = [run.trace_pass(w, items, n_ops) for _ in range(2)]
    return out


def span_names(tracer, indices):
    return [SPAN_NAMES[tracer.span_name[i]] for i in indices]


def children(tracer, span):
    return [i for i in range(len(tracer.span_name)) if tracer.span_parent[i] == span]


def test_pairs_counts_schoolbook_products():
    assert _pairs(3, 3, 5) == 9
    assert _pairs(3, 3, 3) == 6  # truncated product: (0,0) (0,1) (1,0) (0,2) (1,1) (2,0)
    assert _pairs(1, 4, 4) == 4


def test_install_and_uninstall_restore_every_binding():
    before = {name: getattr(bellops, name) for name in ("divide_right", "darboux_transform")}
    original_mul = jets.Jet.__dict__["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert darboux.divide_right is bellops.divide_right
        assert darboux.divide_right is not before["divide_right"]
        assert cli.darboux_transform is bellops.darboux_transform
        assert jets.Jet.__dict__["__radd__"] is jets.Jet.__dict__["__add__"]
    finally:
        tracer.uninstall()
    assert {name: getattr(bellops, name) for name in before} == before
    assert jets.Jet.__dict__["__mul__"] is original_mul


def test_transform_has_one_span_per_certificate():
    w = small_workloads()[0]
    L, s = w.make_items(random.Random(0), None)[0]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        bellops.darboux_transform(L, s)
    finally:
        tracer.active = False
        tracer.uninstall()
    top = [i for i, n in enumerate(span_names(tracer, range(len(tracer.span_name))))
           if n == "darboux.darboux_transform"]
    assert len(top) == 1 and tracer.span_parent[top[0]] == -1
    names = span_names(tracer, children(tracer, top[0]))
    for name in ("division.divide_right", "darboux.intertwine_defect", "darboux.burgers_rhs"):
        assert names.count(name) == 1, name


def test_verify_matveev_has_two_burgers_spans(passes):
    _, _, tracer, _, _ = passes["matveev_bijet"][0][:5]
    first_op = [i for i in range(len(tracer.span_name)) if tracer.span_op[i] == 0]
    names = span_names(tracer, first_op)
    assert names.count("cli.run_command") == 1
    assert names.count("darboux.matveev_verify") == 1
    assert names.count("darboux.burgers_rhs") == 2


def test_traced_outputs_match_untraced_digests(passes):
    for name, runs in passes.items():
        for plain, traced, _, _, _ in runs:
            assert plain.wrong == 0 and traced.wrong == 0, (name, traced.failures)
            assert plain.verified.keys() <= traced.verified.keys()


def test_every_wrapped_name_is_reached(passes):
    reached = set()
    for runs in passes.values():
        reached |= {n for n, (calls, _) in runs[0][2].layer_totals().items() if calls}
    assert reached == {t[0] for t in TARGETS}


def test_free_symbolic_records_no_jet_spans(passes):
    totals = passes["free_symbolic"][0][2].layer_totals()
    assert all(calls == 0 for n, (calls, _) in totals.items() if n.startswith("jets."))


def test_calls_repeat_exactly(passes):
    for name, (first, second) in passes.items():
        a, b = first[2], second[2]
        assert {k: c for k, (c, _) in a.layer_totals().items()} == \
               {k: c for k, (c, _) in b.layer_totals().items()}, name
        assert (a.coeff_products, a.coeff_max_bits) == (b.coeff_products, b.coeff_max_bits)


def test_self_times_and_counting_add_up_to_top_spans(passes):
    tracer = passes["jet_darboux"][0][2]
    totals = tracer.layer_totals()
    wall = sum(tracer.span_end[i] - tracer.span_start[i]
               for i in range(len(tracer.span_name)) if tracer.span_parent[i] == -1)
    counting = sum(tracer.span_counting)
    assert counting > 0
    assert sum(s for _, s in totals.values()) + counting == pytest.approx(wall, rel=1e-9)


def test_spans_are_written_as_json_lines(passes, tmp_path):
    tracer = passes["matveev_bijet"][0][2]
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.span_name)
    assert rows[0].keys() == {"name", "start", "end", "parent", "op", "counting"}
    assert all(r["end"] >= r["start"] and r["parent"] < i for i, r in enumerate(rows))


def test_deep_nesting_is_the_only_failure(passes):
    plain = passes["free_symbolic"][0][0]
    assert plain.wrong == 0
    assert plain.failed == sum(1 for f in plain.failures if "RecursionError" in f)
    assert len(plain.op_seconds) == plain.attempted  # a raise is timed too


def test_an_unexpected_raise_is_a_wrong_answer(monkeypatch):
    w = small_workloads()[1]
    items = w.make_items(random.Random(0), None)[:1]

    def broken(*args):
        raise bellops.ConsistencyError("certificate failed")

    monkeypatch.setattr(bellops, "factor_from_kernel", broken)
    ledger = run.Ledger(w, None)
    ledger.run_one(items, 0)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 1)
    assert len(ledger.op_seconds) == 1


def test_check_catches_a_wrong_remainder():
    w = small_workloads()[1]
    item = w.make_items(random.Random(0), None)[0]
    (s, outcome), _ = w.run(item)
    outcome.remainder = outcome.remainder + outcome.remainder.one_like()
    outcome.exact = False
    with pytest.raises(workloads.CheckFailed):
        w.check(item, (s, outcome))


def test_compare_flags_diverging_ratios(tmp_path):
    def write(name, op_ms, wall_op_ms):
        report = {"host.fraction_ref_s": 1e-4,
                  "metrics": {"op_ms": {"value": op_ms}},
                  "wall_metrics": {"op_ms": {"value": wall_op_ms}}}
        path = tmp_path / name
        path.write_text("report: " + json.dumps(report) + "\n{}\n")
        return str(path)

    base = write("base", 100.0, 200.0)
    assert compare.compare(compare.reports(base), compare.reports(write("same", 90.0, 182.0)),
                           0.1)[0][3] is False
    assert compare.compare(compare.reports(base), compare.reports(write("hidden", 90.0, 240.0)),
                           0.1)[0][3] is True


def test_setup_is_timed_in_fresh_interpreters(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    spans = run.time_setup(workloads.WORKLOADS["jet_series_long"], 0, tmp_path / "work")
    assert len(spans) == 2 and all(0 < b - a < 60 for a, b in spans)
    assert list((tmp_path / "work").iterdir()) == []
