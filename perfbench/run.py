"""Benchmark runner for bellops.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; bellops is imported from ``src/``.
Every workload is a closed loop: one process, one caller, and the next
operation starts when the previous one has finished.

--trace 0 measures set-up (in fresh interpreters, repeated, median) and then
runs whole passes over the workload's operation mix until the next pass would
overrun --seconds.
Every output is checked outside the timed region.  Times are normalized to a
reference host speed by the in-process probe in `hostprobe.py`; the
wall-clock values are reported beside them.

--trace 1 runs a fixed number of operations (derived from --seconds, so
counts repeat exactly), each once untraced and once with every public
function of the package wrapped, reports per-layer calls and self time, and writes the
spans to .perfbench-spans/<workload>-seed<seed>.jsonl.

Before the result, one line ``report: {...}`` carries provenance (Python,
commit, nproc, seed, source digest), the per-operation medians with their
sample counts, the failure ratio and the host reference time.  The last line
is the result object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"  # traced runs leave their spans here
SETUP_REPEATS = 15
DIGEST_SEED = 0


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DIGEST_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="run every item once and store its output digest (seed 0 only)")
    return p.parse_args(argv)


# -- measurement helpers ---------------------------------------------------------


def wall(t0, t1):
    return t1 - t0


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    return sorted(values)[-11]


def ms_metric(values):
    return {"value": statistics.median(values) * 1000.0, "unit": "ms", "samples": len(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bellops").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(args):
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
    }


def load_digests(workload_name, seed):
    path = HERE / "digests.json"
    if seed != DIGEST_SEED or not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload_name)


# -- set-up ------------------------------------------------------------------------


def time_setup(workload, seed: int, work_root: Path):
    """Time SETUP_REPEATS cold set-ups, each in a fresh interpreter that imports
    bellops and builds and writes the inputs (`setup_child.py`).

    Returns [(start, end)] per repeat: from just before the process is started
    to the end of its set-up, on the system-wide `perf_counter` clock.
    """
    spans = []
    for rep in range(SETUP_REPEATS):
        workdir = work_root / f"setup{rep}"
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload.name,
                               str(seed), str(workdir)],
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up failed: {done.stderr.strip()}")
        spans.append((t0, float(done.stdout.split()[-1])))
        shutil.rmtree(workdir)
    return spans


# -- the closed loop ------------------------------------------------------------


class Ledger:
    """Per-run tallies: attempts, failures, wrong answers and timings.

    `clock(start, end)` converts a timed call into the seconds recorded; the
    wall-clock seconds are kept beside them.
    """

    def __init__(self, workload, digests, clock=wall):
        self.workload = workload
        self.digests = digests
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.op_seconds, self.op_wall = [], []
        self.kind_seconds = {k: [] for k in workload.kinds}
        self.kind_wall = {k: [] for k in workload.kinds}
        self.failures = []
        self.verified = {}  # item index -> digest already checked independently

    def run_one(self, items, index, tracer=None):
        """Run, time and check one operation; return its recorded seconds."""
        key = index % len(items)
        item = items[key]
        self.attempted += 1
        if tracer is not None:
            tracer.op_id, tracer.active = index, True
        t0 = perf_counter()
        try:
            outputs, spans = self.workload.run(item)
        except Exception as exc:  # timed up to the raise, so a raise never looks fast
            kinds = self.workload.kinds
            self._record({kinds[0] if len(kinds) == 1 else None: (t0, perf_counter())})
            self.failed += 1
            known = self.workload.known_failure(item)
            if known is None or not isinstance(exc, known):
                self.wrong += 1
            self.failures.append(f"item {key}: {type(exc).__name__}: {str(exc)[:200]}")
            return self.op_seconds[-1]
        finally:
            if tracer is not None:
                tracer.active = False
        self._record(spans)
        self._check(item, key, outputs)
        return self.op_seconds[-1]

    def _record(self, spans):
        """Record one operation's timed calls, {kind or None: (start, end)}."""
        for kind, (t0, t1) in spans.items():
            if kind is not None:
                self.kind_seconds[kind].append(self.clock(t0, t1))
                self.kind_wall[kind].append(t1 - t0)
        self.op_seconds.append(sum(self.clock(t0, t1) for t0, t1 in spans.values()))
        self.op_wall.append(sum(t1 - t0 for t0, t1 in spans.values()))

    def _check(self, item, key, outputs):
        """Check independently on an item's first run, by digest on repeats."""
        from workloads import CheckFailed

        try:
            got = self.workload.output_digest(item, outputs)
            if key not in self.verified or got is None:
                self.workload.check(item, outputs)
                self.verified[key] = got
            elif got != self.verified[key]:
                raise CheckFailed("output differs from an earlier run of the same input")
            recorded = self.digests[key] if self.digests and key < len(self.digests) else None
            if recorded is not None and got != recorded:
                raise CheckFailed("output digest differs from the recorded one")
        except Exception as exc:  # any check error is a wrong answer, recorded
            self.failed += 1
            self.wrong += 1
            self.failures.append(f"item {key}: {type(exc).__name__}: {exc}")


def run_closed_loop(items, ledger, seconds, pass_len):
    """Closed loop over whole passes of `pass_len` items, so every run has the
    same operation mix; stops before a pass predicted to overrun `seconds`.

    Returns the (start, end) slices of `ledger.op_seconds` of each pass.
    """
    start = perf_counter()
    index, last_pass, passes = 0, 0.0, []
    while index == 0 or perf_counter() - start + last_pass <= seconds:
        t0, first = perf_counter(), len(ledger.op_seconds)
        for _ in range(pass_len):
            ledger.run_one(items, index)
            index += 1
        passes.append((first, len(ledger.op_seconds)))
        last_pass = perf_counter() - t0  # includes the checks: they share the window
    return passes


def pass_means(values, passes):
    """Mean of `values` over each pass that timed at least one operation."""
    return [statistics.fmean(values[a:b]) for a, b in passes if b > a]


def untraced(args, workload, items, setup_spans, probe):
    ledger = Ledger(workload, load_digests(workload.name, args.seed), probe.normalize)
    passes = run_closed_loop(items, ledger, args.seconds, workload.pass_len)
    verified = ledger.attempted - ledger.failed
    # the set-up ran in another process, so the probes took none of its time
    setup_s = statistics.median(probe.normalize(a, b, own_process=False) for a, b in setup_spans)
    timed_s = sum(ledger.op_seconds)
    op_means = pass_means(ledger.op_seconds, passes)
    # a metric with nothing to measure is left out rather than reported as 0
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    if verified:
        metrics["ops_per_s"] = {"value": verified / timed_s, "unit": "1/s"}
    if op_means:
        metrics["op_ms"] = {"value": statistics.median(op_means) * 1000.0, "unit": "ms"}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}

    def named(op_values, kind_values):
        means = pass_means(op_values, passes)
        out = {"op_ms": {**ms_metric(means), "ops_per_pass": workload.pass_len}} if means else {}
        for kind, values in kind_values.items():
            if values:
                out[f"{kind}_ms"] = ms_metric(values)
        cli = kind_values.get("cli")
        if cli and tail(cli) is not None:
            out["cli_tail_ms"] = {"value": tail(cli) * 1000.0, "unit": "ms",
                                  "samples": len(cli), "beyond": 10}
        return out

    wall_timed = sum(ledger.op_wall)
    report = {
        **provenance(args),
        "host.fraction_ref_s": probe.median(),
        "probes": len(probe.took),
        # normalized over wall-clock time of the timed calls; compare.py flags a
        # change of it between commits
        "speed_factor": timed_s / wall_timed if wall_timed > 0 else None,
        "metrics": {**named(ledger.op_seconds, ledger.kind_seconds),
                    "setup_s": {"value": setup_s, "unit": "s", "samples": len(setup_spans)},
                    "fail_ratio": {"value": ledger.failed / ledger.attempted, "unit": "ratio",
                                   "samples": ledger.attempted}},
        "wall_metrics": {**named(ledger.op_wall, ledger.kind_wall),
                         "setup_s": {"value": statistics.median(b - a for a, b in setup_spans),
                                     "unit": "s", "samples": len(setup_spans)},
                         **({"ops_per_s": {"value": verified / wall_timed, "unit": "1/s"}}
                            if verified else {})},
        "failures": ledger.failures[:20],
    }
    return ledger, metrics, report


def trace_pass(workload, items, n_ops, digests=None, clock=wall):
    """Run items 0..n_ops-1 each untraced and then traced, checking both.

    Alternating keeps each pair close in time, so host drift cancels in the
    overhead ratio; the wrappers are installed only around traced operations.
    The traced run must reproduce the untraced run's output digests.
    Returns (untraced ledger, traced ledger, tracer, untraced s, traced s).
    """
    from tracer import Tracer

    plain = Ledger(workload, digests, clock)
    ledger = Ledger(workload, digests, clock)
    ledger.verified = plain.verified
    tracer = Tracer()
    plain_s, traced_s = [], []
    for i in range(n_ops):
        plain_s.append(plain.run_one(items, i))
        tracer.install()
        try:
            traced_s.append(ledger.run_one(items, i, tracer))
        finally:
            tracer.uninstall()
    return plain, ledger, tracer, plain_s, traced_s


def traced(args, workload, items, probe):
    n_ops = max(1, round(args.seconds * workload.trace_rate))
    plain, ledger, tracer, plain_s, traced_s = trace_pass(
        workload, items, n_ops, load_digests(workload.name, args.seed), probe.normalize)
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    metrics["jets.coeff_products"] = {"value": tracer.coeff_products, "unit": "count"}
    metrics["jets.coeff_max_bits"] = {"value": tracer.coeff_max_bits, "unit": "bits"}
    metrics["trace.overhead_ratio"] = {"value": sum(traced_s) / sum(plain_s), "unit": "ratio"}
    metrics["host.fraction_ref_s"] = {"value": probe.median(), "unit": "s"}
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / f"{workload.name}-seed{args.seed}.jsonl")
    ledger.attempted += plain.attempted
    ledger.failed += plain.failed
    ledger.wrong += plain.wrong
    report = {**provenance(args), "host.fraction_ref_s": probe.median(), "traced_ops": n_ops,
              "spans": len(tracer.span_name), "failures": (plain.failures + ledger.failures)[:20]}
    return ledger, metrics, report


def record_digests(workload, items):
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    ledger = Ledger(workload, None)
    for i in range(len(items)):
        ledger.run_one(items, i)
    if ledger.wrong:
        raise SystemExit(f"not recording: {ledger.failures}")
    table[workload.name] = [ledger.verified.get(i) for i in range(len(items))]
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(items)} digests for {workload.name}; failures: {ledger.failures}")


def main(argv=None) -> int:
    if not (SRC / "bellops" / "__init__.py").is_file():
        print(f"error: no bellops sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from hostprobe import HostProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    probe = HostProbe()
    probe.start()
    try:
        if args.record_digests and args.seed != DIGEST_SEED:
            print("error: digests are recorded for seed 0 only", file=sys.stderr)
            return 2
        measure_setup = not (args.trace or args.record_digests)
        setup_spans = time_setup(workload, args.seed, work_root) if measure_setup else None
        inputs = work_root / "inputs"
        inputs.mkdir(parents=True)
        items = workload.make_items(random.Random(args.seed), inputs)
        if args.record_digests:
            record_digests(workload, items)
            return 0
        if args.trace:
            ledger, metrics, report = traced(args, workload, items, probe)
        else:
            ledger, metrics, report = untraced(args, workload, items, setup_spans, probe)
    finally:
        probe.stop()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": ledger.wrong == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
