"""Compare two sets of untraced runs, normalized and wall-clock, metric by metric.

    python3 perfbench/compare.py BASE.txt HEAD.txt [--tolerance 0.1]

Each file holds the standard output of one or more `run.py --trace 0` runs of
one workload, for example the parent commit's and a change's.  For every
metric that a run reports both normalized and in wall-clock time, this prints
the ratio HEAD/BASE of the medians over the runs, both ways.  The two ratios
agree when the host-speed probe saw the same host in both sets.  When they
differ by more than the tolerance, the line is flagged: either the host's
speed changed between the sets (run them again, interleaved) or the change
acts on interpreter state the probe shares (see `hostprobe.py`), and the
normalized figure is then not to be trusted.  Exits 1 if any line is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

PREFIX = "report: "


def reports(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line[len(PREFIX):]) for line in fh if line.startswith(PREFIX)]


def medians(runs, section):
    values = {}
    for run in runs:
        for name, metric in run.get(section, {}).items():
            values.setdefault(name, []).append(metric["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def compare(base, head, tolerance):
    """[(metric, normalized ratio, wall ratio, flagged)] for metrics in both sets."""
    rows = []
    norm = [medians(runs, "metrics") for runs in (base, head)]
    wall = [medians(runs, "wall_metrics") for runs in (base, head)]
    for name in sorted(set(norm[0]) & set(norm[1]) & set(wall[0]) & set(wall[1])):
        if not (norm[0][name] and wall[0][name]):
            continue
        n_ratio = norm[1][name] / norm[0][name]
        w_ratio = wall[1][name] / wall[0][name]
        rows.append((name, n_ratio, w_ratio, abs(n_ratio / w_ratio - 1) > tolerance))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="largest accepted relative gap between the two ratios")
    args = p.parse_args(argv)
    base, head = reports(args.base), reports(args.head)
    if not base or not head:
        print("error: each file needs at least one 'report:' line", file=sys.stderr)
        return 2
    rows = compare(base, head, args.tolerance)
    print(f"{'metric':<20} {'normalized':>10} {'wall':>8}   (HEAD/BASE, "
          f"{len(base)} and {len(head)} runs)")
    for name, n_ratio, w_ratio, flagged in rows:
        print(f"{name:<20} {n_ratio:>10.3f} {w_ratio:>8.3f}"
              + ("   DIVERGES" if flagged else ""))
    probe = [statistics.median(r["host.fraction_ref_s"] for r in runs) for runs in (base, head)]
    print(f"{'host.fraction_ref_s':<20} {probe[1] / probe[0]:>10.3f}")
    return 1 if any(row[3] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
