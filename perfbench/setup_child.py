"""One cold set-up, in a fresh interpreter, for `run.py`'s ``setup_s``.

    python3 perfbench/setup_child.py <workload> <seed> <workdir>

Imports bellops, builds the workload's inputs (writing its input files into
<workdir>) and prints `time.perf_counter()` at the end.  On Linux that clock is
system-wide, so the parent subtracts the moment it started this process.
"""

import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports bellops)

WORKLOADS[sys.argv[1]].make_items(random.Random(int(sys.argv[2])), Path(sys.argv[3]))
print(repr(perf_counter()))
