"""The benchmark's tracer wraps package attributes by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_name_existing_attributes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, cls, attr in tracer.TARGETS:
        owner = importlib.import_module(f"bellops.{module}")
        if cls is not None:
            owner = vars(owner)[cls]
        assert attr in vars(owner), (module, cls, attr)
