"""The benchmark's tracer swaps gloss functions for wrappers, looking each one
up with ``vars(owner)[attr]``; every name it lists must still exist there."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entries = [(owner, attr) for owner, attr, *_ in tracing.TARGETS + tracing.LEAVES]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in entries
               if attr not in vars(owner)]
    assert len(entries) > 40 and missing == []
