"""The benchmark's traced run wraps library functions by name; a rename in
the library must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("hilbcert_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    entries = tracer.wrapped_entry_points()
    assert entries
    for name, owner, attr, _, _ in entries:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
