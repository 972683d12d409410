"""The benchmark tracer (benchmarks/spans.py) wraps secest functions by
module and name, and the exp2_banked workload wraps ``cli.simulate``; a
moved or renamed function makes the traced benchmark crash."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"secest.{mod_name}.{fn}"
        for mod_name, fns in spans.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"secest.{mod_name}"), fn, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("secest.cli").simulate)
