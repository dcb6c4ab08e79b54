"""The names the layer tracer wraps still exist where it looks for them.

perfbench/layer_trace.py wraps each PLAN entry (module, attribute, ...) in
dycklat.<module>.  A dotted attribute is a method, and the tracer reads it
from the class's own __dict__, so a method that moved to a base class or a
helper would break the tracer.  The tracer is loaded from its source here
without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYER_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layer_trace.py"


def load_plan(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layer_trace_plan_check", LAYER_TRACE)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PLAN


def test_every_plan_name_resolves(monkeypatch):
    plan = load_plan(monkeypatch)
    assert plan
    for module_name, attribute, metric, _ in plan:
        module = importlib.import_module(f"dycklat.{module_name}")
        owner_name, _, name = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            assert name in vars(owner), (module_name, attribute, metric)
        else:
            assert callable(getattr(module, name, None)), (module_name, attribute, metric)

