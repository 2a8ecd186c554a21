"""The benchmark in perfbench/ wraps and imports package functions by name; a
rename that leaves it behind fails here instead of in a traced benchmark run.
The perfbench sources are only read: no bytecode is written next to them."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def load_perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    had_workloads = "workloads" in sys.modules

    def load(name):
        # under a private name: perfbench's trace.py would shadow the stdlib trace module
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    yield load
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_span_targets_resolve_to_callables(load_perfbench):
    trace = load_perfbench("trace")
    targets = trace.span_targets(trace.Tracer())
    assert targets
    for owner, attr, _ in targets:
        assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr}"


def test_probes_import(load_perfbench):
    probes = load_perfbench("probes")
    assert callable(probes.layer_timings) and callable(probes.tape_counts)
