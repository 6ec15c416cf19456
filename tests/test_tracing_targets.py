"""Every nesim name that `perfbench/tracing.py` patches still resolves.

The tracer wraps nesim functions by module and attribute name, so a rename in
nesim would otherwise only show when `perfbench/run.py --trace 1` breaks. The
tracer is loaded from its file without writing bytecode, so nothing is
written under ``perfbench/``.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nesim import controller, numerics, simulation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve(tracing):
    assert tracing.SPAN_TARGETS
    for label, module, attr in tracing.SPAN_TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), label


def test_per_step_targets_resolve_and_are_counted(tracing, stable):
    rk4, control = numerics.rk4_step, simulation.AssembledLoop.control
    short = dataclasses.replace(stable, t_final=0.01)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("test"):
        # the tracer wraps `numerics.rk4_step`, `AssembledLoop.control` and each loop's rhs
        assert numerics.rk4_step is not rk4
        assert simulation.AssembledLoop.control is not control
        simulation.run(short)
    layers = tracer.layer_metrics()
    assert layers["simulation.run_calls"] == layers["simulation.assemble_calls"] == 1
    # `run` steps by the lifted step; the per-step leaves are the per-stage `rk4_step` on an
    # assembled loop, whose rhs the tracer wraps when it is assembled
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("test") as span:
        loop = simulation.assemble(short)
        x = np.zeros(loop.dimension)
        for k in range(10):
            x = numerics.rk4_step(loop, k * short.dt, x, short.dt)
    assert numerics.rk4_step is rk4 and simulation.AssembledLoop.control is control
    assert {name: calls for name, (calls, _) in span.leaves.items()} == \
        {"numerics.rk4_step": 10, "simulation.rhs": 40}


def test_traced_escalation_counts_each_round(tracing, sec5):
    # `run_fn` returns the passing run or None; the tracer notes a round's pass as its truth
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("test"):
        result = controller.escalate_gains(dataclasses.replace(sec5, t_final=2.0))
    layers = tracer.layer_metrics()
    assert layers["controller.escalation_rounds"] == result.rounds
    assert layers["controller.escalation_pass_ratio"] == 1 / result.rounds
    assert layers["simulation.run_calls"] == result.rounds
