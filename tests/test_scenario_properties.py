"""Property test: a malformed scenario value gives an exit code, never a traceback (hypothesis)."""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import given, settings, strategies as st

from nesim.cli import main

# the dotted path of each value set; `controller.k.0.0` is the first agent's first gain
FIELDS = ("gains.gamma1", "gains.gamma2", "controller.k.0.0", "controller.escalation.factor",
          "controller.escalation.max_rounds", "sim.R", "sim.seed")
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf"),
                                    "x", None]))


@st.composite
def mutations(draw):
    field = draw(st.sampled_from(FIELDS))
    value = draw(st.integers(-3, 12) if field.endswith("max_rounds") else VALUES)
    return field, value


@settings(max_examples=40, deadline=None, database=None)
@given(mutation=mutations())
def test_malformed_value_gives_an_exit_code(mutation, sec5_norm, tmp_path_factory):
    field, value = mutation
    cfg = json.loads(json.dumps(sec5_norm))
    if field.startswith("controller.k"):
        cfg["controller"]["k"] = [[16.0, 16.0]] * 4
    *parents, key = field.split(".")
    node = cfg
    for name in parents:
        node = node[int(name) if isinstance(node, list) else name]
    node[int(key) if isinstance(node, list) else key] = value
    tmp = tmp_path_factory.mktemp("malformed")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(cfg))
    code = main(["simulate", "--config", str(path), "--t-final", "0.01",
                 "--out", str(tmp / "out.csv")])
    assert code in (0, 1, 2)
