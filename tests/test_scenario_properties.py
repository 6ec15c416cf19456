"""Property tests of scenario files (hypothesis): a malformed value gives an exit code, never a
traceback, and a drawn scenario survives its normalized dump."""

from __future__ import annotations

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import example, given, settings, strategies as st

from nesim.cli import main
from nesim.config import dump_normalized, load_scenario, normalize
from strategies import connected_graphs, quadratic_games, stabilizer_pairs

# the dotted path of each value set; `controller.k.0.0` is the first agent's first gain
FIELDS = ("gains.gamma1", "gains.gamma2", "controller.k.0.0", "controller.escalation.factor",
          "controller.escalation.max_rounds", "sim.t_final", "sim.dt", "sim.decimate", "sim.R",
          "sim.seed")
# fields that hold a count, a vector, an edge list or a matrix, set whole or in one entry
STRUCTURAL = ("graph.n", "graph.edges", "graph.edges.0", "graph.edges.0.1",
              "graph.default_weight", "plant.g", "plant.g.0", "plant.g.0.0", "plant.w_box",
              "plant.w_box.0", "plant.v0_box", "plant.v0_box.1.0", "exosystem.S",
              "exosystem.S.0", "exosystem.S.1.0", "gains.p0", "game.h1", "game.h2", "game.h3",
              "plant.im_polys")
# objects replaced whole by a non-object, which no section or escalation setting may be
OBJECTS = ("game", "graph", "plant", "exosystem", "internal_model", "gains", "controller",
           "controller.escalation", "sim")
SPECIALS = st.sampled_from([0.0, -1.0, float("nan"), float("inf"), float("-inf"), "x", None])
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), SPECIALS)
# no positive step below 1e-5, which caps an example at 1000 steps per escalation round of
# its 0.01 s horizon; a tiny step would run millions. This bounds the test's cost only: nesim
# accepts any finite step > 0 that fits the horizon
DT_VALUES = st.one_of(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
                      st.floats(min_value=1e-5, allow_nan=False, allow_infinity=False),
                      SPECIALS)
# scalars, and lists of them nested a few levels deep, such as [[1.0, "x"], []]
NESTED = st.recursive(st.one_of(VALUES, st.integers(-2, 5)), lambda inner: st.lists(
    inner, max_size=4), max_leaves=8)


@st.composite
def mutations(draw):
    field = draw(st.sampled_from(FIELDS + STRUCTURAL + OBJECTS))
    value = draw(st.integers(-3, 12) if field.endswith(("max_rounds", "decimate"))
                 else NESTED if field in STRUCTURAL + OBJECTS
                 else DT_VALUES if field == "sim.dt" else VALUES)
    return field, value


@settings(max_examples=40)
@given(mutation=mutations())
@example(mutation=("game.h2", [0.0, 0.0, 0.0, float("inf")]))
@example(mutation=("sim", [0.001]))
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


def numeric_leaves(node, path: tuple = ()) -> list[tuple]:
    """The path of each number in ``node``, through its objects and lists."""
    if isinstance(node, dict | list):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in numeric_leaves(value, path + (str(key),))]
    return [path] if isinstance(node, int | float) and not isinstance(node, bool) else []


def test_every_numeric_value_of_the_scenario_is_fuzzed(sec5_norm):
    # a value is fuzzed when its own path or that of a vector or matrix holding it is drawn
    fuzzed = set(FIELDS + STRUCTURAL)
    leaves = numeric_leaves(sec5_norm)
    assert ("sim", "dt") in leaves and ("plant", "g", "0", "5") in leaves
    assert [".".join(leaf) for leaf in leaves
            if not any(".".join(leaf[:end]) in fuzzed for end in range(1, len(leaf) + 1))] == []


@st.composite
def drawn_scenarios(draw, sec5_norm):
    """sec5 with a drawn game and graph of 2 to 5 agents, its plant's ``g`` rows cycled, and a
    drawn explicit stabilizer pair for each agent and level, orders 3 and 5."""
    n = draw(st.integers(2, 5))
    cfg = json.loads(json.dumps(sec5_norm))
    g = cfg["plant"]["g"]
    cfg["game"], cfg["graph"] = draw(quadratic_games(n)), draw(connected_graphs(n))
    cfg["plant"]["g"] = [g[i % len(g)] for i in range(n)]
    cfg["plant"]["w_box"] = [[-0.05, 0.05]] * (len(g[0]) * n)
    cfg["internal_model"] = {"explicit": [[
        {"M": pair.M.tolist(), "N": pair.N.tolist()}
        for pair in (draw(stabilizer_pairs(order)) for order in (3, 5))] for _ in range(n)]}
    return cfg


# 20 examples, 0.4 s in all: two normalizations and two synthesized loads each
@settings(max_examples=20)
@given(data=st.data())
def test_normalized_dump_loads_back_to_the_same_scenario(data, sec5_norm):
    cfg = data.draw(drawn_scenarios(sec5_norm))
    norm = normalize(json.loads(json.dumps(cfg)))
    again = normalize(json.loads(dump_normalized(norm)))
    assert again == norm and dump_normalized(again) == dump_normalized(norm)
    first, second = (load_scenario(source)[0].synthesized() for source in (norm, again))
    assert first.p_star.tobytes() == second.p_star.tobytes()
    assert np.float64(first.min_gamma2).tobytes() == np.float64(second.min_gamma2).tobytes()
