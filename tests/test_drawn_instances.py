"""The paper's theorem on drawn instances (hypothesis).

For a strongly monotone game on a connected graph, the designed controller
drives every agent's output to the NE. Drawn here, within bounds stated once
and not narrowed after a failing draw:

- a quadratic aggregative game, ``h1`` in [1, 5], ``h2`` in [1.5, 3] and
  ``h3`` in [0.2, 1];
- N = 3 to 5 agents on a random spanning tree plus random extra edges, each
  weight in [0.5, 2]. N stays at most 5: a larger or sparser graph has a
  smaller algebraic connectivity, hence a larger auto ``gamma2`` and a
  smaller step (below), and its runs take longer;
- the run seed, which draws the plant's uncertainty and the exosystem start.

The rest is sec5's: its plant with its ``g`` rows cycled, ``w_box`` +-0.05,
its exosystem and ``v0_box``, its stabilizers and gain escalation, auto
gains, over a 15 s horizon. The step is sec5's 1e-3, or less where the
generator would leave RK4's stability interval on the negative real axis,
about [-2.78, 0]: escalation scales ``gamma1`` with the plant's gains, and
a hub of large weights gives ``L`` a large top eigenvalue, so the step keeps
``gamma1 gamma2 lambda_max(L) dt`` inside it through round 4 (x8), one round
past the round 3 (x4) at which every draw with sec5's plant has passed. At
sec5's step, such an instance fails escalation (the `@example` below).
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import example, given, settings, strategies as st

from nesim.cli import main
from nesim.config import load_scenario
from nesim.controller import TRACKING_TOL
from nesim.graph import laplacian
from strategies import connected_graphs, quadratic_games

RK4_REAL_INTERVAL = 2.78  # RK4 is stable for h lambda in about [-2.785, 0]
HEADROOM = 8.0  # the escalation multiplier of round 4


@st.composite
def instances(draw):
    n = draw(st.integers(3, 5))
    return n, draw(quadratic_games(n)), draw(connected_graphs(n)), draw(st.integers(0, 2 ** 16))


def summary_value(out: str, key: str) -> float:
    return float(next(line for line in out.splitlines()
                      if line.startswith(f"{key} = ")).split(" = ")[1])


# 6 drawn examples and the explicit one, 0.2 to 1 s each
@settings(max_examples=6)
@given(instance=instances())
# a star on 5 nodes, hub degree 5.3: at sec5's step, round 3's generator has
# gamma1 gamma2 lambda_max(L) dt = 4 x 1.25 x 85.0 x 6.76 x 1e-3 = 2.87
@example(instance=(5, {"kind": "quadratic_aggregative",
                       "h1": [3.029388636879917, 2.9522951433867033, 2.921581501831762,
                              4.849678839641431, 2.1796384500581327],
                       "h2": [2.1442204841596033, 2.481120278711601, 2.6514292211728647,
                              1.8643045023540936, 2.499480182691759],
                       "h3": [0.529263344477229, 0.2438237399710449, 0.4188372641893111,
                              0.3333333333333333, 0.394255187650018]},
                   {"n": 5, "edges": [[0, 4, 1.3638524409224428], [1, 4, 1.2499119950400763],
                                      [2, 4, 1.8229330276356275], [3, 4, 0.883940538867489]]},
                   1052))
def test_drawn_instances_reach_the_equilibrium(instance, sec5_norm, tmp_path_factory):
    n, game, graph, seed = instance
    cfg = json.loads(json.dumps(sec5_norm))
    g = cfg["plant"]["g"]
    cfg["game"], cfg["graph"] = game, graph
    cfg["plant"]["g"] = [g[i % len(g)] for i in range(n)]
    cfg["plant"]["w_box"] = [[-0.05, 0.05]] * (len(g[0]) * n)
    cfg["sim"].update(t_final=15.0, seed=seed)
    scenario, _ = load_scenario(cfg)
    stiffness = (scenario.gains.gamma1 * scenario.synthesized().gamma2
                 * np.linalg.eigvalsh(laplacian(scenario.graph))[-1])
    cfg["sim"]["dt"] = min(scenario.dt, RK4_REAL_INTERVAL / (HEADROOM * stiffness))
    tmp = tmp_path_factory.mktemp("drawn")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", "--config", str(path), "--out", str(tmp / "out.csv")])
    out = out.getvalue()
    assert code == 0, out  # escalation passed within max_rounds, and the final run too
    assert summary_value(out, "final_tracking_max") <= TRACKING_TOL
    assert summary_value(out, "ne_log_slope") < 0.0
