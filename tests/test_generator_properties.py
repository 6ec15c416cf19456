"""Property tests of the gradient-play generator on drawn instances (hypothesis).

At any consensus gain ``gamma2 >= min_gamma2`` the generator contracts to the
equilibrium, so a drawn quadratic game on a drawn connected graph, run from
zero estimates, must show a falling distance to it.

The step keeps RK4 stable on the generator block by a norm bound, not by a
certificate of its eigenvalues. The block is ``-gamma1 (gamma2 (L kron I) +
G)``, where ``G`` places ``J_i . P_i`` (row ``i`` of the game's Jacobian ``J``
on estimate row ``i``) on agent ``i``'s own entry, so ``|G|_2 <= |J|_2``.
Every eigenvalue then lies in the left half-disk of radius
``gamma1 (gamma2 lambda_max(L) + |J|_2)``. RK4's amplification
``|1 + z + z^2/2 + z^3/6 + z^4/24|`` is at most 1 on the closed left
half-disk of radius 2.6 (it passes 1 on the negative real axis at 2.785), so
the step holds that radius times ``dt`` at 2.5.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import given, settings, strategies as st

from nesim.config import load_scenario
from nesim.generator import run_generator
from nesim.graph import laplacian
from strategies import connected_graphs, quadratic_games

RK4_HALF_DISK = 2.5  # below the 2.6 radius of the left half-disk RK4 is stable on
HORIZON = 2.0


def game_jacobian(section: dict) -> np.ndarray:
    """The pseudo-gradient's Jacobian of a quadratic aggregative game section.

    It is ``2 I + diag(h2) (1 1^T + I)``, whatever ``h1`` and ``h3``:
    player i's cost ``(y_i - h1_i)^2 + y_i (h2_i sum(y) + h3_i)`` has the partial
    ``2 (y_i - h1_i) + h2_i (sum(y) + y_i) + h3_i``.
    """
    h2 = np.array(section["h2"])
    n = len(h2)
    return 2.0 * np.eye(n) + h2[:, None] * (np.ones((n, n)) + np.eye(n))


# 10 examples per n, 30 in all, each one scenario load and one 2 s run: about 0.6 s
@pytest.mark.parametrize("n", range(2, 5))
@settings(max_examples=10)
@given(data=st.data())
def test_generator_decays_at_the_auto_consensus_gain(n, data, sec5_norm):
    game = data.draw(quadratic_games(n), label="game")
    cfg = json.loads(json.dumps(sec5_norm))
    g = cfg["plant"]["g"]
    cfg["game"], cfg["graph"] = game, data.draw(connected_graphs(n), label="graph")
    cfg["plant"]["g"] = [g[i % len(g)] for i in range(n)]
    cfg["plant"]["w_box"] = [[-0.05, 0.05]] * (len(g[0]) * n)
    cfg["gains"] = {"gamma1": 1.0, "gamma2": "auto"}  # no p0: the estimates start at zero
    scenario, _ = load_scenario(cfg)
    synthesis = scenario.synthesized()
    assert synthesis.gamma2 >= synthesis.min_gamma2
    radius = scenario.gains.gamma1 * (
        synthesis.gamma2 * np.linalg.eigvalsh(laplacian(scenario.graph))[-1]
        + np.linalg.norm(game_jacobian(game), 2))
    dt = min(scenario.dt, RK4_HALF_DISK / radius)
    traj = run_generator(dataclasses.replace(scenario, t_final=HORIZON, dt=dt))
    assert traj.log_dist_slope(HORIZON / 2.0, HORIZON) < 0.0
