"""Game and plant factories for the ``custom_fd_setup`` workload.

A scenario file names these as ``"custom_factory:build_game"`` and
``"custom_factory:build_plant"``; ``run.py`` puts this directory on
``sys.path`` so the scenario loader can import them. They describe the same
system as the custom factories the test suite uses, kept here so that the
benchmark does not depend on the test tree.
"""

from __future__ import annotations

import numpy as np

from nesim.game import CustomGame
from nesim.plant import PlantModel


def build_game(h1, coupling):
    """Quadratic aggregative costs visible only as callables.

    Player i pays ``(y_i - h1_i)^2 + coupling * y_i * sum(y)``. Because the
    game is a `CustomGame`, nesim sees only cost values: its gradients,
    constants and equilibrium all go through finite differences.
    """
    h1 = np.asarray(h1, dtype=float)

    def cost_of(i):
        def cost(yi, profile):
            y = profile.copy()
            y[i] = yi
            return (yi - h1[i]) ** 2 + coupling * yi * y.sum()
        return cost

    n = h1.shape[0]
    return CustomGame(costs=[cost_of(i) for i in range(n)],
                      sample_box=np.tile([-6.0, 6.0], (n, 1)))


def build_plant(n_agents, leak=1.0, feedthrough=1.0):
    """Relative-degree-1 agents with stable, decoupled zero dynamics.

    ``zdot = -leak * z`` and ``x1dot = feedthrough * (1 + w_i) * v_1 + u``:
    the disturbance enters through an uncertain gain, so the signal the
    compensator must reproduce is a sinusoid with recurrence roots +-1j.
    The model has no ``bind``, so the closed loop runs the generic
    ``f0``/``f_levels`` path.
    """

    def f0(z, x1, v, w):
        return -leak * z

    def f1(z, xs, v, w):
        return feedthrough * (1.0 + np.asarray(w)) * v[0]

    def steady_zero(s, v, w):
        return np.zeros((n_agents, 1))

    return PlantModel(n_agents=n_agents, r=1, n_z=1, n_w=n_agents,
                      f0=f0, f_levels=(f1,), steady_zero=steady_zero,
                      im_polys=([-1.0, 0.0],))
