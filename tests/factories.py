"""Factories referenced by the custom-kind scenario configs in the tests,
custom games built from quadratic ones, and non-quadratic cost callables."""

from __future__ import annotations

import dataclasses
import json
from importlib import resources

import numpy as np

from nesim.config import load_scenario
from nesim.game import CustomGame, QuadraticAggregativeGame
from nesim.plant import PlantFeatures, PlantModel, example_plant
from nesim.simulation import start_gains


def build_game(h1, coupling, box=(-6.0, 6.0)):
    """Quadratic costs exposed only through callables (forces the FD paths).

    ``box`` is every player's ``(lo, hi)`` sample range.
    """
    h1 = np.asarray(h1, dtype=float)
    n = h1.shape[0]

    def make(i):
        def cost(yi, profile):
            y = profile.copy()
            y[i] = yi
            return (yi - h1[i]) ** 2 + coupling * yi * y.sum()
        return cost

    return CustomGame(costs=[make(i) for i in range(n)],
                      sample_box=np.tile(box, (n, 1)))


def ring_config(n: int, gain: float = 4.0, **sim) -> dict:
    """A scenario dict of sec5's parts on a ring of ``n`` agents, at sec5's start gains times
    ``gain`` (``gamma1`` and every backstepping gain, as `Scenario.escalated` scales them).

    ``h1`` cycles 2, 3, 4, 5, with ``h2`` 2 and ``h3`` 1; sec5's ``g`` rows are
    cycled, every ring weight is 1 and every ``w_box`` entry is +-0.05; the
    exosystem, ``v0_box`` and internal-model preset are sec5's. ``sim`` updates
    the ``sim`` section. At sec5's dt 1e-3 the ring diverges from ``n`` = 8 on;
    the 8-ring passes at ``gain`` 4 with dt 2.5e-4.
    """
    cfg = json.loads(resources.files("nesim").joinpath("data", "sec5.scenario").read_text())
    g = cfg["plant"]["g"]
    cfg["game"].update(h1=[2.0 + i % 4 for i in range(n)], h2=[2.0] * n, h3=[1.0] * n)
    cfg["graph"] = {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}
    cfg["plant"].update(g=[g[i % len(g)] for i in range(n)], w_box=[[-0.05, 0.05]] * (6 * n))
    cfg["gains"]["gamma1"] = gain
    cfg["controller"]["k"] = [(gain * start_gains(2)).tolist()] * n
    cfg["sim"].update(sim)
    return cfg


def ring_scenario(n: int, gain: float = 4.0, **sim):
    """The scenario of `ring_config`."""
    return load_scenario(ring_config(n, gain, **sim))[0]


def wrap_custom(game: QuadraticAggregativeGame, box=None) -> CustomGame:
    """The same quadratic costs exposed only through cost callables."""
    def make(i):
        def cost(yi, profile):
            y = profile.copy()
            y[i] = yi
            return (yi - game.h1[i]) ** 2 + yi * (game.h2[i] * y.sum() + game.h3[i])
        return cost
    return CustomGame(costs=[make(i) for i in range(game.n)], sample_box=box)


def nan_rejecting(game: CustomGame, calls: list) -> CustomGame:
    """``game``'s costs, each appending its own strategy to ``calls`` and raising
    ``ValueError`` when that strategy is NaN, as a cost that checks its input may."""
    def make(cost):
        def checked(yi, profile):
            if np.isnan(yi):
                raise ValueError("cost called with a NaN own strategy")
            calls.append(yi)
            return cost(yi, profile)
        return checked
    return CustomGame([make(cost) for cost in game.costs], game.sample_box)


def smooth_costs(n: int, *, in_place: bool):
    """Non-quadratic costs; ``in_place`` ones write into their profile argument."""
    def make(i):
        def cost(yi, profile):
            y = profile if in_place else profile.copy()
            y[i] = yi
            value = yi ** 4 / 4.0 + yi * np.sin(y.sum()) + 0.5 * (yi - i) ** 2
            if in_place:
                profile *= -3.0  # scribble over the argument after use
            return value
        return cost
    return [make(i) for i in range(n)]


def build_plant(n_agents, leak=1.0, feedthrough=1.0):
    """Relative-degree-1 agents with decoupled stable zero dynamics.

    The chain drift is a disturbance feedthrough scaled per agent by the
    uncertainty: ``x1dot = feedthrough * (1 + w_i) * v1 + u``. The signal the
    compensator must reproduce is a plain sinusoid, so the recurrence is
    second order with roots at +-1j.
    """

    def f0(z, x1, v, w):
        return -leak * z

    def f1(z, xs, v, w):
        return feedthrough * (1.0 + np.asarray(w)) * v[0]

    def steady_zero(s, v, w):
        return np.zeros(np.shape(v)[:-1] + (n_agents, 1))

    return PlantModel(n_agents=n_agents, r=1, n_z=1, n_w=n_agents,
                      f0=f0, f_levels=(f1,), steady_zero=steady_zero,
                      im_polys=([-1.0, 0.0],))


def build_plant_off_origin(n_agents, offset):
    """`build_plant` with ``offset`` added to its zero-dynamics drift: the origin is no equilibrium."""
    model = build_plant(n_agents)
    return dataclasses.replace(model, f0=lambda z, x1, v, w: model.f0(z, x1, v, w) + offset)


def build_plant_with_offset_zero_map(n_agents, offset):
    """`build_plant` with its zero-dynamics map ``z*`` off by the constant ``offset``.

    Its level-1 drift reads no ``z``, so no other steady-state signal meets the wrong map.
    """
    model = build_plant(n_agents)
    return dataclasses.replace(
        model, steady_zero=lambda s, v, w: model.steady_zero(s, v, w) + offset)


def build_plant_without_split(g):
    """The built-in relative-degree-2 plant without its ``split`` hook.

    Its drift reaches the closed loop and the check suite only through
    ``f0``/``f_levels``, as `drift_split`'s generic features.
    """
    return dataclasses.replace(example_plant(g), split=None)


def build_plant_with_offset_steady_state(g, part, offset):
    """The built-in plant with one of its steady-state maps off by the constant ``offset``.

    ``part`` names the map: ``"steady_poly"`` offsets its level-2 signal
    ``x_2*``, ``"steady_zero"`` the zero-dynamics map ``z*``. The drift is the
    built-in one, so the steady-state lines of ``nesim check`` meet a map that
    does not solve it.
    """
    model = example_plant(g)
    if part == "steady_zero":
        return dataclasses.replace(
            model, steady_zero=lambda s, v, w: model.steady_zero(s, v, w) + offset)
    if part != "steady_poly":
        raise ValueError(f"no such steady-state map: {part}")

    def steady_poly(p_star, w, S):
        x2, u = model.steady_poly(p_star, w, S)
        return [dataclasses.replace(x2, c0=x2.c0 + offset), u]

    return dataclasses.replace(model, steady_poly=steady_poly)


def build_plant_with_malformed_split(g, hook):
    """The built-in plant with a ``split`` hook that breaks its contract as ``hook`` names.

    - ``one_flat_draw``: written for one flat draw, it returns a 2-D ``J``;
    - ``one_draw_of_the_batch``: ``J`` holds the first draw only, whatever the batch;
    - ``remainder``: the former contract, the linear part and an in-place remainder;
    - ``v_cols_past_n_v``: ``J`` has a third disturbance column, past sec5's ``n_v`` = 2;
    - ``fill_style``: the former ``PlantFeatures(count, fill)``, whose call returns None;
    - ``nested_lists``: ``J`` as nested lists, not an array;
    - ``bare_j``: ``J`` alone, not a pair;
    - ``three_tuple``: ``(J, features, None)``, a pair and one more.
    """
    model = example_plant(g)
    n = model.n_agents

    def split(w):
        J, features = model.split(w)
        if hook == "one_flat_draw":
            return J[0], features
        if hook == "one_draw_of_the_batch":
            return J[:1], features
        if hook == "remainder":
            return J[:, :, :3 * n + 2], lambda zx, v, out: None
        if hook == "v_cols_past_n_v":  # a zero column after v1 and v2
            return np.insert(J, 3 * n + 2, 0.0, axis=2), features
        if hook == "fill_style":
            return J, PlantFeatures(features.count,
                                    lambda zx, v, out: features.bind(zx, v, out)())
        if hook == "nested_lists":
            return J.tolist(), features
        if hook == "bare_j":
            return J
        if hook == "three_tuple":
            return J, features, None
        raise ValueError(f"no such malformed hook: {hook}")

    return dataclasses.replace(model, split=split)
