"""Distributed gradient-play reference signal generator.

Each agent integrates a local copy of the full strategy profile: its own
strategy follows the negative partial gradient evaluated on its local copy,
and every entry is additionally dragged toward the neighbors' copies through
the communication graph. The stack of all copies converges exponentially to
consensus on the Nash equilibrium when the consensus gain is large enough.

The generator is linear in ``[vec P; 1; partials]``: `generator_rows` writes
that map once, `partials_bind` fills a custom game's partials, and
`run_generator` steps it by RK4 stages folded into the map
(`numerics.rk4_lifted_step`), as the closed loop is stepped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import Disconnected, require
from .game import (GameSpec, GradientConstants, QuadraticAggregativeGame, estimate_constants,
                   extended_pseudo_gradient, solve_ne)
from .graph import CONNECTIVITY_EPS, CommGraph, lambda2, laplacian
from .numerics import LiftedOdeSystem, integrate, rk4_lifted_step, rk4_lifted_steps


@dataclass(frozen=True)
class GeneratorGains:
    """Gradient gain (sets the time scale) and consensus gain."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        require("gains.gamma1", self.gamma1, 0 < self.gamma1 < np.inf, "finite and > 0")
        require("gains.gamma2", self.gamma2, 0 < self.gamma2 < np.inf, "finite and > 0")


def min_gamma2(constants: GradientConstants, g: CommGraph) -> float:
    """Smallest consensus gain with a convergence guarantee.

    Evaluates ``(lipschitz^2 / strong_mono + lipschitz) / lambda2``; any
    consensus gain at or above this value makes the generator contract to
    the equilibrium at an exponential rate.

    Raises
    ------
    Disconnected
        If the graph's algebraic connectivity is (numerically) zero.
    """
    lam2 = lambda2(g)
    if lam2 <= CONNECTIVITY_EPS:
        raise Disconnected(f"lambda2 = {lam2:.3e}; generator needs a connected graph")
    lbar, lmono = constants.lipschitz, constants.strong_mono
    return (lbar ** 2 / lmono + lbar) / lam2


def generator_rows(game: GameSpec, g: CommGraph, gamma1: float, gamma2: float) -> np.ndarray:
    """The generator as a linear map of ``[vec P; 1; partials]``.

    Every row of ``vec P`` (row-major) holds the consensus
    ``-gamma1 gamma2 (L kron I)``; agent i's own entry adds the extended
    gradient on estimate row i. For the quadratic game that is its affine
    form, Jacobian row i on the row and the constant in the column of the
    one; for a custom game ``-gamma1`` on agent i's finite-difference
    partial, one of the ``N`` trailing columns, which `partials_bind` fills.
    """
    n = game.n
    quadratic = isinstance(game, QuadraticAggregativeGame)
    own = np.arange(n) * (n + 1)  # agent i's entry of vec P
    rows = np.zeros((n * n, n * n + 1 + (0 if quadratic else n)))
    rows[:, :n * n] = -gamma1 * gamma2 * np.kron(laplacian(g), np.eye(n))
    if quadratic:  # Jacobian row i on estimate row i
        rows[own[:, None], np.arange(n * n).reshape(n, n)] -= gamma1 * game.jacobian()
        rows[own, n * n] = -gamma1 * game.gradient_constant()
    else:
        rows[own, n * n + 1 + np.arange(n)] = -gamma1
    return rows


def partials_bind(game: GameSpec, estimates: np.ndarray,
                  partials: np.ndarray) -> Optional[Callable[[], None]]:
    """Bind the fill of a custom game's partials, each agent's on its own estimate row.

    ``estimates`` is a ``(N*N, B)`` view of ``vec P`` (row-major) per column
    and ``partials`` the ``(N, B)`` rows the fill writes. Returns ``fill()``,
    which overwrites ``partials`` from what ``estimates`` holds at each call,
    column ``b`` from column ``b`` alone. None for a quadratic game: its
    extended gradient is affine and already in `generator_rows`. The views
    are taken once, here.
    """
    if isinstance(game, QuadraticAggregativeGame):
        return None
    n = game.n
    # one (n, n) view per column: the estimate rows of a lift buffer are contiguous
    blocks = estimates.reshape(n, n, -1).transpose(2, 0, 1)
    out = partials.T  # (B, n)

    def fill() -> None:
        out[...] = extended_pseudo_gradient(game, blocks)

    return fill


@dataclass
class GeneratorTrajectory:
    """Distance to the stacked equilibrium sampled along the run."""

    t: np.ndarray
    dist: np.ndarray
    final_estimates: np.ndarray
    p_star: np.ndarray

    def log_dist_slope(self, t_lo: float, t_hi: float) -> float:
        """Least-squares slope of ``log(dist)`` over ``[t_lo, t_hi]``.

        NaN with fewer than two samples in the window (nothing to fit).
        """
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        if mask.sum() < 2:
            return float("nan")
        vals = np.log(np.maximum(self.dist[mask], 1e-300))
        return float(np.polyfit(self.t[mask], vals, 1)[0])


def run_generator(game: GameSpec, g: CommGraph, gains: GeneratorGains,
                  init: np.ndarray, t_final: float, h: float) -> GeneratorTrajectory:
    """Integrate the generator alone and record the distance to equilibrium every 10th step.

    ``init`` is the ``(N, N)`` matrix of initial estimates, row i agent i's
    copy of the profile. The generator steps as a `LiftedOdeSystem` over
    `generator_rows`, by `numerics.rk4_lifted_step` in a workspace built
    here at ``h``. The equilibrium used for reporting comes from the
    centralized oracle `solve_ne`; the dynamics themselves never see it. A
    consensus gain below `min_gamma2` only triggers a warning, since the
    bound is sufficient, not necessary.

    Raises
    ------
    ValueError
        If ``init`` is not ``(N, N)``, or ``h`` is not finite and > 0.
    """
    n = game.n
    P0 = np.array(init, dtype=float)
    if P0.shape != (n, n):
        raise ValueError(f"initial estimates must be ({n}, {n}), got shape {P0.shape}")
    rows = generator_rows(game, g, gains.gamma1, gains.gamma2)

    def bind(lifted: np.ndarray) -> Optional[Callable[[], None]]:
        return partials_bind(game, lifted[:n * n], lifted[n * n + 1:])

    sys = LiftedOdeSystem(dimension=n * n, rhs=None, bind=bind,
                          steps=rk4_lifted_steps(rows[None], h, bind))

    constants = estimate_constants(game)
    bound = min_gamma2(constants, g)
    if gains.gamma2 < bound:
        warnings.warn(f"gamma2 = {gains.gamma2:.4g} is below the guarantee bound {bound:.4g}; "
                      "convergence is not certified", stacklevel=2)
    p_star = solve_ne(game, constants=constants)
    target = np.tile(p_star, n)
    ts, dists = [], []

    def observer(step, t, x):
        if step % 10 == 0:
            ts.append(t)
            dists.append(float(np.linalg.norm(x[:, 0] - target)))

    final = integrate(sys, P0.reshape(n * n, 1), 0.0, t_final, h, observer, step=rk4_lifted_step)
    return GeneratorTrajectory(t=np.array(ts), dist=np.array(dists),
                               final_estimates=final.reshape(n, n), p_star=p_star)
