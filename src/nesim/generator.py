"""Distributed gradient-play reference signal generator.

Each agent integrates a local copy of the full strategy profile: its own
strategy follows the negative partial gradient evaluated on its local copy,
and every entry is additionally dragged toward the neighbors' copies through
the communication graph. The stack of all copies converges exponentially to
consensus on the Nash equilibrium when the consensus gain is large enough.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, require
from .game import (GameSpec, GradientConstants, estimate_constants, extended_pseudo_gradient,
                   solve_ne)
from .graph import CONNECTIVITY_EPS, CommGraph, lambda2, laplacian
from .numerics import OdeSystem, integrate


@dataclass(frozen=True)
class GeneratorGains:
    """Gradient gain (sets the time scale) and consensus gain."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        require("gains.gamma1", self.gamma1, 0 < self.gamma1 < np.inf, "finite and > 0")
        require("gains.gamma2", self.gamma2, 0 < self.gamma2 < np.inf, "finite and > 0")


@dataclass
class GeneratorState:
    """Stacked estimate matrix; row i is agent i's copy of the profile.

    The diagonal entry of row i is agent i's actual reference strategy.
    """

    estimates: np.ndarray

    def __post_init__(self):
        self.estimates = np.array(self.estimates, dtype=float)
        n = self.estimates.shape[0]
        if self.estimates.shape != (n, n):
            raise ValueError("estimates must be square")

    @classmethod
    def zeros(cls, n: int) -> "GeneratorState":
        return cls(np.zeros((n, n)))


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


def generator_rhs(game: GameSpec, g: CommGraph, gains: GeneratorGains,
                  state: GeneratorState | np.ndarray) -> np.ndarray:
    """Time derivative of the estimate matrix.

    Row i evolves by consensus with the neighbors' rows; the diagonal entry
    additionally descends agent i's partial gradient evaluated on row i.
    Equals the stacked form ``-gamma1 * (Rsel^T F_ext(p) + gamma2 * (L kron I) p)``
    row-major.
    """
    P = state.estimates if isinstance(state, GeneratorState) else np.asarray(state, dtype=float)
    n = game.n
    dP = -gains.gamma1 * gains.gamma2 * (laplacian(g) @ P)
    idx = np.arange(n)
    dP[idx, idx] -= gains.gamma1 * extended_pseudo_gradient(game, P)
    return dP


@dataclass
class GeneratorTrajectory:
    """Distance to the stacked equilibrium sampled along the run."""

    t: np.ndarray
    dist: np.ndarray
    final_estimates: np.ndarray
    p_star: np.ndarray

    def log_dist_slope(self, t_lo: float, t_hi: float) -> float:
        """Least-squares slope of ``log(dist)`` over ``[t_lo, t_hi]``."""
        mask = (self.t >= t_lo) & (self.t <= t_hi)
        vals = np.log(np.maximum(self.dist[mask], 1e-300))
        return float(np.polyfit(self.t[mask], vals, 1)[0])


def run_generator(game: GameSpec, g: CommGraph, gains: GeneratorGains,
                  init: GeneratorState, t_final: float, h: float,
                  record_every: int = 10) -> GeneratorTrajectory:
    """Integrate the generator alone and record the distance to equilibrium.

    The equilibrium used for reporting comes from the centralized oracle
    `solve_ne`; the dynamics themselves never see it. A consensus gain below
    `min_gamma2` only triggers a warning, since the bound is sufficient, not
    necessary.
    """
    constants = estimate_constants(game)
    bound = min_gamma2(constants, g)
    if gains.gamma2 < bound:
        warnings.warn(f"gamma2 = {gains.gamma2:.4g} is below the guarantee bound {bound:.4g}; "
                      "convergence is not certified", stacklevel=2)
    p_star = solve_ne(game, constants=constants)
    target = np.tile(p_star, game.n)

    n = game.n
    sys = OdeSystem(
        dimension=n * n,
        rhs=lambda t, x: generator_rhs(game, g, gains, x.reshape(n, n)).ravel(),
    )
    ts, dists = [], []

    def observer(step, t, x):
        if step % record_every == 0:
            ts.append(t)
            dists.append(float(np.linalg.norm(x - target)))

    final = integrate(sys, init.estimates.ravel(), 0.0, t_final, h, observer)
    return GeneratorTrajectory(t=np.array(ts), dist=np.array(dists),
                               final_estimates=final.reshape(n, n), p_star=p_star)
