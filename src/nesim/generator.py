"""Distributed gradient-play reference signal generator.

Each agent integrates a local copy of the full strategy profile: its own
strategy follows the negative partial gradient evaluated on its local copy,
and every entry is additionally dragged toward the neighbors' copies through
the communication graph. The stack of all copies converges exponentially to
consensus on the Nash equilibrium when the consensus gain is large enough.

The generator is linear in ``[vec P; 1; partials]``: `generator_rows` writes
that map once, `partials_bind` fills a custom game's partials, and
`run_generator` steps it by RK4 stages folded into the map, in a workspace
of `numerics.rk4_lifted_steps`, as the closed loop is stepped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import Disconnected, NonFiniteState, require
from .game import GameSpec, GradientConstants, QuadraticAggregativeGame, row_partial
from .graph import CONNECTIVITY_EPS, CommGraph, lambda2, laplacian
from .numerics import integrate, kept_rows, rk4_lifted_steps

if TYPE_CHECKING:
    from .simulation import Scenario


@dataclass(frozen=True)
class GeneratorGains:
    """Gradient gain (sets the time scale) and consensus gain.

    A ``gamma2`` of None is auto: `Scenario.synthesized` resolves it from the
    guarantee bound.
    """

    gamma1: float
    gamma2: Optional[float]

    def __post_init__(self):
        require("gains.gamma1", self.gamma1, 0 < self.gamma1 < np.inf, "finite and > 0")
        if self.gamma2 is not None:
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


def partials_bind(game: GameSpec, estimates: np.ndarray, partials: np.ndarray) -> tuple:
    """Bind the fill of a custom game's partials, each agent's on its own estimate row.

    ``estimates`` is a ``(N*N, B)`` view of ``vec P`` (row-major) per column
    and ``partials`` the ``(N, B)`` rows the fill writes. Returns ``(fill,)``,
    where ``fill()`` overwrites ``partials`` from what ``estimates`` holds at
    each call, or ``()`` for a quadratic game: its extended gradient is
    affine and already in `generator_rows`. The views are taken once, here.

    The fill runs one stencil per distinct estimate block: the first column
    that holds a block's bytes gets `game.row_partial` once per agent, on its
    own rows, and every later column with the same bytes copies those
    partials. The generator reads no plant state and `run` starts every
    column at the same ``p0``, so the columns of a batch share one block and
    one stencil until one diverges, whose NaN strategies then cost no call
    (`row_partial`). The costs are deterministic, so column ``b`` gets the
    bits its own block gives. Bytes, not ``==``: ``-0.0 == 0.0`` and NaN is
    not equal to itself.
    """
    if isinstance(game, QuadraticAggregativeGame):
        return ()
    n, size = game.n, estimates[:, 0].nbytes  # size: bytes per column
    # one (n, n) view per column: the estimate rows of a lift buffer are contiguous
    blocks = estimates.reshape(n, n, -1).transpose(2, 0, 1)
    columns = estimates.T  # tobytes() lays the columns out one after another
    # per column: its bytes, partials and each agent's cost and estimate row
    lanes = [(slice(b * size, (b + 1) * size), out, tuple(zip(range(n), game.costs, block)))
             for b, (out, block) in enumerate(zip(partials.T, blocks))]

    def fill() -> None:
        data, filled = columns.tobytes(), {}  # filled: each block's partials, by its bytes
        for span, out, agents in lanes:
            if (first := filled.setdefault(data[span], out)) is out:
                for i, cost, row in agents:
                    out[i] = row_partial(cost, i, row)
            else:
                out[...] = first

    return (fill,)


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


def run_generator(scenario: Scenario) -> GeneratorTrajectory:
    """Integrate the scenario's generator alone and record its distance to equilibrium.

    The game, graph, ``gains.gamma1``, start ``p0`` (zeros if None), horizon,
    step and decimation (the distance is kept at the steps of
    `numerics.kept_rows`, as `simulation.run` keeps its states) are the
    scenario's; ``gamma2``, the equilibrium and the constants come from
    `Scenario.synthesized`, and the dynamics never see the equilibrium.
    `numerics.integrate` steps the rows of `generator_rows` in a workspace of
    `numerics.rk4_lifted_steps`. A consensus gain below the synthesis's
    ``min_gamma2`` only warns, since the bound is sufficient, not necessary.

    Raises
    ------
    NonFiniteState
        If the estimates become non-finite, naming the time they do: the
        observer reads it off the first non-finite state of the block
        `numerics.integrate` hands over.
    """
    game, n, h, dec = scenario.game, scenario.n, scenario.dt, scenario.decimate
    synthesis = scenario.synthesized()
    rows = generator_rows(game, scenario.graph, scenario.gains.gamma1, synthesis.gamma2)

    def bind(lifted: np.ndarray) -> tuple:
        return partials_bind(game, lifted[:n * n], lifted[n * n + 1:])

    steps = rk4_lifted_steps(rows[None], h, bind)

    if synthesis.gamma2 < synthesis.min_gamma2:
        warnings.warn(f"gamma2 = {synthesis.gamma2:.4g} is below the guarantee bound "
                      f"{synthesis.min_gamma2:.4g}; convergence is not certified", stacklevel=2)
    target = np.tile(synthesis.p_star, n)
    ts, dists = [], []

    def observer(k, t, xs):
        bad = ~(np.abs(xs).max(axis=(1, 2)) < np.inf)
        if bad.any():
            raise NonFiniteState(f"non-finite generator state at t={t[bad.argmax()]:.6g}")
        rows = kept_rows(k, len(xs), scenario.n_steps, dec)
        ts.append(t[rows])
        dists.append(np.linalg.norm(xs[rows, :, 0] - target, axis=1))

    P0 = np.zeros((n, n)) if scenario.p0 is None else scenario.p0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised, not warned
        final = integrate(steps, P0.reshape(n * n, 1), scenario.n_steps, observer)
    return GeneratorTrajectory(t=np.concatenate(ts), dist=np.concatenate(dists),
                               final_estimates=final.reshape(n, n), p_star=synthesis.p_star)
