"""Distributed state-feedback law, diagnostic coordinate transform, and the
empirical gain-escalation loop.

The control law is linear in the measured chain states, the compensator
read-outs, and the agent's own reference; its gain structure comes from a
backstepping recursion, so `control_law` and `backstepping_feedback` are two
routes to the same algebra and are tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import EscalationExhausted
from .internal_model import InternalModelBank
from .plant import PlantState, SteadyState

if TYPE_CHECKING:
    from .simulation import ClosedLoopTrajectory

STATE_NORM_LIMIT = 1e6   # divergence threshold for escalation runs
TRACKING_TOL = 1e-2      # final tracking error a passing run must beat


@dataclass(frozen=True)
class ControllerGains:
    """Backstepping gains, one positive value per agent and chain level."""

    k: np.ndarray  # (n_agents, r)

    def __post_init__(self):
        k = np.atleast_2d(np.array(self.k, dtype=float))
        if (k <= 0).any():
            raise ValueError("all gains must be positive")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    @classmethod
    def uniform(cls, n_agents: int, r: int, value: float = 4.0) -> "ControllerGains":
        return cls(np.full((n_agents, r), float(value)))

    def scaled(self, factor: float) -> "ControllerGains":
        return ControllerGains(self.k * factor)

    def cumulative(self) -> np.ndarray:
        """``out[:, s] = k_s * k_{s+1} * ... * k_r`` (coefficients of the law)."""
        return np.cumprod(self.k[:, ::-1], axis=1)[:, ::-1]


def psi_readouts(bank: InternalModelBank, eta: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-level compensator read-outs ``Psi_s eta_s``, each shaped (N,)."""
    return [np.einsum("ij,ij->i", level.Psi, np.asarray(e, dtype=float))
            for level, e in zip(bank.levels, eta)]


def control_law(gains: ControllerGains, bank: InternalModelBank, state: PlantState,
                eta: Sequence[np.ndarray], p: np.ndarray, ablate: bool = False) -> np.ndarray:
    """Control input for every agent.

    Each chain state is compared against the previous level's compensator
    read-out (the first against the agent's own reference), weighted by the
    cumulative gain products, and the top-level read-out is added as
    feedforward. ``ablate=True`` zeroes every read-out term, leaving plain
    chain feedback; this deliberately disables disturbance rejection.
    """
    x = state.x
    r = bank.r
    reads = psi_readouts(bank, eta)
    if ablate:
        reads = [np.zeros_like(v) for v in reads]
    coeff = gains.cumulative()
    u = reads[r - 1].copy()
    for s in range(1, r + 1):
        prev = p if s == 1 else reads[s - 2]
        u -= coeff[:, s - 1] * (x[s - 1] - prev)
    return u


def backstepping_feedback(gains: ControllerGains, x_bar: np.ndarray) -> np.ndarray:
    """Transformed-coordinate feedback via the recursive gain construction.

    Independent evaluation route used to cross-check `control_law`: fold the
    transformed chain states one level at a time and feed back the top fold.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    r = x_bar.shape[0]
    xhat = x_bar[0]
    for s in range(1, r):
        xhat = x_bar[s] + gains.k[:, s - 1] * xhat
    return -gains.k[:, r - 1] * xhat


@dataclass
class TransformedState:
    """Error coordinates relative to the regulated manifold (diagnostics)."""

    z_bar: np.ndarray               # (N, n_z)
    x_bar: np.ndarray               # (r, N)
    eta_tilde: tuple                # per level, (N, n_s)

    def max_abs(self) -> float:
        return max(float(np.abs(self.z_bar).max()), float(np.abs(self.x_bar).max()),
                   max(float(np.abs(e).max()) for e in self.eta_tilde))


def transform(state: PlantState, eta: Sequence[np.ndarray], bank: InternalModelBank,
              steady: SteadyState, theta: Sequence[np.ndarray], p: np.ndarray,
              v: np.ndarray) -> TransformedState:
    """Shift the closed-loop state into error coordinates.

    Requires truth data (steady-state chain, generator references, and the
    ideal compensator states ``theta``), so it is only available on the
    simulation side, never to the controller.
    """
    reads = psi_readouts(bank, eta)
    r = bank.r
    x_bar = np.empty_like(state.x)
    x_bar[0] = state.x[0] - np.asarray(p, dtype=float)
    for s in range(1, r):
        x_bar[s] = state.x[s] - reads[s - 1]
    eta_tilde = tuple(
        np.asarray(eta[s], dtype=float) - np.asarray(theta[s], dtype=float)
        - bank.levels[s].N * x_bar[s][:, None]
        for s in range(r)
    )
    return TransformedState(z_bar=state.z - steady.z_star(v), x_bar=x_bar, eta_tilde=eta_tilde)


@dataclass(frozen=True)
class EscalationResult:
    """Outcome of the gain search: passing gains and the matching gradient gain."""

    gains: ControllerGains
    gamma1: float
    rounds: int          # 1-based index of the passing attempt
    multiplier: float    # total factor applied to the initial gains
    trajectory: Optional[ClosedLoopTrajectory] = None  # the passing run, if run_fn returned it


def escalate_gains(scenario, initial: ControllerGains, factor: float = 2.0,
                   max_rounds: int = 12, run_fn=None) -> EscalationResult:
    """Find stabilizing gains by geometric escalation.

    Runs the closed loop; a run passes when it stays finite, keeps the state
    norm below ``STATE_NORM_LIMIT``, and ends with every tracking error
    below ``TRACKING_TOL``. On failure every backstepping gain and the
    generator's gradient gain are multiplied by ``factor`` and the scenario
    is retried. This is the constructive substitute for the existence-only
    gain argument: the returned gains are certified for the scenario's
    initial-condition box radius by the run itself, nothing more.

    ``run_fn(scenario, gains, gamma1)`` is truthy on a pass. The default,
    `closed_loop_passes`, returns the passing run, kept as ``trajectory``.

    Raises
    ------
    EscalationExhausted
        If no attempt passes within ``max_rounds``.
    """
    if factor <= 1:
        raise ValueError("escalation factor must exceed 1")
    from .simulation import ClosedLoopTrajectory, closed_loop_passes  # lazy: simulation imports us
    if run_fn is None:
        run_fn = closed_loop_passes
    for attempt in range(max_rounds):
        mult = factor ** attempt
        candidate = initial.scaled(mult)
        gamma1 = scenario.gains.gamma1 * mult
        outcome = run_fn(scenario, candidate, gamma1)
        if outcome:
            traj = outcome if isinstance(outcome, ClosedLoopTrajectory) else None
            return EscalationResult(gains=candidate, gamma1=gamma1, rounds=attempt + 1,
                                    multiplier=mult, trajectory=traj)
    raise EscalationExhausted(f"no passing gains within {max_rounds} rounds "
                              f"(factor {factor}, start {initial.k.max():.3g})")
