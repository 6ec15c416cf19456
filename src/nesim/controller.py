"""Distributed state-feedback law, diagnostic coordinate transform, and the
empirical gain-escalation loop.

The control law is linear in the agents' own references, the chain states
and the compensator states: `control_rows` writes its rows ``U`` once and
the closed loop places them. Its gain structure comes from a backstepping
recursion, which the tests' oracles fold one level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EscalationExhausted, require
from .internal_model import InternalModelBank
from .plant import SteadyState

if TYPE_CHECKING:
    from .simulation import ClosedLoopTrajectory, Scenario

STATE_NORM_LIMIT = 1e6   # divergence threshold for escalation runs
TRACKING_TOL = 1e-2      # final tracking error a passing run must beat


@dataclass(frozen=True)
class ControllerGains:
    """Backstepping gains, one positive value per agent and chain level."""

    k: np.ndarray  # (n_agents, r)

    def __post_init__(self):
        k = np.atleast_2d(np.array(self.k, dtype=float))
        require("controller.k", k, ((0 < k) & (k < np.inf)).all(), "finite and > 0 everywhere")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    @classmethod
    def uniform(cls, n_agents: int, r: int, value: float) -> "ControllerGains":
        return cls(np.full((n_agents, r), float(value)))

    def scaled(self, factor: float) -> "ControllerGains":
        with np.errstate(over="ignore"):  # an overflowing gain is rejected as not finite
            return ControllerGains(self.k * factor)


def control_rows(gains: ControllerGains, bank: InternalModelBank,
                 ablate: bool = False) -> np.ndarray:
    """The control law as rows ``U`` over ``[p; x; eta]``, so that ``u = U [p; x; eta]``.

    ``p`` holds the agents' own references, ``x`` the chain states
    level-major and ``eta`` the bank's compensators (`InternalModelBank.rows`).
    Chain level s is compared against read-out s - 1 (the first against
    ``p``) and weighted by the cumulative gain ``k_s ... k_r``; the top
    read-out is fed forward. ``ablate=True`` drops every read-out, leaving
    plain chain feedback; this deliberately disables disturbance rejection.
    """
    _, _, Psi, owner = bank.rows
    n, r = gains.k.shape
    coeff = np.cumprod(gains.k[:, ::-1], axis=1)[:, ::-1]  # column s: k_s ... k_r
    agents = np.arange(n)
    U = np.zeros((n, n * (r + 1) + len(owner)))
    U[agents, agents] = coeff[:, 0]
    for s in range(r):
        U[agents, n * (s + 1) + agents] = -coeff[:, s]
    if not ablate:
        level, agent = np.divmod(owner, n)
        cols = np.arange(len(owner))
        weight = np.column_stack([coeff[:, 1:], np.ones(n)])[agent, level]  # 1 for the top
        U[agent, n * (r + 1) + cols] = weight * Psi[owner, cols]
    return U


def psi_readouts(bank: InternalModelBank, eta: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-level compensator read-outs ``Psi_s eta_s``, each shaped (N,)."""
    _, _, Psi, _ = bank.rows
    return list((Psi @ np.concatenate([np.ravel(e) for e in eta])).reshape(bank.r, -1))


@dataclass
class TransformedState:
    """Error coordinates relative to the regulated manifold (diagnostics)."""

    z_bar: np.ndarray               # (N, n_z)
    x_bar: np.ndarray               # (r, N)
    eta_tilde: tuple                # per level, (N, n_s)

    def max_abs(self) -> float:
        return max(float(np.abs(self.z_bar).max()), float(np.abs(self.x_bar).max()),
                   max(float(np.abs(e).max()) for e in self.eta_tilde))


def transform(z: np.ndarray, x: np.ndarray, eta: Sequence[np.ndarray],
              bank: InternalModelBank, steady: SteadyState, theta: Sequence[np.ndarray],
              p: np.ndarray, v: np.ndarray) -> TransformedState:
    """Shift the closed-loop state into error coordinates.

    ``z`` is the zero-dynamics state ``(N, n_z)`` and ``x`` the chain
    ``(r, N)``. Requires truth data (steady-state chain, generator
    references, and the ideal compensator states ``theta``), so it is only
    available on the simulation side, never to the controller.
    """
    # chain level s + 1 against the read-out of compensator level s, the first against p
    x_bar = np.asarray(x, dtype=float) - np.vstack([p] + psi_readouts(bank, eta)[:-1])
    eta_tilde = tuple(
        np.asarray(eta[s], dtype=float) - np.asarray(theta[s], dtype=float)
        - bank.levels[s].N * x_bar[s][:, None]
        for s in range(bank.r)
    )
    return TransformedState(z_bar=np.asarray(z, dtype=float) - steady.z_star(v), x_bar=x_bar,
                            eta_tilde=eta_tilde)


@dataclass(frozen=True)
class EscalationResult:
    """Outcome of the gain search: the passing round's scenario and its run."""

    scenario: Scenario   # the input with its gains times ``multiplier``
    rounds: int          # 1-based index of the passing attempt
    multiplier: float    # total factor applied to the start gains
    trajectory: ClosedLoopTrajectory  # the passing run


def escalate_gains(scenario: Scenario, run_fn=None) -> EscalationResult:
    """Find stabilizing gains by geometric escalation.

    Runs the closed loop; a run passes when it stays finite, keeps the state
    norm below ``STATE_NORM_LIMIT``, and ends with every tracking error
    below ``TRACKING_TOL``. On failure every backstepping gain and the
    generator's gradient gain are multiplied by ``scenario.escalation.factor``
    and the scenario is retried, for at most ``scenario.escalation.max_rounds``
    rounds. This is the constructive substitute for the existence-only
    gain argument: the returned gains are certified for the scenario's
    initial-condition box radius by the run itself, nothing more.

    Round ``m`` runs ``scenario.escalated(factor ** (m - 1))``, starting from
    `Scenario.controller_gains`; each round keeps the scenario's synthesis.
    ``run_fn(scenario)`` returns the passing run or None; the default is
    `closed_loop_passes`.

    Raises
    ------
    EscalationExhausted
        If no attempt passes within ``max_rounds``, or the gains overflow first.
    """
    factor, max_rounds = scenario.escalation.factor, scenario.escalation.max_rounds
    if run_fn is None:
        from .simulation import closed_loop_passes  # lazy: simulation imports us
        run_fn = closed_loop_passes
    start = scenario.controller_gains.k.max()
    for attempt in range(max_rounds):
        try:
            mult = factor ** attempt
            candidate = scenario.escalated(mult)
        except (OverflowError, ValueError):  # so would every later round's
            raise EscalationExhausted(f"the gains overflow at round {attempt + 1} (factor "
                                      f"{factor}, start {start:.3g})") from None
        passing = run_fn(candidate)
        if passing is not None:
            return EscalationResult(candidate, attempt + 1, mult, passing)
    raise EscalationExhausted(f"no passing gains within {max_rounds} rounds "
                              f"(factor {factor}, start {start:.3g})")
