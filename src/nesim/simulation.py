"""Closed-loop assembly and simulation.

One flat state vector stacks the generator's estimate matrix, the
disturbance state, and every agent's plant and compensator states; a single
fixed-step integrator advances it. The information structure stays
distributed (each block's derivative reads only its own and neighbor data),
but integrating centrally keeps the numerics exact to the method order and
the output deterministic. Everything except the plant drift and a custom
game's gradient is affine, so `assemble` builds the derivative once as
``A x + c`` plus the plant drift's nonlinear remainder (and that gradient).

State layout (level-major): ``[estimates (N*N) | v (n_v) | z (N*n_z) |
chain x (r*N) | compensators eta_1 (N*n_1) .. eta_r (N*n_r)]``. Seeded draws
happen in a fixed order: uncertainty, disturbance initial state, then the
plant/compensator initial box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .controller import ControllerGains, TRACKING_TOL, STATE_NORM_LIMIT
from .errors import NesimError, NonFiniteState
from .game import (GameSpec, GradientConstants, QuadraticAggregativeGame,
                   estimate_constants, extended_pseudo_gradient, solve_ne)
from .generator import GeneratorGains, min_gamma2
from .graph import CommGraph, is_connected, laplacian
from .internal_model import InternalModelBank, synthesize_bank
from .numerics import OdeSystem, rk4_step
from .plant import (Exosystem, PlantModel, SteadyState, Uncertainty, drift_split,
                    sample_uncertainty, steady_state_chain)

AUTO_GAMMA2_MARGIN = 1.25
DEFAULT_START_GAIN = 4.0


@dataclass(frozen=True)
class EscalationSpec:
    factor: float = 2.0
    max_rounds: int = 12


@dataclass(frozen=True)
class ScenarioSynthesis:
    """What every run of a scenario shares; ``source`` holds the fields it came from."""

    constants: GradientConstants
    p_star: np.ndarray
    gamma2: float
    bank: InternalModelBank
    source: tuple = field(repr=False)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop experiment.

    ``synthesis`` keeps the seed-independent results (`synthesized`);
    `dataclasses.replace` carries it unless it replaces a field it depends on.
    """

    game: GameSpec
    graph: CommGraph
    plant: PlantModel
    exo: Exosystem
    w_box: np.ndarray
    gains: GeneratorGains            # gamma2 may be a placeholder; see gamma2_auto
    gamma2_auto: bool = False        # resolve gamma2 from the guarantee bound
    controller_k: Optional[np.ndarray] = None   # None means auto (defaults + escalation)
    escalation: EscalationSpec = field(default_factory=EscalationSpec)
    im_preset: Optional[str] = None
    im_stabilizers: Optional[tuple] = None      # explicit per (agent, level)
    t_final: float = 30.0
    dt: float = 1e-3
    seed: int = 0
    R: float = 1.0
    decimate: int = 10
    p0: Optional[np.ndarray] = None  # generator initial estimates, zeros if None
    synthesis: Optional[ScenarioSynthesis] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("t_final and dt must be positive")
        if self.decimate < 1:
            raise ValueError("decimate must be at least 1")
        if not is_connected(self.graph):
            raise ValueError("communication graph must be connected")
        kept = self.synthesis
        if kept is not None and any(a is not b for a, b in
                                    zip(kept.source, self._synthesis_source())):
            object.__setattr__(self, "synthesis", None)  # derived from replaced fields

    @property
    def n(self) -> int:
        return self.game.n

    def _synthesis_source(self) -> tuple:
        return (self.game, self.graph, self.plant, self.exo, self.gains, self.gamma2_auto,
                self.im_preset, self.im_stabilizers)

    def synthesized(self, constants: GradientConstants | None = None) -> ScenarioSynthesis:
        """Game constants, equilibrium, ``gamma2`` and bank, computed on first use.

        Pass ``constants`` when already known. Failures name the failing component.
        """
        if self.synthesis is None:
            if constants is None:
                constants = _stage("game constants", estimate_constants, self.game)
            p_star = _stage("equilibrium oracle", solve_ne, self.game, constants=constants)
            p_star.setflags(write=False)
            gamma2 = (AUTO_GAMMA2_MARGIN * _stage("consensus gain bound", min_gamma2,
                                                  constants, self.graph)
                      if self.gamma2_auto else self.gains.gamma2)
            bank = _stage("internal-model synthesis", synthesize_bank, self.plant.im_polys,
                          self.n, stabilizers=self.im_stabilizers, preset=self.im_preset)
            object.__setattr__(self, "synthesis", ScenarioSynthesis(
                constants=constants, p_star=p_star, gamma2=float(gamma2), bank=bank,
                source=self._synthesis_source()))
        return self.synthesis


@dataclass(frozen=True)
class StateLayout:
    """Block slices of the stacked closed-loop state, computed once.

    ``P``, ``v``, ``z``, ``x`` and ``zx`` (the plant rows ``z`` through
    ``x``) are slices, ``eta`` holds one slice per compensator level,
    ``p_diag`` indexes each agent's estimate of its own strategy, and
    ``dim`` is the state dimension.
    """

    n_agents: int
    n_v: int
    n_z: int
    r: int
    im_orders: tuple

    def __post_init__(self):
        n, pos, blocks = self.n_agents, 0, []
        for size in (n * n, self.n_v, n * self.n_z, self.r * n, *(n * o for o in self.im_orders)):
            blocks.append(slice(pos, pos + size))
            pos += size
        P, v, z, x, *eta = blocks
        derived = dict(P=P, v=v, z=z, x=x, zx=slice(z.start, x.stop), eta=tuple(eta),
                       p_diag=P.start + np.arange(n) * (n + 1), dim=pos)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AssembledLoop(OdeSystem):
    """The stacked closed-loop ODE plus everything synthesis produced."""

    scenario: Scenario = None
    layout: StateLayout = None
    bank: InternalModelBank = None
    gains: ControllerGains = None
    gamma1: float = 0.0
    gamma2: float = 0.0
    p_star: np.ndarray = None
    w: Uncertainty = None
    steady: SteadyState = None
    ablate: bool = False
    control_rows: np.ndarray = None  # U, (N, dim): the control law as u = U @ state

    def unpack(self, state: np.ndarray):
        """Split a flat state into named, reshaped views."""
        n, lay = self.layout.n_agents, self.layout
        return (state[lay.P].reshape(n, n), state[lay.v], state[lay.z].reshape(n, lay.n_z),
                state[lay.x].reshape(lay.r, n),
                [state[blk].reshape(n, order) for blk, order in zip(lay.eta, lay.im_orders)])

    def control(self, state: np.ndarray) -> np.ndarray:
        """Control input of every agent, ``U @ state`` (see `control_law`)."""
        return self.control_rows @ state

    def manifold_state(self, v0: np.ndarray) -> np.ndarray:
        """State on the regulated manifold with the generator at equilibrium."""
        n, lay = self.layout.n_agents, self.layout
        v0 = np.asarray(v0, dtype=float)
        P = np.tile(self.p_star, (n, 1))  # every row at the equilibrium profile
        z = self.steady.z_star(v0)
        eta = self.ideal_compensators(v0)
        # chain level s + 1 sits at the read-out Psi theta of compensator level s
        x = np.vstack([self.p_star] + [np.einsum("ij,ij->i", level.Psi, theta)
                                       for level, theta in zip(self.bank.levels[:lay.r - 1], eta)])
        return np.concatenate([P.ravel(), v0, z.ravel(), x.ravel()]
                              + [e.ravel() for e in eta])

    def ideal_compensators(self, v: np.ndarray) -> list[np.ndarray]:
        """The compensator states that exactly reproduce the steady signals."""
        out = []
        for s, level in enumerate(self.bank.levels):
            stack = self.steady.derivative_stack(s + 2, v, level.order)
            out.append(np.einsum("ijk,ki->ij", level.T, stack))
        return out


def _stage(name: str, fn, *args, **kwargs):
    """Run one synthesis step, naming the failing component on error."""
    try:
        return fn(*args, **kwargs)
    except NesimError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def assemble(scenario: Scenario, gains: ControllerGains | None = None,
             gamma1: float | None = None, ablate: bool = False,
             rng: np.random.Generator | None = None) -> AssembledLoop:
    """Wire generator, exosystem, plants, compensators, and control law.

    Draws the uncertainty (first consumer of the scenario's seeded stream);
    the equilibrium, ``gamma2`` and the internal-model bank come from
    `Scenario.synthesized`.
    """
    n = scenario.n
    model = scenario.plant
    if model.n_agents != n:
        raise ValueError(f"plant has {model.n_agents} agents, game has {n}")
    rng = rng if rng is not None else np.random.default_rng(scenario.seed)

    synthesis = scenario.synthesized()
    p_star, gamma2, bank = synthesis.p_star, synthesis.gamma2, synthesis.bank
    w = sample_uncertainty(scenario.w_box, rng)
    steady = steady_state_chain(model, p_star, scenario.exo, w)

    if gains is None:
        gains = (ControllerGains(scenario.controller_k) if scenario.controller_k is not None
                 else ControllerGains.uniform(n, model.r, DEFAULT_START_GAIN))
    g1 = float(gamma1 if gamma1 is not None else scenario.gains.gamma1)

    layout = StateLayout(n_agents=n, n_v=scenario.exo.n_v, n_z=model.n_z, r=model.r,
                         im_orders=tuple(level.order for level in bank.levels))

    J, plant_nl = drift_split(model, w)
    A, c, U = _closed_loop_operator(scenario, layout, bank, gains, g1, gamma2, J, ablate)
    game = scenario.game
    # the quadratic game's extended gradient is affine and already in A and c
    game_nl = (None if isinstance(game, QuadraticAggregativeGame)
               else lambda P: extended_pseudo_gradient(game, P))

    P, v, zx, p_diag = layout.P, layout.v, layout.zx, layout.p_diag

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        out = A.dot(state)
        out += c
        plant_rows = out[zx]  # in-place view: `out[zx] +=` would copy back
        plant_rows += plant_nl(state[zx], state[v])
        if game_nl is not None:
            out[p_diag] -= g1 * game_nl(state[P].reshape(n, n))
        return out

    return AssembledLoop(dimension=layout.dim, rhs=rhs, scenario=scenario, layout=layout,
                         bank=bank, gains=gains, gamma1=g1, gamma2=gamma2,
                         p_star=p_star, w=w, steady=steady, ablate=ablate, control_rows=U)


def _closed_loop_operator(scenario: Scenario, layout: StateLayout, bank: InternalModelBank,
                          gains: ControllerGains, gamma1: float, gamma2: float,
                          J: np.ndarray, ablate: bool):
    """Affine part ``A x + c`` of the closed loop and the control rows ``U``.

    Each block is written from its own parameters: the generator's
    consensus ``-gamma1 gamma2 (L kron I)`` plus, for the quadratic game,
    its affine extended gradient on the diagonal entries; the exosystem
    ``S``; the plant drift's linear part ``J`` (see `drift_split`) and the
    chain shifts ``x_{s+1} -> dx_s``; the control law ``u = U x``; and the
    compensators ``M eta + N drive``, where level ``s`` is driven by
    ``x_{s+1}`` and the top level by ``u``. ``ablate`` drops the read-outs
    from ``U``. The remaining closed-loop terms are the plant drift's
    nonlinear remainder on the ``(z, x)`` rows and, for a custom game, the
    extended gradient on the diagonal estimate rows.
    """
    n, r, dim = layout.n_agents, layout.r, layout.dim
    P, v, zx, p_diag = layout.P, layout.v, layout.zx, layout.p_diag
    xa, ea = layout.x.start, layout.x.stop  # the compensators follow the chain
    agents = np.arange(n)
    A = np.zeros((dim, dim))
    c = np.zeros(dim)

    A[P, P] = -gamma1 * gamma2 * np.kron(laplacian(scenario.graph), np.eye(n))
    game = scenario.game
    if isinstance(game, QuadraticAggregativeGame):
        # entry i of the extended gradient is Jacobian row i applied to estimate row i
        G = game.jacobian()
        for i in range(n):
            A[p_diag[i], P.start + i * n:P.start + (i + 1) * n] -= gamma1 * G[i]
        c[p_diag] = -gamma1 * game.gradient_constant()
    A[v, v] = scenario.exo.S

    n_zx = zx.stop - zx.start
    v_cols = J.shape[1] - n_zx
    if J.shape[0] != n_zx or not 0 <= v_cols <= layout.n_v:
        raise ValueError(f"plant drift split has shape {J.shape}; expected {n_zx} rows and "
                         f"{n_zx} to {n_zx + layout.n_v} columns")
    A[zx, zx] = J[:, :n_zx]
    A[zx, v.start:v.start + v_cols] = J[:, n_zx:]
    shifted = np.arange(xa, ea - n)
    A[shifted, shifted + n] += 1.0

    # compensator dynamics and read-outs Psi_s eta_s, one row per (level, agent)
    reads = np.zeros((r * n, dim))
    N_flat = np.empty(dim - ea)
    drive_idx = np.empty(dim - ea, dtype=np.intp)
    pos = 0
    for s, level in enumerate(bank.levels):
        ns = level.order
        for i in range(n):
            rel, blk = slice(pos, pos + ns), slice(ea + pos, ea + pos + ns)
            A[blk, blk] = level.M[i]
            N_flat[rel] = level.N[i]
            drive_idx[rel] = s * n + i
            if not ablate:
                reads[s * n + i, blk] = level.Psi[i]
            pos += ns

    coeff = gains.cumulative()
    U = reads[(r - 1) * n:].copy()
    U[agents, p_diag] += coeff[:, 0]
    for s in range(r):
        U[agents, xa + s * n + agents] -= coeff[:, s]
    for s in range(1, r):
        U += coeff[:, s, None] * reads[(s - 1) * n:s * n]
    A[ea - n:ea] += U

    drives = np.zeros((r * n, dim))  # level-major: x_2 .. x_r, then u
    drives[np.arange((r - 1) * n), shifted + n] = 1.0
    drives[(r - 1) * n:] = U
    A[ea:] += N_flat[:, None] * drives[drive_idx]
    return A, c, U


@dataclass
class ClosedLoopTrajectory:
    """Recorded closed-loop signals on a uniform (decimated) grid."""

    t: np.ndarray
    y: np.ndarray        # (K, N) outputs
    p: np.ndarray        # (K, N) references
    e: np.ndarray        # (K, N) tracking errors y - p
    u: np.ndarray        # (K, N) control inputs
    ne_dist: np.ndarray  # (K,) distance of the stacked estimates to equilibrium
    p_star: np.ndarray
    v: np.ndarray        # (K, n_v) disturbance state (diagnostics)
    max_state_norm: float
    diverged: bool = False
    diverged_t: Optional[float] = None
    aborted_norm: bool = False
    gamma1: float = 1.0
    gamma2: float = 0.0
    gains_k: Optional[np.ndarray] = None
    seed: Optional[int] = None


def run(scenario: Scenario, gains: ControllerGains | None = None,
        gamma1: float | None = None, ablate: bool = False,
        seed: Optional[int] = None, t_final: Optional[float] = None,
        dt: Optional[float] = None, decimate: Optional[int] = None,
        init_mode: str = "box", abort_norm: Optional[float] = None) -> ClosedLoopTrajectory:
    """Integrate the closed loop and derive the output-side signals from the kept states.

    ``init_mode="box"`` draws plant and compensator initial states uniformly
    from the scenario's box (generator estimates start at the configured
    values, zero by default); ``"manifold"`` starts exactly on the regulated
    manifold with the generator at equilibrium. Divergence does not raise:
    the trajectory up to the failure is returned with the flag set.
    """
    seed = scenario.seed if seed is None else seed
    t_end = scenario.t_final if t_final is None else float(t_final)
    h = scenario.dt if dt is None else float(dt)
    dec = scenario.decimate if decimate is None else int(decimate)

    rng = np.random.default_rng(seed)
    loop = assemble(scenario, gains=gains, gamma1=gamma1, ablate=ablate, rng=rng)
    n, lay = scenario.n, loop.layout
    box = scenario.exo.v0_box
    v0 = rng.uniform(box[:, 0], box[:, 1])

    if init_mode == "manifold":
        state = loop.manifold_state(v0)
    elif init_mode == "box":
        draws = rng.uniform(-scenario.R, scenario.R, size=lay.dim - lay.z.start)
        P0 = np.zeros(n * n) if scenario.p0 is None else np.asarray(scenario.p0, dtype=float).ravel()
        state = np.concatenate([P0, v0, draws])
    else:
        raise ValueError(f"unknown init_mode {init_mode!r}")

    n_steps = int(round(t_end / h))
    # every kept state (step 0, each dec-th step and the last) and its step index
    X = np.empty((1 + -(-n_steps // dec), lay.dim))
    ks = np.zeros(len(X), dtype=np.int64)
    X[0] = state
    kept = 1
    max_norm = 0.0
    diverged = False
    diverged_t = None
    aborted = False

    t = 0.0
    # overflow on a diverging trajectory is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                state = rk4_step(loop, t, state, h)
            except NonFiniteState:
                diverged = True
                diverged_t = t + h
                break
            t = k * h
            max_norm = max(max_norm, float(np.abs(state).max()))
            if k % dec == 0 or k == n_steps:
                X[kept], ks[kept] = state, k
                kept += 1
            if abort_norm is not None and max_norm > abort_norm:
                aborted = True
                break

    # the signals own their data, so a kept trajectory does not pin the buffer
    X, ks = X[:kept], ks[:kept]
    y = X[:, lay.x.start:lay.x.start + n].copy()  # first chain level
    p = X[:, lay.p_diag]
    return ClosedLoopTrajectory(
        t=ks * h, y=y, p=p, e=y - p, u=X @ loop.control_rows.T,
        ne_dist=np.linalg.norm(X[:, lay.P] - np.tile(loop.p_star, n), axis=1),
        p_star=loop.p_star, v=X[:, lay.v].copy(), max_state_norm=max_norm,
        diverged=diverged, diverged_t=diverged_t, aborted_norm=aborted, gamma1=loop.gamma1,
        gamma2=loop.gamma2, gains_k=loop.gains.k, seed=seed,
    )


def closed_loop_passes(scenario: Scenario, gains: ControllerGains,
                       gamma1: float) -> Optional[ClosedLoopTrajectory]:
    """Pass/fail predicate of the gain-escalation loop: the passing run, or None.

    The norm abort never fires on a passing run, so it equals a plain `run`.
    """
    traj = run(scenario, gains=gains, gamma1=gamma1, abort_norm=STATE_NORM_LIMIT)
    if traj.diverged or traj.aborted_norm or not np.abs(traj.e[-1]).max() <= TRACKING_TOL:
        return None
    return traj


def metrics(traj: ClosedLoopTrajectory) -> dict:
    """Summary statistics of a (non-diverged) trajectory.

    The equilibrium-distance slope is a least-squares fit of the log
    distance over the second half of the decay: the samples above the
    roundoff floor ``1e-12 (1 + |stacked equilibrium|)`` from the midpoint
    of ``t[0]`` and the last such sample on. It is NaN with fewer than two
    such samples (nothing to fit).
    """
    final_e = np.abs(traj.e[-1])
    out = {
        "final_tracking": traj.e[-1].copy(),
        "final_tracking_max": float(final_e.max()),
        "final_ne_dist": float(traj.ne_dist[-1]),
        "final_output_vs_equilibrium_max": float(np.abs(traj.y[-1] - traj.p_star).max()),
        "peak_control": float(np.abs(traj.u).max()),
        "max_state_norm": traj.max_state_norm,
        "diverged": traj.diverged,
    }
    stacked_norm = np.sqrt(len(traj.p_star)) * np.linalg.norm(traj.p_star)
    fit = traj.ne_dist > 1e-12 * (1.0 + stacked_norm)
    if fit.any():
        fit &= traj.t >= (traj.t[0] + traj.t[fit][-1]) / 2.0
    out["ne_log_slope"] = (float(np.polyfit(traj.t[fit], np.log(traj.ne_dist[fit]), 1)[0])
                           if fit.sum() >= 2 else float("nan"))
    return out


def write_csv(traj: ClosedLoopTrajectory, path) -> None:
    """Export the trajectory with a fixed column schema.

    Columns: ``t, p_star_1..N, y_1..N, p_1..N, e_1..N, u_1..N, ne_dist``.
    Values are printed with 17 significant digits ('.' decimal separator),
    so identical runs produce byte-identical files.
    """
    n, K = traj.p_star.shape[0], len(traj.t)
    cols = (["t"] + [f"p_star_{i + 1}" for i in range(n)]
            + [f"y_{i + 1}" for i in range(n)] + [f"p_{i + 1}" for i in range(n)]
            + [f"e_{i + 1}" for i in range(n)] + [f"u_{i + 1}" for i in range(n)]
            + ["ne_dist"])
    rows = np.column_stack([traj.t, np.broadcast_to(traj.p_star, (K, n)), traj.y, traj.p,
                            traj.e, traj.u, traj.ne_dist])
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


def format_summary(m: dict) -> str:
    """Key-value text block for standard output."""
    lines = []
    for key, val in m.items():
        if isinstance(val, np.ndarray):
            val = "[" + ", ".join(format(float(x), ".6g") for x in val) + "]"
        elif isinstance(val, float):
            val = format(val, ".6g")
        lines.append(f"{key} = {val}")
    return "\n".join(lines)
