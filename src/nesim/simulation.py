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
from .game import (GameSpec, QuadraticAggregativeGame, estimate_constants,
                   extended_pseudo_gradient, solve_ne)
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
class Scenario:
    """Everything needed to reproduce one closed-loop experiment."""

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

    def __post_init__(self):
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("t_final and dt must be positive")
        if not is_connected(self.graph):
            raise ValueError("communication graph must be connected")

    @property
    def n(self) -> int:
        return self.game.n


@dataclass(frozen=True)
class StateLayout:
    """Index bookkeeping for the stacked closed-loop state."""

    n_agents: int
    n_v: int
    n_z: int
    r: int
    im_orders: tuple

    @property
    def dim(self) -> int:
        n = self.n_agents
        return n * n + self.n_v + n * self.n_z + self.r * n + n * sum(self.im_orders)

    def offsets(self) -> dict:
        n = self.n_agents
        out, pos = {}, 0
        for name, size in (("P", n * n), ("v", self.n_v), ("z", n * self.n_z),
                           ("x", self.r * n)):
            out[name] = (pos, pos + size)
            pos += size
        eta = []
        for order in self.im_orders:
            eta.append((pos, pos + n * order))
            pos += n * order
        out["eta"] = tuple(eta)
        return out


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
        off = lay.offsets()
        P = state[off["P"][0]:off["P"][1]].reshape(n, n)
        v = state[off["v"][0]:off["v"][1]]
        z = state[off["z"][0]:off["z"][1]].reshape(n, lay.n_z)
        x = state[off["x"][0]:off["x"][1]].reshape(lay.r, n)
        eta = [state[a:b].reshape(n, lay.im_orders[s]) for s, (a, b) in enumerate(off["eta"])]
        return P, v, z, x, eta

    def control(self, state: np.ndarray) -> np.ndarray:
        """Control input of every agent, ``U @ state`` (see `control_law`)."""
        return self.control_rows @ state

    def manifold_state(self, v0: np.ndarray) -> np.ndarray:
        """State on the regulated manifold with the generator at equilibrium."""
        n, lay = self.layout.n_agents, self.layout
        v0 = np.asarray(v0, dtype=float)
        P = np.tile(self.p_star, (n, 1))  # every row at the equilibrium profile
        z = self.steady.z_star(v0)
        x = np.empty((lay.r, n))
        x[0] = self.p_star
        eta = []
        for s, level in enumerate(self.bank.levels):
            stack = self.steady.derivative_stack(s + 2, v0, level.order)  # (order, N)
            theta = np.einsum("ijk,ki->ij", level.T, stack)
            eta.append(theta)
            if s + 1 < lay.r:
                x[s + 1] = np.einsum("ij,ij->i", level.Psi, theta)
        return np.concatenate([P.ravel(), v0, z.ravel(), x.ravel()]
                              + [e.ravel() for e in eta])

    def ideal_compensators(self, v: np.ndarray) -> list[np.ndarray]:
        """The compensator states that exactly reproduce the steady signals."""
        out = []
        for s, level in enumerate(self.bank.levels):
            stack = self.steady.derivative_stack(s + 2, v, level.order)
            out.append(np.einsum("ijk,ki->ij", level.T, stack))
        return out


def _stage(name: str, fn):
    """Run one synthesis step, naming the failing component on error."""
    try:
        return fn()
    except NesimError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def assemble(scenario: Scenario, gains: ControllerGains | None = None,
             gamma1: float | None = None, ablate: bool = False,
             rng: np.random.Generator | None = None) -> AssembledLoop:
    """Wire generator, exosystem, plants, compensators, and control law.

    Draws the uncertainty (first consumer of the scenario's seeded stream)
    and synthesizes the internal-model bank and the equilibrium oracle.
    Synthesis failures carry the failing component's name.
    """
    n = scenario.n
    model = scenario.plant
    if model.n_agents != n:
        raise ValueError(f"plant has {model.n_agents} agents, game has {n}")
    rng = rng if rng is not None else np.random.default_rng(scenario.seed)

    constants = _stage("game constants", lambda: estimate_constants(scenario.game))
    p_star = _stage("equilibrium oracle", lambda: solve_ne(scenario.game, constants=constants))
    gamma2 = (AUTO_GAMMA2_MARGIN * _stage("consensus gain bound",
                                          lambda: min_gamma2(constants, scenario.graph))
              if scenario.gamma2_auto else scenario.gains.gamma2)
    bank = _stage("internal-model synthesis",
                  lambda: synthesize_bank(model.im_polys, n,
                                          stabilizers=scenario.im_stabilizers,
                                          preset=scenario.im_preset))
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

    off = layout.offsets()
    pa, pb = off["P"]
    va, vb = off["v"]
    za, xb = off["z"][0], off["x"][1]
    p_diag = pa + np.arange(n) * (n + 1)

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        out = A.dot(state)
        out += c
        plant_rows = out[za:xb]  # in-place view: `out[za:xb] +=` would copy back
        plant_rows += plant_nl(state[za:xb], state[va:vb])
        if game_nl is not None:
            out[p_diag] -= g1 * game_nl(state[pa:pb].reshape(n, n))
        return out

    return AssembledLoop(dimension=layout.dim, rhs=rhs, scenario=scenario, layout=layout,
                         bank=bank, gains=gains, gamma1=g1, gamma2=float(gamma2),
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
    off = layout.offsets()
    pa, pb = off["P"]
    va, vb = off["v"]
    za, xa, xb = off["z"][0], off["x"][0], off["x"][1]
    agents = np.arange(n)
    p_diag = pa + agents * (n + 1)
    A = np.zeros((dim, dim))
    c = np.zeros(dim)

    A[pa:pb, pa:pb] = -gamma1 * gamma2 * np.kron(laplacian(scenario.graph), np.eye(n))
    game = scenario.game
    if isinstance(game, QuadraticAggregativeGame):
        # entry i of the extended gradient is Jacobian row i applied to estimate row i
        G = game.jacobian()
        for i in range(n):
            A[p_diag[i], pa + i * n:pa + (i + 1) * n] -= gamma1 * G[i]
        c[p_diag] = -gamma1 * game.gradient_constant()
    A[va:vb, va:vb] = scenario.exo.S

    n_zx = xb - za
    v_cols = J.shape[1] - n_zx
    if J.shape[0] != n_zx or not 0 <= v_cols <= layout.n_v:
        raise ValueError(f"plant drift split has shape {J.shape}; expected {n_zx} rows and "
                         f"{n_zx} to {n_zx + layout.n_v} columns")
    A[za:xb, za:xb] = J[:, :n_zx]
    A[za:xb, va:va + v_cols] = J[:, n_zx:]
    shifted = np.arange(xa, xb - n)
    A[shifted, shifted + n] += 1.0

    # compensator dynamics and read-outs Psi_s eta_s, one row per (level, agent)
    ea = off["eta"][0][0]
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
    A[xb - n:xb] += U

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
    """Integrate the closed loop and record the output-side signals.

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
        plant_dim = lay.dim - n * n - lay.n_v
        draws = rng.uniform(-scenario.R, scenario.R, size=plant_dim)
        P0 = np.zeros(n * n) if scenario.p0 is None else np.asarray(scenario.p0, dtype=float).ravel()
        state = np.concatenate([P0, v0, draws])
    else:
        raise ValueError(f"unknown init_mode {init_mode!r}")

    n_steps = int(round(t_end / h))
    target = np.tile(loop.p_star, n)
    off = lay.offsets()
    pa, pb = off["P"]
    va, vb = off["v"]
    xa = off["x"][0]
    p_diag = pa + np.arange(n) * (n + 1)

    ts, ys, ps, es, us, dists, vs = [], [], [], [], [], [], []
    max_norm = 0.0
    diverged = False
    diverged_t = None
    aborted = False

    def record(t, s):
        refs = s[p_diag]
        y = s[xa:xa + n].copy()
        ts.append(t)
        ys.append(y)
        ps.append(refs)
        es.append(y - refs)
        us.append(loop.control(s))
        dists.append(float(np.linalg.norm(s[pa:pb] - target)))
        vs.append(s[va:vb].copy())

    t = 0.0
    record(t, state)
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
                record(t, state)
            if abort_norm is not None and max_norm > abort_norm:
                aborted = True
                break

    return ClosedLoopTrajectory(
        t=np.array(ts), y=np.array(ys), p=np.array(ps), e=np.array(es),
        u=np.array(us), ne_dist=np.array(dists), p_star=loop.p_star,
        v=np.array(vs), max_state_norm=max_norm, diverged=diverged,
        diverged_t=diverged_t, aborted_norm=aborted, gamma1=loop.gamma1,
        gamma2=loop.gamma2, gains_k=loop.gains.k, seed=seed,
    )


def closed_loop_passes(scenario: Scenario, gains: ControllerGains, gamma1: float) -> bool:
    """Pass/fail predicate used by the gain-escalation loop."""
    traj = run(scenario, gains=gains, gamma1=gamma1, abort_norm=STATE_NORM_LIMIT)
    if traj.diverged or traj.aborted_norm or traj.max_state_norm > STATE_NORM_LIMIT:
        return False
    return float(np.abs(traj.e[-1]).max()) <= TRACKING_TOL


def metrics(traj: ClosedLoopTrajectory) -> dict:
    """Summary statistics of a (non-diverged) trajectory.

    The equilibrium-distance slope is a least-squares fit of the log
    distance over the second half of the horizon; it is NaN when the
    distance is identically zero there (nothing to fit).
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
    t_mid = (traj.t[0] + traj.t[-1]) / 2.0
    mask = traj.t >= t_mid
    window = traj.ne_dist[mask]
    if mask.sum() >= 2 and window.max() > 1e-290:
        logs = np.log(np.maximum(window, 1e-300))
        out["ne_log_slope"] = float(np.polyfit(traj.t[mask], logs, 1)[0])
    else:
        out["ne_log_slope"] = float("nan")
    return out


def write_csv(traj: ClosedLoopTrajectory, path) -> None:
    """Export the trajectory with a fixed column schema.

    Columns: ``t, p_star_1..N, y_1..N, p_1..N, e_1..N, u_1..N, ne_dist``.
    Values are printed with 17 significant digits ('.' decimal separator),
    so identical runs produce byte-identical files.
    """
    n = traj.p_star.shape[0]
    cols = (["t"] + [f"p_star_{i + 1}" for i in range(n)]
            + [f"y_{i + 1}" for i in range(n)] + [f"p_{i + 1}" for i in range(n)]
            + [f"e_{i + 1}" for i in range(n)] + [f"u_{i + 1}" for i in range(n)]
            + ["ne_dist"])
    fmt = lambda x: format(float(x), ".17g")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(traj.t)):
            row = ([fmt(traj.t[k])] + [fmt(v) for v in traj.p_star]
                   + [fmt(v) for v in traj.y[k]] + [fmt(v) for v in traj.p[k]]
                   + [fmt(v) for v in traj.e[k]] + [fmt(v) for v in traj.u[k]]
                   + [fmt(traj.ne_dist[k])])
            fh.write(",".join(row) + "\n")


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
