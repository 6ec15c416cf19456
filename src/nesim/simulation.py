"""Closed-loop assembly and simulation.

One flat state vector stacks the generator's estimate matrix, the
disturbance state, and every agent's plant and compensator states; a single
fixed-step integrator advances it. The information structure stays
distributed (each block's derivative reads only its own and neighbor data),
but integrating centrally keeps the numerics exact to the method order and
the output deterministic. Everything except the plant drift and a custom
game's gradient is affine, so `assemble` builds the derivative once as
``A x + c`` plus the plant drift's nonlinear remainder (and that gradient).
Seeds integrated together are the columns of one ``(dim, B)`` state: only
the plant rows of ``A`` and the remainder depend on the seed's draw.

State layout (level-major): ``[estimates (N*N) | v (n_v) | z (N*n_z) |
chain x (r*N) | compensators eta_1 (N*n_1) .. eta_r (N*n_r)]``. Seeded draws
happen in a fixed order: uncertainty, disturbance initial state, then the
plant/compensator initial box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .controller import ControllerGains, TRACKING_TOL, STATE_NORM_LIMIT
from .errors import ConfigError, NesimError, NonFiniteState
from .game import (GameSpec, GradientConstants, QuadraticAggregativeGame, _central_partials,
                   estimate_constants, solve_ne)
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

    def layout(self) -> "StateLayout":
        """The closed-loop state layout (needs the internal-model bank, see `synthesized`)."""
        orders = tuple(level.order for level in self.synthesized().bank.levels)
        return StateLayout(n_agents=self.n, n_v=self.exo.n_v, n_z=self.plant.n_z,
                           r=self.plant.r, im_orders=orders)

    def kept_state_bytes(self) -> int:
        """Bytes of the states `run` keeps for one seed at this horizon, step and decimation."""
        n_steps = int(round(self.t_final / self.dt))
        return _kept_samples(n_steps, self.decimate) * self.layout().dim * 8


def _kept_samples(n_steps: int, decimate: int) -> int:
    """Samples `run` keeps of ``n_steps`` steps: step 0, every ``decimate``-th and the last."""
    return 1 + -(-n_steps // decimate)


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
    """The stacked closed-loop ODE for a batch of draws, plus everything synthesis produced.

    The batch is the trailing axis: ``rhs`` takes a ``(dim, B)`` state, one
    column per draw in ``draws``, and a loop with one draw also takes a flat
    ``(dim,)`` state. Columns never mix. Only ``operator`` (one ``A`` per
    column), ``draws`` and ``steadies`` differ between columns.
    """

    scenario: Scenario = None
    layout: StateLayout = None
    bank: InternalModelBank = None
    gains: ControllerGains = None
    gamma1: float = 0.0
    gamma2: float = 0.0
    p_star: np.ndarray = None
    draws: tuple = ()        # one Uncertainty per column
    steadies: tuple = ()     # one SteadyState per column
    ablate: bool = False
    control_rows: np.ndarray = None  # U, (N, dim): the control law as u = U @ state
    operator: np.ndarray = None      # (B, dim, dim): A of each column
    offset: np.ndarray = None        # (dim, 1): c, shared by every column

    @property
    def w(self) -> Uncertainty:
        """The draw of a one-column loop."""
        (w,) = self.draws
        return w

    @property
    def steady(self) -> SteadyState:
        """The steady-state chain of a one-column loop."""
        (steady,) = self.steadies
        return steady

    def select(self, keep) -> "AssembledLoop":
        """The loop restricted to the columns ``keep`` (a boolean mask), in order."""
        idx = np.flatnonzero(keep)
        draws = tuple(self.draws[i] for i in idx)
        A3 = self.operator[idx]
        _, plant_nl = drift_split(self.scenario.plant, np.stack([d.w for d in draws]))
        return replace(
            self, rhs=_closed_loop_rhs(self.layout, A3, self.offset, plant_nl,
                                       self.scenario.game, self.gamma1),
            draws=draws, steadies=tuple(self.steadies[i] for i in idx), operator=A3)

    def unpack(self, state: np.ndarray):
        """Split a flat state into named, reshaped views."""
        n, lay = self.layout.n_agents, self.layout
        return (state[lay.P].reshape(n, n), state[lay.v], state[lay.z].reshape(n, lay.n_z),
                state[lay.x].reshape(lay.r, n),
                [state[blk].reshape(n, order) for blk, order in zip(lay.eta, lay.im_orders)])

    def control(self, state: np.ndarray) -> np.ndarray:
        """Control input of every agent, ``U @ state`` (see `control_law`)."""
        return self.control_rows @ state

    def manifold_state(self, v0: np.ndarray, column: int = 0) -> np.ndarray:
        """Flat state of one column on the regulated manifold, generator at equilibrium."""
        n, lay = self.layout.n_agents, self.layout
        v0 = np.asarray(v0, dtype=float)
        P = np.tile(self.p_star, (n, 1))  # every row at the equilibrium profile
        z = self.steadies[column].z_star(v0)
        eta = self.ideal_compensators(v0, column)
        # chain level s + 1 sits at the read-out Psi theta of compensator level s
        x = np.vstack([self.p_star] + [np.einsum("ij,ij->i", level.Psi, theta)
                                       for level, theta in zip(self.bank.levels[:lay.r - 1], eta)])
        return np.concatenate([P.ravel(), v0, z.ravel(), x.ravel()]
                              + [e.ravel() for e in eta])

    def ideal_compensators(self, v: np.ndarray, column: int = 0) -> list[np.ndarray]:
        """The compensator states of one column that exactly reproduce the steady signals."""
        out = []
        for s, level in enumerate(self.bank.levels):
            stack = self.steadies[column].derivative_stack(s + 2, v, level.order)
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
             rng: np.random.Generator | Sequence[np.random.Generator] | None = None
             ) -> AssembledLoop:
    """Wire generator, exosystem, plants, compensators, and control law.

    Draws the uncertainty (first consumer of the scenario's seeded stream):
    one draw from ``rng``, or one per generator, and so one state column
    each, when ``rng`` is a sequence. The equilibrium, ``gamma2`` and the
    internal-model bank come from `Scenario.synthesized`.
    """
    n = scenario.n
    model = scenario.plant
    if model.n_agents != n:
        raise ValueError(f"plant has {model.n_agents} agents, game has {n}")
    rngs = ([np.random.default_rng(scenario.seed)] if rng is None
            else [rng] if isinstance(rng, np.random.Generator) else list(rng))

    synthesis = scenario.synthesized()
    p_star, gamma2, bank = synthesis.p_star, synthesis.gamma2, synthesis.bank
    draws = tuple(sample_uncertainty(scenario.w_box, r) for r in rngs)
    steadies = tuple(steady_state_chain(model, p_star, scenario.exo, w) for w in draws)

    if gains is None:
        gains = (ControllerGains(scenario.controller_k) if scenario.controller_k is not None
                 else ControllerGains.uniform(n, model.r, DEFAULT_START_GAIN))
    g1 = float(gamma1 if gamma1 is not None else scenario.gains.gamma1)

    layout = scenario.layout()
    J, plant_nl = drift_split(model, np.stack([w.w for w in draws]))
    A3, c, U = _closed_loop_operator(scenario, layout, bank, gains, g1, gamma2, J, ablate)
    c = c[:, None]
    rhs = _closed_loop_rhs(layout, A3, c, plant_nl, scenario.game, g1)
    return AssembledLoop(dimension=layout.dim, rhs=rhs, scenario=scenario, layout=layout,
                         bank=bank, gains=gains, gamma1=g1, gamma2=gamma2, p_star=p_star,
                         draws=draws, steadies=steadies, ablate=ablate, control_rows=U,
                         operator=A3, offset=c)


def _closed_loop_rhs(layout: StateLayout, A3: np.ndarray, c: np.ndarray, plant_nl,
                     game: GameSpec, g1: float):
    """``A_b x_b + c + nl(x_b)`` for each column ``b`` of a ``(dim, B)`` state.

    Each column gets its own GEMV (one ``A.dot`` for one column, a stacked
    ``matmul`` otherwise), never one GEMM over the batch, whose rounding
    would depend on ``B``: every column is bit-identical to its one-column
    run. A flat state is reshaped to one column explicitly.
    """
    n = layout.n_agents
    P, v, zx = layout.P, layout.v, layout.zx
    diag = slice(P.start, P.stop, n + 1)  # the rows `layout.p_diag`, as a view
    if len(A3) == 1:
        product = A3[0].dot
    else:
        def product(state):
            out = np.empty_like(state)
            np.matmul(A3, state.T[..., None], out=out.T[..., None])
            return out
    # the quadratic game's extended gradient is affine and already in A and c
    game_nl = None
    if not isinstance(game, QuadraticAggregativeGame):
        def game_nl(Ps):  # one (n, n) block of estimates per column
            return _central_partials(game.costs, Ps.reshape(n, n, -1).transpose(2, 0, 1)).T

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        if state.ndim == 1:
            return rhs(t, state[:, None])[:, 0]
        out = product(state)
        out += c
        plant_nl(state[zx], state[v], out[zx])  # adds into the view, in place
        if game_nl is not None:
            estimate_rows = out[diag]
            estimate_rows -= g1 * game_nl(state[P])
        return out

    return rhs


def _closed_loop_operator(scenario: Scenario, layout: StateLayout, bank: InternalModelBank,
                          gains: ControllerGains, gamma1: float, gamma2: float,
                          J: np.ndarray, ablate: bool):
    """Affine part ``A_b x + c`` of the closed loop and the control rows ``U``.

    ``A`` is ``(B, dim, dim)``, one operator per draw of the stacked drift
    split ``J``; they differ only in the plant rows, so the other rows are
    built once and copied per draw. ``c`` and ``U`` are shared.

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
    A = np.zeros((dim, dim))  # the rows every draw shares; the plant rows follow per draw
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

    shifted = np.arange(xa, ea - n)
    drives = np.zeros((r * n, dim))  # level-major: x_2 .. x_r, then u
    drives[np.arange((r - 1) * n), shifted + n] = 1.0
    drives[(r - 1) * n:] = U
    A[ea:] += N_flat[:, None] * drives[drive_idx]

    n_zx = zx.stop - zx.start
    v_cols = J.shape[-1] - n_zx
    if J.ndim != 3 or J.shape[1] != n_zx or not 0 <= v_cols <= layout.n_v:
        raise ConfigError(
            f"plant split hook returned J of shape {J.shape}; the hook takes a (B, n_w) "
            f"stack of draws and returns J of shape (B, {n_zx}, {n_zx} to "
            f"{n_zx + layout.n_v}) and nl(zx, v, out), which adds the remainder to the "
            f"({n_zx}, B) plant rows out")
    # per draw, the plant rows: the drift's linear part J, then the chain shifts
    # x_{s+1} -> dx_s, then the control law u = U x on the top level
    A3 = np.repeat(A[None], len(J), axis=0)
    A3[:, zx, zx] = J[:, :, :n_zx]
    A3[:, zx, v.start:v.start + v_cols] = J[:, :, n_zx:]
    A3[:, shifted, shifted + n] += 1.0
    A3[:, ea - n:ea] += U
    return A3, c, U


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
        seed: int | Sequence[int] | None = None, t_final: Optional[float] = None,
        dt: Optional[float] = None, decimate: Optional[int] = None,
        init_mode: str = "box", abort_norm: Optional[float] = None):
    """Integrate the closed loop and derive the output-side signals from the kept states.

    ``seed`` is one seed, giving one trajectory, or a sequence of seeds,
    giving a list: the seeds are then stepped as one ``(dim, B)`` state, one
    column per seed, and each trajectory is bit-identical to the run of its
    seed alone. ``init_mode="box"`` draws plant and compensator initial
    states uniformly from the scenario's box (generator estimates start at
    the configured values, zero by default); ``"manifold"`` starts exactly on
    the regulated manifold with the generator at equilibrium. Divergence
    does not raise: the trajectory up to the failure is returned with the
    flag set. A column that diverges or passes ``abort_norm`` stops there;
    the others go on.
    """
    batch = seed is not None and not isinstance(seed, (int, np.integer))
    seeds = [int(s) for s in seed] if batch else [scenario.seed if seed is None else int(seed)]
    t_end = scenario.t_final if t_final is None else float(t_final)
    h = scenario.dt if dt is None else float(dt)
    dec = scenario.decimate if decimate is None else int(decimate)
    if not seeds:
        raise ValueError("need at least one seed")
    if not (t_end > 0 and h > 0):
        raise ValueError("t_final and dt must be positive")
    if dec < 1:
        raise ValueError("decimate must be at least 1")
    if init_mode not in ("box", "manifold"):
        raise ValueError(f"unknown init_mode {init_mode!r}")

    rngs = [np.random.default_rng(s) for s in seeds]
    loop = assemble(scenario, gains=gains, gamma1=gamma1, ablate=ablate, rng=rngs)
    n, lay, B = scenario.n, loop.layout, len(seeds)
    box = scenario.exo.v0_box
    P0 = np.zeros(n * n) if scenario.p0 is None else np.asarray(scenario.p0, dtype=float).ravel()
    state = np.empty((lay.dim, B))
    for b, rng in enumerate(rngs):
        v0 = rng.uniform(box[:, 0], box[:, 1])
        if init_mode == "manifold":
            state[:, b] = loop.manifold_state(v0, b)
        else:
            draws = rng.uniform(-scenario.R, scenario.R, size=lay.dim - lay.z.start)
            state[:, b] = np.concatenate([P0, v0, draws])

    n_steps = int(round(t_end / h))
    # every kept state (step 0, each dec-th step and the last) of every column,
    # and its step index; a stopped column keeps the samples it has
    X = np.empty((_kept_samples(n_steps, dec), B, lay.dim))
    ks = np.zeros(len(X), dtype=np.int64)
    X[0] = state.T
    kept = 1
    live = np.arange(B)      # index into `seeds` of each state column
    rows = slice(None)       # the columns of X still recording: all, or `live`
    peak = np.zeros_like(state)  # largest |value| of each state entry after step 0
    samples = np.zeros(B, dtype=np.int64)
    max_norm = np.zeros(B)
    diverged_t = [None] * B
    aborted = np.zeros(B, dtype=bool)

    def stop(stopped: np.ndarray) -> bool:
        """Finish the masked state columns; whether any column is still live."""
        nonlocal loop, state, live, rows, peak
        samples[live[stopped]] = kept
        max_norm[live[stopped]] = peak[:, stopped].max(axis=0)
        going = ~stopped
        live, peak, state = live[going], peak[:, going], state[:, going]
        rows = live
        if live.size:
            loop = loop.select(going)
        return live.size > 0

    k, t = 0, 0.0
    # overflow on a diverging trajectory is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_steps:
            try:
                state = rk4_step(loop, t, state, h)
            except NonFiniteState as exc:
                for col in live[exc.columns]:
                    diverged_t[col] = t + h
                if not stop(exc.columns):
                    break
                continue  # columns never mix: re-step the others from the same state
            k += 1
            t = k * h
            size = np.abs(state)
            np.maximum(peak, size, out=peak)
            if k % dec == 0 or k == n_steps:
                X[kept, rows], ks[kept] = state.T, k
                kept += 1
            if abort_norm is not None and size.max() > abort_norm:
                over = size.max(axis=0) > abort_norm
                aborted[live[over]] = True
                if not stop(over):
                    break
        else:
            stop(np.ones(live.size, dtype=bool))

    trajs = []
    for b, seed_b in enumerate(seeds):
        # the signals own their data, so a kept trajectory does not pin the buffer
        Xb, ksb = X[:samples[b], b], ks[:samples[b]]
        # the distance first: its two (K, N*N) temporaries then meet fewer live signals
        ne_dist = np.linalg.norm(Xb[:, lay.P] - np.tile(loop.p_star, n), axis=1)
        y = Xb[:, lay.x.start:lay.x.start + n].copy()  # first chain level
        p = Xb[:, lay.p_diag]
        trajs.append(ClosedLoopTrajectory(
            t=ksb * h, y=y, p=p, e=y - p, u=Xb @ loop.control_rows.T, ne_dist=ne_dist,
            p_star=loop.p_star, v=Xb[:, lay.v].copy(), max_state_norm=float(max_norm[b]),
            diverged=diverged_t[b] is not None, diverged_t=diverged_t[b],
            aborted_norm=bool(aborted[b]), gamma1=loop.gamma1, gamma2=loop.gamma2,
            gains_k=loop.gains.k, seed=seed_b))
    return trajs if batch else trajs[0]


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
