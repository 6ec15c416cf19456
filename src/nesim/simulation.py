"""Closed-loop assembly and simulation.

One flat state vector stacks the generator's estimate matrix, the
disturbance state, and every agent's plant and compensator states; a single
fixed-step integrator advances it. The information structure stays
distributed (each block's derivative reads only its own and neighbor data),
but integrating centrally keeps the numerics exact to the method order and
the output deterministic. Everything except the plant drift and a custom
game's gradient is affine, and those two are linear in a few features of the
state, so the closed loop is linear in the lifted state ``[x; 1; phi(x)]``:
`assemble` builds that operator once, and `run` folds RK4's stages into it,
so each step is five GEMVs over the lifted stages (`numerics.rk4_lifted_step`) in a
workspace `run` binds once.
Seeds integrated together are the columns of one ``(dim, B)`` state: only
the plant rows of the operator depend on the seed's draw, one row of the
``(B, n_w)`` draw array. The steady-state chain a draw induces is truth data
for diagnostics; it is built only when read.

State layout (level-major): ``[estimates (N*N) | v (n_v) | z (N*n_z) |
chain x (r*N) | compensators eta_1 (N*n_1) .. eta_r (N*n_r)]``. Seeded draws
happen in a fixed order: uncertainty, disturbance initial state, then the
plant/compensator initial box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .controller import (ControllerGains, TRACKING_TOL, STATE_NORM_LIMIT, control_rows,
                         psi_readouts)
from .errors import ConfigError, NesimError, require
from .game import GameSpec, GradientConstants, estimate_constants, solve_ne
from .generator import GeneratorGains, generator_rows, min_gamma2, partials_bind
from .graph import CommGraph, is_connected
from .internal_model import InternalModelBank, synthesize_bank
from .numerics import (LiftedOdeSystem, column_gemv, integrate, rk4_lifted_step,
                       rk4_lifted_steps)
from .plant import (Exosystem, PlantFeatures, PlantModel, SteadyState, drift_split,
                    sample_uncertainty, steady_state_chain)

AUTO_GAMMA2_MARGIN = 1.25
_CSV_CHUNK = 256  # rows `write_csv` turns into Python floats at a time; bounds its transients


@dataclass(frozen=True)
class EscalationSpec:
    """Gain search: after each failing round the gains are multiplied by ``factor``."""

    factor: float = 2.0
    max_rounds: int = 12

    def __post_init__(self):
        require("controller.escalation.factor", self.factor, 1 < self.factor < np.inf,
                "finite and > 1")
        require("controller.escalation.max_rounds", self.max_rounds, self.max_rounds >= 1,
                "at least 1")


def start_gains(r: int) -> np.ndarray:
    """The auto backstepping start gains ``k_1 .. k_r`` of a chain of relative degree ``r``.

    `control_rows` weights chain level ``s`` by ``k_s ... k_r``, so the chain
    polynomial is ``s^r + k_r s^(r-1) + k_r k_(r-1) s^(r-2) + ... + k_r ... k_1``.
    Uniform gains ``k`` make it ``(s^(r+1) - k^(r+1)) / (s - k)``, whose roots
    ``k e^(2 pi i j / (r + 1))``, ``j = 1 .. r``, are Hurwitz only for
    ``r <= 2`` (``-k, +-ik`` at ``r = 3``); escalation scales every gain by
    one factor and keeps that. So ``r <= 2`` keeps the uniform ``a = 4``, and
    a longer chain starts from the binomial ``(s + a)^r``:
    ``k_(r-j+1) = a (r - j + 1) / j``, ``[4/3, 4, 12]`` at ``r = 3``, which
    a common factor ``m`` turns into ``(s + m a)^r``.
    """
    a = 4.0
    if r <= 2:
        return np.full(r, a)
    levels = np.arange(1, r + 1)
    return a * levels / (r - levels + 1)


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
    The run settings ``t_final``, ``dt``, ``seed``, ``R`` and ``decimate`` and
    the gains ``controller_k`` are checked here, and only here, named as in the
    scenario file (``sim.dt``): a shorter or finer run is a `replace`, and so
    is an escalation round (`escalated`).
    """

    game: GameSpec
    graph: CommGraph
    plant: PlantModel
    exo: Exosystem
    w_box: np.ndarray
    gains: GeneratorGains            # gamma2 may be a placeholder; see gamma2_auto
    gamma2_auto: bool = False        # resolve gamma2 from the guarantee bound
    controller_k: Optional[np.ndarray] = None   # None means auto (start gain + escalation)
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
        require("sim.t_final", self.t_final, 0 < self.t_final < np.inf, "finite and > 0")
        require("sim.dt", self.dt, 0 < self.dt < np.inf, "finite and > 0")
        require("sim.t_final", self.t_final, self.t_final / self.dt < np.inf,
                "a finite number of sim.dt steps")
        require("sim.decimate", self.decimate, self.decimate >= 1, "at least 1")
        require("sim.seed", self.seed, self.seed >= 0, ">= 0")
        # R is the half-width of the initial box [-R, R], whose width must be finite
        require("sim.R", self.R, 0 <= self.R <= np.finfo(float).max / 2,
                "finite and >= 0, with a finite box width 2R")
        object.__setattr__(self, "R", self.R + 0.0)  # -0.0 would give the box [0, -0]
        if not is_connected(self.graph):
            raise ValueError("graph: communication graph must be connected")
        if self.controller_k is not None:
            k = ControllerGains(self.controller_k).k
            shape = (self.n, self.plant.r)
            require("controller.k", k.shape, k.shape == shape, f"of shape {shape}")
            object.__setattr__(self, "controller_k", k)
        kept = self.synthesis
        if kept is not None:
            *fields, gamma2 = self._synthesis_source()
            *kept_fields, kept_gamma2 = kept.source
            if gamma2 != kept_gamma2 or any(a is not b for a, b in zip(kept_fields, fields)):
                object.__setattr__(self, "synthesis", None)  # derived from replaced fields

    @property
    def n(self) -> int:
        return self.game.n

    @property
    def controller_gains(self) -> ControllerGains:
        """The backstepping gains: ``controller_k``, or `start_gains` for every agent when auto."""
        if self.controller_k is None:
            return ControllerGains(np.tile(start_gains(self.plant.r), (self.n, 1)))
        return ControllerGains(self.controller_k)

    def escalated(self, factor: float) -> "Scenario":
        """This scenario with the backstepping gains and ``gains.gamma1`` times ``factor``.

        It keeps the synthesis. A product that overflows is rejected as not
        finite (`ValueError`).
        """
        return replace(self, controller_k=self.controller_gains.scaled(factor).k,
                       gains=replace(self.gains, gamma1=self.gains.gamma1 * factor))

    def _synthesis_source(self) -> tuple:
        """The fields the synthesis derives from, compared by identity, then ``gains.gamma2``.

        ``gamma2`` is a number, compared by value; under ``gamma2_auto`` it is a
        placeholder the synthesis never reads, given as None.
        """
        return (self.game, self.graph, self.plant, self.exo, self.gamma2_auto, self.im_preset,
                self.im_stabilizers, None if self.gamma2_auto else self.gains.gamma2)

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
class AssembledLoop(LiftedOdeSystem):
    """The stacked closed-loop ODE for a batch of draws, plus everything synthesis produced.

    The batch is the trailing axis: ``rhs`` takes a ``(dim, B)`` state, one
    column per row of ``draws``, and a loop with one draw also takes a flat
    ``(dim,)`` state. Columns never mix. Only ``operator`` and ``draws`` differ
    between columns. ``bind`` binds the fill of ``phi`` (`_closed_loop_bind`)
    for ``rhs`` and the lifted step alike; `run` builds the ``steps`` at its
    step size.
    A column's steady-state chain is built when it is read.
    """

    scenario: Scenario = None
    layout: StateLayout = None
    bank: InternalModelBank = None
    gamma2: float = 0.0
    p_star: np.ndarray = None
    draws: np.ndarray = None         # (B, n_w): one uncertainty draw per column
    ablate: bool = False
    control_rows: np.ndarray = None  # U, (N, dim): the control law as u = U @ state
    operator: np.ndarray = None      # (B, dim, width): each column's map of [x; 1; phi(x)]

    @property
    def steady(self) -> SteadyState:
        """The steady-state chain of a one-column loop."""
        (w,) = self.draws
        return steady_state_chain(self.scenario.plant, self.p_star, self.scenario.exo, w)

    def select(self, keep) -> "AssembledLoop":
        """The loop restricted to the columns ``keep`` (a boolean mask), in order.

        Its workspace, if this loop has one, is built anew for those columns
        and reports to the same `StepMagnitude`.
        """
        idx = np.flatnonzero(keep)
        draws, A3 = self.draws[idx], self.operator[idx]
        _, features = drift_split(self.scenario.plant, draws)
        bind = _closed_loop_bind(self.layout, features, self.scenario.game)
        steps = (None if self.steps is None else
                 rk4_lifted_steps(A3, self.steps.h, bind, self.steps.magnitude))
        return replace(self, rhs=_closed_loop_rhs(A3, bind), bind=bind, steps=steps,
                       draws=draws, operator=A3)

    def control(self, state: np.ndarray) -> np.ndarray:
        """Control input of every agent, ``U @ state``: `control_rows` placed on the state."""
        return self.control_rows @ state

    def manifold_state(self, v0: np.ndarray, column: int = 0) -> np.ndarray:
        """Flat state of one column on the regulated manifold, generator at equilibrium."""
        v0 = np.asarray(v0, dtype=float)
        P = np.tile(self.p_star, self.layout.n_agents)  # every row at the equilibrium profile
        eta = self.ideal_compensators(v0, column)
        z = self.scenario.plant.steady_zero(self.p_star, v0, self.draws[column])
        # chain level s + 1 sits at the read-out of compensator level s
        x = np.vstack([self.p_star] + psi_readouts(self.bank, eta)[:-1])
        return np.concatenate([P, v0, z.ravel(), x.ravel()] + [e.ravel() for e in eta])

    def ideal_compensators(self, v: np.ndarray, column: int = 0) -> list[np.ndarray]:
        """The compensator states of one column that exactly reproduce the steady signals.

        They come from the exact derivative stacks of the plant's ``steady_poly``
        on the column's steady-state chain, built here.
        """
        plant = self.scenario.plant
        if plant.steady_poly is None:
            raise ConfigError("plant: the regulated manifold needs the plant's steady_poly "
                              "(exact steady-state signals), which this plant does not provide")
        steady = steady_state_chain(plant, self.p_star, self.scenario.exo, self.draws[column])
        return [np.einsum("ijk,ki->ij", level.T, steady.derivative_stack(s + 2, v, level.order))
                for s, level in enumerate(self.bank.levels)]


def _stage(name: str, fn, *args, **kwargs):
    """Run one synthesis step, naming the failing component on error."""
    try:
        return fn(*args, **kwargs)
    except NesimError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def assemble(scenario: Scenario, ablate: bool = False,
             draws: np.ndarray | None = None) -> AssembledLoop:
    """Wire generator, exosystem, plants, compensators, and control law.

    ``draws`` is ``(B, n_w)``, one uncertainty draw and so one state column
    per row (see `sample_uncertainty`); by default, the one draw of the
    scenario's seed. The gains are the scenario's (`Scenario.controller_gains`
    and ``gains.gamma1``); the equilibrium, ``gamma2`` and the internal-model
    bank come from `Scenario.synthesized`.
    """
    n = scenario.n
    model = scenario.plant
    if model.n_agents != n:
        raise ValueError(f"plant has {model.n_agents} agents, game has {n}")
    if draws is None:
        draws = sample_uncertainty(scenario.w_box, scenario.seed)[None]
    draws = np.array(draws, dtype=float)
    draws.setflags(write=False)

    synthesis = scenario.synthesized()
    p_star, gamma2, bank = synthesis.p_star, synthesis.gamma2, synthesis.bank

    layout = scenario.layout()
    J, features = drift_split(model, draws)
    # overflowing gains give a non-finite operator; the first RK4 step reports divergence
    with np.errstate(over="ignore", invalid="ignore"):
        A3, U = _closed_loop_operator(scenario, layout, bank, gamma2, J, features, ablate)
    bind = _closed_loop_bind(layout, features, scenario.game)
    return AssembledLoop(dimension=layout.dim, rhs=_closed_loop_rhs(A3, bind), bind=bind,
                         scenario=scenario, layout=layout, bank=bank, gamma2=gamma2,
                         p_star=p_star, draws=draws, ablate=ablate, control_rows=U, operator=A3)


def _closed_loop_bind(layout: StateLayout, features: PlantFeatures, game: GameSpec):
    """The closed loop's ``bind``: ``bind(lifted)`` returns the fill of its ``phi``.

    ``lifted`` is a ``(width, B)`` array ``[x; 1; phi]``. The features
    ``phi`` are the plant's (see `drift_split`) and, for a custom game, each
    agent's finite-difference partial on its own estimate row, which
    `generator.partials_bind` fills. Column ``b`` reads only column ``b``.
    The views are taken once, at binding.
    """
    dim = layout.dim
    P, v, zx = layout.P, layout.v, layout.zx  # rows of the state part of [x; 1; phi]
    phi = slice(dim + 1, dim + 1 + features.count)

    def bind(lifted: np.ndarray):
        plant_fill = features.bind(lifted[zx], lifted[v], lifted[phi])
        if not callable(plant_fill):  # a hook written for the former fill(zx, v, out)
            raise ConfigError(
                f"plant split hook: PlantFeatures(count, bind) needs bind(zx, v, out) to "
                f"return fill(), which writes the (count, B) features that zx and v give "
                f"into out; it returned {type(plant_fill).__name__}")
        # None for a quadratic game, whose extended gradient is already in the operator
        partials_fill = partials_bind(game, lifted[P], lifted[phi.stop:])
        if partials_fill is None:
            return plant_fill

        def lift() -> None:
            plant_fill()
            partials_fill()

        return lift

    return bind


def _closed_loop_rhs(A3: np.ndarray, bind):
    """``A_b [x_b; 1; phi(x_b)]`` for each column ``b`` of a ``(dim, B)`` state.

    ``A3`` is the lifted operator of `_closed_loop_operator` and ``bind`` the
    loop's. Each call lifts the state into a buffer of its own, so the
    derivative is reentrant. Each column gets its own GEMV (`column_gemv`),
    never one GEMM over the batch, whose rounding would depend on ``B``:
    every column is bit-identical to its one-column run. A flat state is
    viewed as one column.
    """
    dim, width = A3.shape[1:]
    blank = np.zeros((width, len(A3)))
    blank[dim] = 1.0  # the constant entry; every other row is overwritten

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        columns = state.reshape(dim, -1)
        lifted = blank.copy()
        lifted[:dim] = columns
        bind(lifted)()
        out = np.empty_like(columns)
        column_gemv(A3, lifted, out)()
        return out.reshape(state.shape)

    return rhs


def _closed_loop_operator(scenario: Scenario, layout: StateLayout, bank: InternalModelBank,
                          gamma2: float, J: np.ndarray, features: PlantFeatures, ablate: bool):
    """The closed loop as a linear map of the lifted state, and the control rows ``U``.

    The lifted state is ``[x; 1; phi]``: the state, a one and the features,
    those of the plant (``features``, see `drift_split`) and, for a custom
    game, one finite-difference partial per agent. The operator is ``(B, dim,
    dim + 1 + count [+ N])``, one per draw of the stacked drift split ``J``;
    only the plant rows differ, so the other rows are built once. ``U`` is shared.

    Each designed block comes in its own coordinates and is only placed here,
    by index: `generator_rows` at the scenario's ``gains.gamma1``, the
    exosystem ``S``, `InternalModelBank.rows` and `control_rows` at its
    `Scenario.controller_gains`. Added here are the plant drift ``J``, the
    chain shifts ``x_{s+1} -> dx_s``, ``u = U x`` on the top chain level and
    the drives of the compensators: ``x_{s+1}`` for level ``s``, ``u`` for the
    top level.
    """
    n, r, dim = layout.n_agents, layout.r, layout.dim
    P, v, zx, p_diag = layout.P, layout.v, layout.zx, layout.p_diag
    xa, ea = layout.x.start, layout.x.stop  # the compensators follow the chain
    n_zx = zx.stop - zx.start
    valid = isinstance(features, PlantFeatures) and J.ndim == 3 and J.shape[1] == n_zx
    v_cols = J.shape[2] - n_zx - features.count if valid else -1
    if not 0 <= v_cols <= layout.n_v:
        raise ConfigError(
            f"plant split hook returned J of shape {J.shape} and a "
            f"{type(features).__name__}; the hook takes a (B, n_w) stack of draws and "
            f"returns J of shape (B, {n_zx}, {n_zx} + v_cols + count), 0 <= v_cols <= "
            f"{layout.n_v}, the coefficients of zx, of the leading v_cols disturbance "
            f"coordinates and of the features, and PlantFeatures(count, bind), where "
            f"bind(zx, v, out) returns fill(), which writes the (count, B) features that "
            f"zx and v give into out")
    phi = slice(dim + 1, dim + 1 + features.count)
    generator = generator_rows(scenario.game, scenario.graph, scenario.gains.gamma1, gamma2)
    # the rows every draw shares; the plant rows follow per draw
    A = np.zeros((dim, phi.stop + generator.shape[1] - P.stop - 1))
    A[P, P], A[P, dim] = generator[:, P], generator[:, P.stop]  # over [vec P; 1; partials]
    A[P, phi.stop:] = generator[:, P.stop + 1:]
    A[v, v] = scenario.exo.S
    U = np.zeros((n, dim))
    local = control_rows(scenario.controller_gains, bank, ablate)  # over [p; x; eta]
    U[:, p_diag], U[:, xa:] = local[:, :n], local[:, n:]
    M, N, _, owner = bank.rows
    A[ea:, ea:dim] = M
    low = np.searchsorted(owner, (r - 1) * n)  # the levels below the top come first
    A[ea + np.arange(low), xa + n + owner[:low]] = N[:low]  # each driven by the next chain state
    A[ea + low:, :dim] += N[low:, None] * U[owner[low:] - (r - 1) * n]

    # per draw, the plant rows: the drift J on zx, the leading v and the features,
    # then the chain shifts x_{s+1} -> dx_s, then the control law u = U x on the top level
    shifted = np.arange(xa, ea - n)
    A3 = np.repeat(A[None], len(J), axis=0)
    A3[:, zx, zx] = J[:, :, :n_zx]
    A3[:, zx, v.start:v.start + v_cols] = J[:, :, n_zx:n_zx + v_cols]
    A3[:, zx, phi] = J[:, :, n_zx + v_cols:]
    A3[:, shifted, shifted + n] += 1.0
    A3[:, ea - n:ea, :dim] += U
    return A3, U


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
    seed: Optional[int] = None


def run(scenario: Scenario, ablate: bool = False, seed: int | Sequence[int] | None = None,
        init_mode: str = "box", abort_norm: Optional[float] = None):
    """Integrate the closed loop and derive the output-side signals from the kept states.

    The gains, horizon, step and decimation are the scenario's: for others,
    `replace` them on the scenario, which keeps its synthesis. ``seed`` is one
    seed, giving one trajectory, or a sequence of seeds, giving a list: the
    seeds are then stepped as one ``(dim, B)`` state, one column per seed, and
    each trajectory is bit-identical to the run of its seed alone.
    ``init_mode="box"`` draws plant and compensator initial states uniformly
    from the scenario's box (generator estimates start at the configured
    values, zero by default); ``"manifold"`` starts exactly on the regulated
    manifold with the generator at equilibrium. Divergence
    does not raise: the trajectory up to the failure is returned with the
    flag set. A column that diverges or passes ``abort_norm`` stops there;
    the others go on.
    """
    batch = seed is not None and not isinstance(seed, (int, np.integer))
    seeds = [int(s) for s in seed] if batch else [scenario.seed if seed is None else int(seed)]
    h, dec = scenario.dt, scenario.decimate
    if not seeds:
        raise ValueError("need at least one seed")
    if init_mode not in ("box", "manifold"):
        raise ValueError(f"unknown init_mode {init_mode!r}")

    n, lay, B = scenario.n, scenario.layout(), len(seeds)
    box = scenario.exo.v0_box
    state = np.empty((lay.dim, B))
    state[lay.P] = 0.0 if scenario.p0 is None else np.ravel(scenario.p0)[:, None]
    draws = np.empty((B, len(scenario.w_box)))
    for b, seed_b in enumerate(seeds):
        # each seed's stream: uncertainty, disturbance start, then the initial box
        rng = np.random.default_rng(seed_b)
        draws[b] = sample_uncertainty(scenario.w_box, rng)
        state[lay.v, b] = rng.uniform(box[:, 0], box[:, 1])
        if init_mode == "box":
            state[lay.z.start:, b] = rng.uniform(-scenario.R, scenario.R,
                                                 size=lay.dim - lay.z.start)
    loop = assemble(scenario, ablate=ablate, draws=draws)
    if init_mode == "manifold":
        for b in range(B):
            state[:, b] = loop.manifold_state(state[lay.v, b], b)

    n_steps = int(round(scenario.t_final / h))
    # every kept state (step 0, each dec-th step and the last) of every column,
    # and its step index; a stopped column keeps the samples it has
    try:
        X = np.empty((_kept_samples(n_steps, dec), B, lay.dim))
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"sim.t_final: {scenario.t_final:g} s in steps of sim.dt = {h:g}, keeping every "
            f"sim.decimate = {dec}-th, gives {float(_kept_samples(n_steps, dec)):.3g} kept "
            f"states of {lay.dim} values per seed, which cannot be allocated") from exc
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

    def finish(stopped: np.ndarray) -> np.ndarray:
        """Finish the masked state columns; `integrate` drops them."""
        nonlocal live, rows, peak
        samples[live[stopped]] = kept
        max_norm[live[stopped]] = peak[:, stopped].max(axis=0)
        live, peak = live[~stopped], peak[:, ~stopped]
        rows = live
        return stopped

    def observe(k: int, t: float, state: np.ndarray, diverged=None):
        """Keep step ``k``; the columns that stop: diverged, or past ``abort_norm``."""
        nonlocal kept
        if diverged is not None:
            for col in live[diverged]:
                diverged_t[col] = t + h
            return finish(diverged)
        if k == 0:
            return None
        size = magnitude.size  # |state|, from the step that made it
        np.maximum(peak, size, out=peak)
        if k % dec == 0 or k == n_steps:
            X[kept, rows], ks[kept] = state.T, k
            kept += 1
        if abort_norm is not None and magnitude.top > abort_norm:
            over = size.max(axis=0) > abort_norm
            aborted[live[over]] = True
            return finish(over)
        return None

    # overflow on a diverging trajectory is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        loop = replace(loop, steps=rk4_lifted_steps(loop.operator, h, loop.bind))
        magnitude = loop.steps.magnitude  # its narrowed workspaces report here too
        integrate(loop, state, 0.0, scenario.t_final, h, observe, step=rk4_lifted_step)
        finish(np.ones(live.size, dtype=bool))

        # the signals of a diverged column may be as non-finite as its gains
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
                aborted_norm=bool(aborted[b]), seed=seed_b))
    return trajs if batch else trajs[0]


def closed_loop_passes(scenario: Scenario) -> Optional[ClosedLoopTrajectory]:
    """Pass/fail predicate of the gain-escalation loop: the passing run, or None.

    The norm abort never fires on a passing run, so it equals a plain `run`.
    """
    traj = run(scenario, abort_norm=STATE_NORM_LIMIT)
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
    so identical runs produce byte-identical files. The bytes are those of
    ``np.savetxt`` with ``fmt="%.17g"``. The constant ``p_star`` cells are
    formatted once per file, into the one format string every row is
    printed with, and the rows are turned into Python floats one chunk at a
    time.
    """
    n = traj.p_star.shape[0]
    cols = (["t"] + [f"p_star_{i + 1}" for i in range(n)]
            + [f"y_{i + 1}" for i in range(n)] + [f"p_{i + 1}" for i in range(n)]
            + [f"e_{i + 1}" for i in range(n)] + [f"u_{i + 1}" for i in range(n)]
            + ["ne_dist"])
    cell = "%.17g"
    row = ",".join([cell, *(cell % p for p in traj.p_star), *[cell] * (4 * n + 1)]) + "\n"
    signals = (traj.t, traj.y, traj.p, traj.e, traj.u, traj.ne_dist)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, len(traj.t), _CSV_CHUNK):
            block = np.column_stack([sig[start:start + _CSV_CHUNK] for sig in signals])
            for cells in block.tolist():
                fh.write(row % tuple(cells))


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
