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
in a workspace (`numerics.rk4_lifted_steps`) that `numerics.integrate` steps by
four GEMVs over the lifted stages and hands `run` its states a block at a time,
so the peak is kept and the signals are derived once per block.
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
from typing import Callable, Optional, Sequence

import numpy as np

from . import csvtext
from .controller import (ControllerGains, TRACKING_TOL, STATE_NORM_LIMIT, control_rows,
                         psi_readouts)
from .errors import ConfigError, NesimError, require
from .game import CustomGame, GameSpec, GradientConstants, estimate_constants, solve_ne
from .generator import GeneratorGains, generator_rows, min_gamma2, partials_bind
from .graph import CommGraph
from .internal_model import InternalModelBank, synthesize_bank
from .numerics import (STEP_BLOCK, OdeSystem, column_gemv, integrate, kept_rows,
                       rk4_lifted_steps)
from .plant import (Exosystem, PlantFeatures, PlantModel, SteadyState, checked_box, drift_split,
                    sample_uncertainty, steady_state_chain)

AUTO_GAMMA2_MARGIN = 1.25
# rows `write_csv` formats at a time. On one 10 001-row sec5 trajectory (in-process, one
# pinned core) 64, 96 and 128 rows write it in 39, 35 and 34 ms, the call peaking at 362,
# 533 and 699 KB of traced memory, whatever the trajectory's length
_CSV_CHUNK = 96


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
    """What every run of a scenario shares; ``source`` holds the fields it came from.

    ``min_gamma2`` is the consensus-gain bound of the constants on the
    scenario's graph (`generator.min_gamma2`).
    """

    constants: GradientConstants
    p_star: np.ndarray
    min_gamma2: float
    gamma2: float
    bank: InternalModelBank
    source: tuple = field(repr=False)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one closed-loop experiment.

    ``synthesis`` keeps the seed-independent results (`synthesized`);
    `dataclasses.replace` carries it unless it replaces a field it depends on.
    The run settings ``t_final``, ``dt``, ``seed``, ``R`` and ``decimate``, the
    gains ``controller_k`` and the generator start ``p0`` are checked here, and
    only here, named as in the scenario file (``sim.dt``): a shorter or finer
    run is a `replace`, and so is an escalation round (`escalated`). So is how
    the parts fit, each named by its field: ``graph.n`` and ``plant`` have the
    game's players, ``plant.w_box`` is ``(n_w, 2)`` with lo <= hi (kept
    read-only), ``internal_model`` is a preset or explicit stabilizers, not
    both, and ``internal_model.explicit`` has ``r`` of them for each agent,
    each of its level's recurrence order (``plant.im_polys``). The
    parts check their own values (`Exosystem` its ``S`` and ``v0_box``), and
    the synthesis alone decides connectivity: its consensus-gain bound raises
    `Disconnected` unless ``lambda2 > CONNECTIVITY_EPS``.
    """

    game: GameSpec
    graph: CommGraph
    plant: PlantModel
    exo: Exosystem
    w_box: np.ndarray
    gains: GeneratorGains            # gamma2 None means auto (from the guarantee bound)
    controller_k: Optional[np.ndarray] = None   # None means auto (start gain + escalation)
    escalation: EscalationSpec = field(default_factory=EscalationSpec)
    im_preset: Optional[str] = None
    im_stabilizers: Optional[tuple] = None      # explicit per (agent, level)
    t_final: float = 30.0
    dt: float = 1e-3
    seed: int = 0
    R: float = 1.0
    decimate: int = 10
    p0: Optional[np.ndarray] = None  # (N, N) generator initial estimates, zeros if None
    synthesis: Optional[ScenarioSynthesis] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        require("sim.t_final", self.t_final, 0 < self.t_final < np.inf, "finite and > 0")
        require("sim.dt", self.dt, 0 < self.dt < np.inf, "finite and > 0")
        require("sim.t_final", self.t_final, self.t_final / self.dt < np.inf,
                "a finite number of sim.dt steps")
        require("sim.dt", self.dt, self.n_steps >= 1,
                f"less than twice sim.t_final = {self.t_final:g}, for at least one step")
        require("sim.decimate", self.decimate, self.decimate >= 1, "at least 1")
        require("sim.seed", self.seed, self.seed >= 0, ">= 0")
        # R is the half-width of the initial box [-R, R], whose width must be finite
        require("sim.R", self.R, 0 <= self.R <= np.finfo(float).max / 2,
                "finite and >= 0, with a finite box width 2R")
        object.__setattr__(self, "R", self.R + 0.0)  # -0.0 would give the box [0, -0]
        n, plant = self.n, self.plant
        require("graph.n", self.graph.n, self.graph.n == n, f"the game's player count {n}")
        require("plant", f"{plant.n_agents} agents", plant.n_agents == n,
                f"a model of the game's {n} agents")
        object.__setattr__(self, "w_box", checked_box("plant.w_box", self.w_box, plant.n_w))
        require("internal_model", "both", self.im_preset is None or self.im_stabilizers is None,
                "a preset or explicit stabilizers, not both")
        if self.im_stabilizers is not None:
            counts = [len(levels) for levels in self.im_stabilizers]
            require("internal_model.explicit", counts, counts == [plant.r] * n,
                    f"{plant.r} entries for each of {n} agents")
            orders = [[stab.order for stab in levels] for levels in self.im_stabilizers]
            want = [np.size(coeffs) for coeffs in plant.im_polys]
            require("internal_model.explicit", orders, orders == [want] * n,
                    f"of the recurrence orders {want} of plant.im_polys for each agent")
        if self.controller_k is not None:
            k = ControllerGains(self.controller_k).k
            shape = (n, plant.r)
            require("controller.k", k.shape, k.shape == shape, f"of shape {shape}")
            object.__setattr__(self, "controller_k", k)
        if self.p0 is not None:
            p0, shape = np.array(self.p0, dtype=float), (n, n)
            require("gains.p0", p0.shape, p0.shape == shape, f"of shape {shape}")
            p0.setflags(write=False)
            object.__setattr__(self, "p0", p0)
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

    @property
    def n_steps(self) -> int:
        """RK4 steps of a run: ``t_final / dt``, rounded."""
        return int(round(self.t_final / self.dt))

    def _synthesis_source(self) -> tuple:
        """The fields the synthesis derives from, compared by identity, then ``gains.gamma2``.

        ``gamma2`` is a number or None (auto), compared by value.
        """
        return (self.game, self.graph, self.plant, self.exo, self.im_preset,
                self.im_stabilizers, self.gains.gamma2)

    def synthesized(self) -> ScenarioSynthesis:
        """Game constants, equilibrium, gain bound, ``gamma2`` and bank, computed on first use.

        The one place they are derived. Failures name the failing component.
        """
        if self.synthesis is None:
            constants = _stage("game constants", estimate_constants, self.game)
            p_star = _stage("equilibrium oracle", solve_ne, self.game, constants=constants)
            p_star.setflags(write=False)
            bound = _stage("consensus gain bound", min_gamma2, constants, self.graph)
            gamma2 = AUTO_GAMMA2_MARGIN * bound if self.gains.gamma2 is None else self.gains.gamma2
            bank = _stage("internal-model synthesis", synthesize_bank, self.plant.im_polys,
                          self.n, stabilizers=self.im_stabilizers, preset=self.im_preset)
            object.__setattr__(self, "synthesis", ScenarioSynthesis(
                constants=constants, p_star=p_star, min_gamma2=bound, gamma2=float(gamma2),
                bank=bank,
                source=self._synthesis_source()))
        return self.synthesis

    def layout(self) -> "StateLayout":
        """The closed-loop state layout (needs the internal-model bank, see `synthesized`)."""
        orders = tuple(level.order for level in self.synthesized().bank.levels)
        return StateLayout(n_agents=self.n, n_v=self.exo.n_v, n_z=self.plant.n_z,
                           r=self.plant.r, im_orders=orders)

    def kept_state_bytes(self) -> int:
        """Bytes of one seed's signals ``t``, ``y``, ``p``, ``e``, ``u``, ``v`` and ``ne_dist``."""
        return 8 * _kept_samples(self.n_steps, self.decimate) * (4 * self.n + self.exo.n_v + 2)

    def seed_bytes(self) -> int:
        """Bytes `run` holds per seed of a batch, counted without building an operator: its
        signals, its operator and stage maps (ten ``(dim, width)`` blocks), two step blocks' rows."""
        _, features = drift_split(self.plant, self.w_box[None, :, 0], self.exo.n_v)
        columns = 10 * self._lifted_width(features) + 2 * min(STEP_BLOCK, self.n_steps)
        return 8 * self.layout().dim * columns + self.kept_state_bytes()

    def _lifted_width(self, features: PlantFeatures) -> int:
        """Rows of ``[x; 1; phi]``: the state, the one, the plant's ``features`` and a custom
        game's partials, one per agent (the trailing columns of `generator_rows`)."""
        partials = self.n if isinstance(self.game, CustomGame) else 0
        return self.layout().dim + 1 + features.count + partials


def _kept_samples(n_steps: int, decimate: int) -> int:
    """Samples `run` keeps of ``n_steps`` steps: those of `numerics.kept_rows`."""
    return 1 + -(-n_steps // decimate)


@dataclass(frozen=True)
class StateLayout:
    """Block slices of the stacked closed-loop state, computed once.

    ``P``, ``v``, ``z``, ``x``, ``zx`` (the plant rows ``z`` through ``x``)
    and ``p_diag`` (each agent's estimate of its own strategy, a strided
    slice of ``P``) are slices, ``eta`` holds one slice per compensator
    level, and ``dim`` is the state dimension.
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
                       p_diag=slice(P.start, P.stop, n + 1), dim=pos)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AssembledLoop(OdeSystem):
    """The stacked closed-loop ODE of a scenario for a batch of draws.

    The batch is the trailing axis: ``rhs`` takes a ``(dim, B)`` state, one
    column per row of ``draws``, and a loop with one draw also takes a flat
    ``(dim,)`` state. Columns never mix. Only ``operator`` and ``draws`` differ
    between columns. ``bind`` binds the fills of ``phi`` (`_closed_loop_bind`)
    for ``rhs`` and for the workspace `run` steps (`numerics.rk4_lifted_steps`).
    ``parked`` is the mask of the columns which the generic plant fill skips
    (`drift_split`): all False from `assemble`, and `run` sets each column it
    stops, which is still stepped and never read. The layout and the
    synthesis (equilibrium, ``gamma2``, bank) are the scenario's:
    `Scenario.layout` and `Scenario.synthesized`.
    """

    bind: Callable = None            # bind(lifted) -> the fills of phi
    scenario: Scenario = None
    draws: np.ndarray = None         # (B, n_w): one uncertainty draw per column
    ablate: bool = False
    control_rows: np.ndarray = None  # U, (N, dim): the control law as u = U @ state
    operator: np.ndarray = None      # (B, dim, width): each column's map of [x; 1; phi(x)]
    parked: np.ndarray = None        # (B,) bool: the columns the generic plant fill skips

    def control(self, state: np.ndarray) -> np.ndarray:
        """Control input of every agent, ``U @ state``: `control_rows` placed on the state."""
        return self.control_rows @ state

    def manifold_state(self, v0: np.ndarray, column: int = 0) -> np.ndarray:
        """Flat state of one column on the regulated manifold, generator at equilibrium."""
        v0, synthesis = np.asarray(v0, dtype=float), self.scenario.synthesized()
        p_star = synthesis.p_star
        P = np.tile(p_star, self.scenario.n)  # every row at the equilibrium profile
        steady = self._exact_chain(column)
        eta = _ideal_compensators(steady, synthesis.bank, v0)
        # chain level s + 1 sits at the read-out of compensator level s
        x = np.vstack([p_star] + psi_readouts(synthesis.bank, eta)[:-1])
        return np.concatenate([P, v0, steady.z_star(v0).ravel(), x.ravel()]
                              + [e.ravel() for e in eta])

    def ideal_compensators(self, v: np.ndarray, column: int = 0) -> list[np.ndarray]:
        """The compensator states of one column that exactly reproduce the steady signals.

        They come from the exact derivative stacks of the plant's ``steady_poly``
        on the column's steady-state chain, built here.
        """
        return _ideal_compensators(self._exact_chain(column), self.scenario.synthesized().bank,
                                   v)

    def _exact_chain(self, column: int) -> SteadyState:
        """The steady-state chain of one column's draw, from the plant's ``steady_poly``."""
        plant = self.scenario.plant
        if plant.steady_poly is None:
            raise ConfigError("plant: the regulated manifold needs the plant's steady_poly "
                              "(exact steady-state signals), which this plant does not provide")
        return steady_state_chain(plant, self.scenario.synthesized().p_star, self.scenario.exo,
                                  self.draws[column])


def _ideal_compensators(steady: SteadyState, bank: InternalModelBank,
                        v: np.ndarray) -> list[np.ndarray]:
    """Each level's compensator states on ``steady``'s exact derivative stacks at ``v``."""
    return [np.einsum("ijk,ki->ij", level.T, steady.derivative_stack(s + 2, v, level.order))
            for s, level in enumerate(bank.levels)]


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
    if draws is None:
        draws = sample_uncertainty(scenario.w_box, scenario.seed)[None]
    draws = np.array(draws, dtype=float)
    draws.setflags(write=False)

    layout = scenario.layout()
    parked = np.zeros(len(draws), dtype=bool)
    J, features = drift_split(scenario.plant, draws, scenario.exo.n_v, parked)
    # overflowing gains give a non-finite operator; the first RK4 step reports divergence
    with np.errstate(over="ignore", invalid="ignore"):
        A3, U = _closed_loop_operator(scenario, layout, J, features, ablate)
    bind = _closed_loop_bind(layout, features, scenario.game)
    return AssembledLoop(dimension=layout.dim, rhs=_closed_loop_rhs(A3, bind), bind=bind,
                         scenario=scenario, draws=draws, ablate=ablate, control_rows=U,
                         operator=A3, parked=parked)


def _closed_loop_bind(layout: StateLayout, features: PlantFeatures, game: GameSpec):
    """The closed loop's ``bind``: ``bind(lifted)`` returns the fills of its ``phi``, a tuple.

    ``lifted`` is a ``(width, B)`` array ``[x; 1; phi]``. The features
    ``phi`` are the plant's (see `drift_split`) and, for a custom game, each
    agent's finite-difference partial on its own estimate row, which
    `generator.partials_bind` fills; a quadratic game has none, its extended
    gradient being already in the operator. Column ``b`` gets the features
    of its own block; the partials take one stencil per distinct estimate
    block (see `generator.partials_bind`). The views are taken once, at
    binding.
    """
    dim = layout.dim
    P, v, zx = layout.P, layout.v, layout.zx  # rows of the state part of [x; 1; phi]
    phi = slice(dim + 1, dim + 1 + features.count)

    def bind(lifted: np.ndarray) -> tuple:
        return (features.bind(lifted[zx], lifted[v], lifted[phi]),
                *partials_bind(game, lifted[P], lifted[phi.stop:]))

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
        for fill in bind(lifted):
            fill()
        out = np.empty_like(columns)
        column_gemv(A3, lifted, out)()
        return out.reshape(state.shape)

    return rhs


def _closed_loop_operator(scenario: Scenario, layout: StateLayout, J: np.ndarray,
                          features: PlantFeatures, ablate: bool):
    """The closed loop as a linear map of the lifted state, and the control rows ``U``.

    The lifted state is ``[x; 1; phi]``: the state, a one and the features,
    those of the plant (``features``, see `drift_split`) and, for a custom
    game, one finite-difference partial per agent. The operator is ``(B, dim,
    dim + 1 + count [+ N])``, one per draw of the stacked drift split ``J``;
    only the plant rows differ, so the other rows are built once. ``U`` is shared.

    Each designed block comes in its own coordinates and is only placed here,
    by index: `generator_rows` at the scenario's ``gains.gamma1`` and the
    synthesis's ``gamma2``, the exosystem ``S``, the synthesis's
    `InternalModelBank.rows` and `control_rows` at `Scenario.controller_gains`.
    Added here are the plant drift ``J``, the chain shifts ``x_{s+1} -> dx_s``,
    ``u = U x`` on the top chain level and the drives of the compensators:
    ``x_{s+1}`` for level ``s``, ``u`` for the top level.
    """
    n, r, dim = layout.n_agents, layout.r, layout.dim
    P, v, zx, p_diag = layout.P, layout.v, layout.zx, layout.p_diag
    xa, ea = layout.x.start, layout.x.stop  # the compensators follow the chain
    n_zx = zx.stop - zx.start
    v_cols = J.shape[2] - n_zx - features.count
    phi = slice(dim + 1, dim + 1 + features.count)
    synthesis = scenario.synthesized()
    generator = generator_rows(scenario.game, scenario.graph, scenario.gains.gamma1,
                               synthesis.gamma2)
    # the rows every draw shares; the plant rows follow per draw
    A = np.zeros((dim, scenario._lifted_width(features)))
    A[P, P], A[P, dim] = generator[:, P], generator[:, P.stop]  # over [vec P; 1; partials]
    A[P, phi.stop:] = generator[:, P.stop + 1:]
    A[v, v] = scenario.exo.S
    U = np.zeros((n, dim))
    local = control_rows(scenario.controller_gains, synthesis.bank, ablate)  # over [p; x; eta]
    U[:, p_diag], U[:, xa:] = local[:, :n], local[:, n:]
    M, N, _, owner = synthesis.bank.rows
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
    each trajectory is bit-identical to the run of its seed alone, stepped in
    one workspace (`numerics.rk4_lifted_steps`). ``init_mode="box"`` draws
    plant and compensator initial states uniformly from the scenario's box
    (generator estimates start at the configured values, zero by default);
    ``"manifold"`` starts exactly on the regulated manifold with the
    generator at equilibrium. Divergence does not raise: the trajectory up
    to the failure is returned with the flag set. A column that diverges or
    passes ``abort_norm`` stops there: it is marked in the loop's ``parked``,
    which the generic plant fill skips, stepped on but never read, and the
    others go on. Both are read off
    each block of states `numerics.integrate` hands over, per column: a
    column whose every entry in the block is finite and at most
    ``abort_norm`` goes on, and the block is kept with one ``|x|`` maximum
    per column. A column that stops, stops at its first
    state that is not: a state with a NaN or Inf entry diverged within its
    step and keeps neither its peak nor its sample; else the state is past
    ``abort_norm`` and is kept. The states the column is stepped through
    after it, to the block's end, are not kept.

    Each block's kept states (step 0, each ``decimate``-th step and the
    last) are derived into every column's signals as the block arrives, in
    one pass over the batch. ``u`` is one GEMV per kept state, ``U @ x``, so
    a row's bits do not depend on how many rows are derived together. A seed
    costs `Scenario.seed_bytes`: its signals, not its kept states, and its maps.
    """
    batch = seed is not None and not isinstance(seed, (int, np.integer))
    seeds = [int(s) for s in seed] if batch else [scenario.seed if seed is None else int(seed)]
    h, dec = scenario.dt, scenario.decimate
    if not seeds:
        raise ValueError("need at least one seed")
    if init_mode not in ("box", "manifold"):
        raise ValueError(f"unknown init_mode {init_mode!r}")

    n, lay, B = scenario.n, scenario.layout(), len(seeds)
    box, p_star = scenario.exo.v0_box, scenario.synthesized().p_star
    state = np.empty((lay.dim, B))
    state[lay.P] = 0.0 if scenario.p0 is None else scenario.p0.reshape(n * n, 1)
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
    # overflowing gains give non-finite stage maps; the first block reports divergence. The
    # workspace is built before the signals, so its temporaries never meet them
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = rk4_lifted_steps(loop.operator, h, loop.bind)

    # every column's signals, row j from step min(j dec, n_steps); a stopped column keeps the
    # samples it has, a prefix
    n_steps, n_kept = scenario.n_steps, _kept_samples(scenario.n_steps, dec)
    try:
        y, p, e, u, v, ne_dist = (np.empty((B, n_kept) + shape)
                                  for shape in [(n,)] * 4 + [(lay.n_v,), ()])
    except (ValueError, MemoryError) as exc:
        raise ConfigError(
            f"sim.t_final: {scenario.t_final:g} s in steps of sim.dt = {h:g}, keeping every "
            f"sim.decimate = {dec}-th, gives {float(n_kept):.3g} kept "
            f"samples per seed, which cannot be allocated") from exc
    kept = 0  # the rows derived so far
    U, p_stacked = loop.control_rows, np.tile(p_star, n)
    y_cols = slice(lay.x.start, lay.x.start + n)  # the first chain level
    peak = np.zeros(B)  # each column's largest |value| after step 0, up to its last kept step
    counts = np.full(B, n_kept)  # each column's kept rows
    done = loop.parked  # the stopped columns: the generic plant fill skips them, nothing reads them
    diverged_t = [None] * B
    aborted = np.zeros(B, dtype=bool)
    abort = np.inf if abort_norm is None else abort_norm

    def observe(k: int, t: np.ndarray, xs: np.ndarray):
        """Keep the block of steps ``k, k + 1, ..`` and stop the columns that stop in it:
        diverged, or past ``abort_norm``; True once every column has stopped."""
        nonlocal kept
        if k:  # step 0 is kept, but neither stops a column nor joins its peak
            # each column's largest |value| in the block; NumPy reduces over the leading axes
            # one at a time ten times faster than over axes (0, 1) at once, where B > 1
            tops = np.abs(xs).max(axis=0).max(axis=0)
            # two tests, not ~(tops <= abort), which would stop every column at a NaN abort_norm
            stop = (~(tops < np.inf) | (tops > abort)) & ~done
            for b in np.flatnonzero(stop):
                col = np.abs(xs[..., b]).max(axis=1)  # the largest |value| of each state
                j = int(np.argmax(~(col < np.inf) | (col > abort)))  # the state it stops at
                if col[j] < np.inf:
                    aborted[b], j = True, j + 1  # past abort_norm: the state is kept
                else:
                    diverged_t[b] = (k + j) * h  # the time of its first non-finite state
                end, peak[b] = k + j - 1, col[:j].max(initial=peak[b])  # its last kept step
                counts[b] = n_kept if end == n_steps else end // dec + 1
            done[stop] = True
            np.maximum(peak, tops, out=peak, where=~done)
        rows = kept_rows(k, len(xs), n_steps, dec)
        # each column's kept states, (B, rows, dim), each row contiguous; the rows past a
        # column's stop are derived too, and cut off below
        xs = np.ascontiguousarray(xs[rows].transpose(2, 0, 1))
        at = slice(kept, kept + len(xs[0]))
        y[:, at], p[:, at], v[:, at] = xs[..., y_cols], xs[..., lay.p_diag], xs[..., lay.v]
        np.subtract(y[:, at], p[:, at], out=e[:, at])
        # the bits of np.linalg.norm(.., axis=-1): each row's sum over its contiguous entries
        gap = np.subtract(xs[..., lay.P], p_stacked)
        np.sqrt(np.square(gap, out=gap).sum(axis=-1), out=ne_dist[:, at])
        np.matmul(U, xs[..., None], out=u[:, at, :, None])  # one GEMV per kept state
        kept = at.stop
        return done.all()

    # overflow on a diverging trajectory is expected and detected explicitly
    with np.errstate(over="ignore", invalid="ignore"):
        integrate(stepped, state, n_steps, observe)
    del stepped  # the workspace, freed before the trajectories' times are made

    trajs = []
    steps = np.minimum(np.arange(n_kept) * dec, n_steps)  # the step of each kept row
    for b, seed_b in enumerate(seeds):
        kept_b = slice(counts[b])
        trajs.append(ClosedLoopTrajectory(
            t=steps[kept_b] * h, y=y[b, kept_b], p=p[b, kept_b], e=e[b, kept_b],
            u=u[b, kept_b], ne_dist=ne_dist[b, kept_b], p_star=p_star, v=v[b, kept_b],
            max_state_norm=float(peak[b]), diverged=diverged_t[b] is not None,
            diverged_t=diverged_t[b], aborted_norm=bool(aborted[b]), seed=seed_b))
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
    """Export the trajectory to ``path`` with a fixed column schema.

    Columns: ``t, p_star_1..N, y_1..N, p_1..N, e_1..N, u_1..N, ne_dist``.
    Values are printed with 17 significant digits ('.' decimal separator),
    so identical runs produce byte-identical files: the bytes of
    ``np.savetxt`` with ``fmt="%.17g"``. The cells are formatted by
    `csvtext.cell_words`, a whole-array kernel with an exact per-cell
    fallback, one chunk of rows at a time into a buffer of cell words; the
    constant ``p_star`` cells are formatted once.
    """
    n = traj.p_star.shape[0]
    cols = ["t"] + [f"{name}_{i + 1}" for name in ("p_star", "y", "p", "e", "u")
                    for i in range(n)] + ["ne_dist"]
    delims = np.array([csvtext.COMMA] * (len(cols) - 1) + [csvtext.NEWLINE])
    rest = np.r_[0, n + 1:len(cols)]  # every column but p_star's
    buf = np.empty((min(_CSV_CHUNK, len(traj.t)), len(cols), csvtext.CELL_WORDS), np.int64)
    buf[:, 1:n + 1] = csvtext.cell_words(traj.p_star[None, :], delims[1:n + 1])
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for start in range(0, len(traj.t), _CSV_CHUNK):
            chunk = slice(start, start + _CSV_CHUNK)
            cells = np.column_stack([getattr(traj, name)[chunk]
                                     for name in ("t", "y", "p", "e", "u", "ne_dist")])
            rows = buf[:len(cells)]
            rows[:, rest] = csvtext.cell_words(cells, delims[rest])
            fh.write(rows.tobytes().translate(None, csvtext.PADDING))


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
