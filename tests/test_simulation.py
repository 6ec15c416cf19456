from __future__ import annotations

import dataclasses
import gc
import json
import re
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesim import csvtext, simulation
from nesim.cli import main
from nesim.config import load_scenario
from nesim.errors import ConfigError, Disconnected
from nesim.game import CustomGame, QuadraticAggregativeGame, estimate_constants, solve_ne
from nesim.generator import GeneratorGains, min_gamma2, run_generator
from nesim.graph import CommGraph
from nesim.internal_model import StabilizerPair, synthesize_bank
from nesim.numerics import rk4_lifted_step, rk4_step
from nesim.plant import (Exosystem, drift_split, example_plant,
                         sample_uncertainty, steady_state_chain)
from nesim.simulation import (ClosedLoopTrajectory, EscalationSpec, Scenario, assemble,
                              closed_loop_passes, metrics, run, write_csv)
from factories import ring_scenario
from oracles import backstepping_control, composed_rhs, unpack


def test_state_dimension(sec5_loop):
    # 16 generator + 2 disturbance + 4 * (1 + 2 + 3 + 5) plant/compensator
    assert sec5_loop.dimension == 62


def test_rhs_is_deterministic(sec5_loop):
    rng = np.random.default_rng(20)
    state = rng.normal(size=sec5_loop.dimension)
    a = sec5_loop.rhs(0.0, state)
    b = sec5_loop.rhs(0.0, state)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["sec5", "sec5_ablated", "custom"])
def test_rhs_matches_composed_blocks(case, stable, request):
    if case == "custom":
        loop = assemble(request.getfixturevalue("custom_scenario"))
    else:
        loop = assemble(stable, ablate=case == "sec5_ablated")
    rng = np.random.default_rng(21)
    for _ in range(5):
        state = rng.normal(size=loop.dimension)
        ref, u_ref = composed_rhs(loop, state)
        fused = loop.rhs(0.0, state)
        assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(loop.control(state) - u_ref).max() <= 1e-12 * np.abs(u_ref).max()


@pytest.mark.parametrize("ablate", [False, True], ids=["sec5", "sec5_ablated"])
def test_placed_control_rows_match_backstepping_oracle(ablate, stable):
    # u is the backstepping fold of the error coordinates plus the top read-out as
    # feedforward, with each read-out Psi_s eta_s summed per agent; ablated, none is read
    loop = assemble(stable, ablate=ablate)
    rng = np.random.default_rng(22)
    for _ in range(20):
        state = rng.normal(size=loop.dimension)
        P, _, _, x, eta = unpack(loop, state)
        want = backstepping_control(stable.controller_gains, stable.synthesized().bank,
                                    P.diagonal(), x, eta, ablate)
        assert np.abs(loop.control(state) - want).max() <= 1e-12 * np.abs(want).max()


def test_assembled_loop_is_freed_without_the_cyclic_collector(stable):
    # nothing the loop holds may form a reference cycle that keeps the operator alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        loop = assemble(stable)
        operator = weakref.ref(loop.operator)
        assert loop.rhs(0.0, np.zeros(loop.dimension)).shape == (loop.dimension,)
        del loop
        assert operator() is None
    finally:
        if enabled:
            gc.enable()


CUSTOM_CONFIG = {
    "game": {"kind": "custom", "factory": "factories:build_game",
             "args": {"h1": [1.0, 2.0, 3.0], "coupling": 0.5}},
    "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    "plant": {"kind": "custom", "factory": "factories:build_plant", "args": {"n_agents": 3},
              "w_box": [[-0.1, 0.1]] * 3, "v0_box": [[0.5, 1.0], [0.0, 0.0]]},
    "controller": {"k": [[8.0]] * 3},
    "sim": {"t_final": 0.5, "seed": 2, "R": 0.5},
}


def test_scenario_synthesis_is_computed_once(count_calls):
    calls = count_calls(estimate_constants)
    scenario, _ = load_scenario(CUSTOM_CONFIG)
    for seed in (2, 3):
        assert not run(dataclasses.replace(scenario, seed=seed)).diverged
    assert len(calls) == 1

    kept = scenario.synthesis
    for field_name, value in (("t_final", 0.25), ("dt", 5e-4), ("decimate", 5), ("seed", 9)):
        assert dataclasses.replace(scenario, **{field_name: value}).synthesis is kept

    game = scenario.game
    constants = estimate_constants(game)
    assert kept.constants == constants
    assert np.array_equal(kept.p_star, solve_ne(game, constants=constants))
    assert kept.gamma2 == 1.25 * min_gamma2(constants, scenario.graph)
    bank = synthesize_bank(scenario.plant.im_polys, scenario.n, preset=scenario.im_preset)
    for have, want in zip(kept.bank.levels, bank.levels):
        for name in ("M", "N", "T", "Psi"):
            assert np.array_equal(getattr(have, name), getattr(want, name))


def test_replaced_inputs_are_synthesized_again(sec5):
    h1 = np.array([1.0, -2.0, 0.5, 3.0])
    other = QuadraticAggregativeGame(h1=h1, h2=np.zeros(4), h3=np.zeros(4))
    replaced = dataclasses.replace(sec5, game=other)
    assert np.array_equal(replaced.synthesized().p_star, h1)
    assert replaced.synthesis.constants == estimate_constants(other)
    assert not np.array_equal(sec5.synthesized().p_star, h1)
    assert replaced.synthesis.gamma2 == 1.25 * min_gamma2(estimate_constants(other), sec5.graph)
    for field_name, value in (("graph", CommGraph.ring(4)),
                              ("plant", dataclasses.replace(sec5.plant)),
                              ("exo", dataclasses.replace(sec5.exo)),
                              ("gains", GeneratorGains(1.0, 2.0)), ("im_preset", None)):
        assert dataclasses.replace(sec5, **{field_name: value}).synthesis is None, field_name


def test_synthesis_compares_gamma2_by_value(sec5):
    # sec5 resolves gamma2 from the guarantee bound: new gains with gamma2 None keep that
    assert sec5.gains.gamma2 is None
    kept, gamma1 = sec5.synthesized(), sec5.gains.gamma1
    assert dataclasses.replace(sec5, gains=GeneratorGains(gamma1, None)).synthesis is kept
    # a number in place of auto is another gamma2
    explicit = dataclasses.replace(sec5, gains=GeneratorGains(gamma1, 30.0))
    assert explicit.synthesis is None
    # an explicit gamma2 counts by value: an equal new float keeps the synthesis
    kept, gamma2 = explicit.synthesized(), explicit.gains.gamma2
    equal = GeneratorGains(gamma1, float(repr(gamma2)))
    assert equal.gamma2 == gamma2 and equal.gamma2 is not gamma2
    assert dataclasses.replace(explicit, gains=equal).synthesis is kept
    other = GeneratorGains(gamma1, 2.0 * gamma2)
    assert dataclasses.replace(explicit, gains=other).synthesis is None


def test_disconnected_graph_rejected(sec5):
    # connectivity is the synthesis's one rule, lambda2 > CONNECTIVITY_EPS
    disconnected = dataclasses.replace(sec5, graph=CommGraph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(Disconnected, match="lambda2"):
        disconnected.synthesized()


def preset_pairs(scenario: Scenario, agents: int) -> tuple:
    """The scenario's bank written out as explicit stabilizers for the first ``agents`` agents."""
    levels = scenario.synthesized().bank.levels
    return tuple(tuple(StabilizerPair(level.M[i], level.N[i]) for level in levels)
                 for i in range(agents))


@pytest.mark.parametrize("field, changes", [
    ("graph.n", lambda sc: {"graph": CommGraph.ring(5)}),
    ("plant.w_box", lambda sc: {"w_box": sc.w_box[:23]}),
    ("plant.w_box", lambda sc: {"w_box": np.tile([0.1, -0.1], (len(sc.w_box), 1))}),
    ("internal_model", lambda sc: {"im_stabilizers": preset_pairs(sc, sc.n)}),
    ("internal_model.explicit",
     lambda sc: {"im_preset": None, "im_stabilizers": preset_pairs(sc, 3)}),
    ("internal_model.explicit",
     lambda sc: {"im_preset": None,
                 "im_stabilizers": ((StabilizerPair([[-1.0]], [1.0]),) * sc.plant.r,) * sc.n}),
    ("internal_model.explicit",  # a level's coefficients given as a 0-d array: order 1
     lambda sc: {"plant": dataclasses.replace(sc.plant, im_polys=(0.0, sc.plant.im_polys[1])),
                 "im_preset": None, "im_stabilizers": preset_pairs(sc, sc.n)}),
    ("plant", lambda sc: {"plant": example_plant(sc.plant.params["g"][:3])}),
    ("exosystem.S", lambda sc: {"exo": Exosystem(S=np.zeros((2, 3)), v0_box=sc.exo.v0_box)}),
    ("plant.v0_box", lambda sc: {"exo": Exosystem(S=sc.exo.S, v0_box=sc.exo.v0_box[:1])}),
    ("plant.v0_box", lambda sc: {"exo": Exosystem(S=sc.exo.S, v0_box=[[1.0, 0.0], [0.0, 0.0]])}),
], ids=["graph_of_5", "w_box_23_rows", "w_box_inverted", "preset_and_explicit",
        "explicit_for_3_agents", "explicit_of_order_1",
        "explicit_over_a_0d_level", "plant_of_3", "S_not_square",
        "v0_box_1_row", "v0_box_inverted"])
def test_parts_that_do_not_fit_are_named_by_their_field(field, changes, sec5):
    # a library scenario checks how its parts fit where it is built, as a file would
    with pytest.raises(ValueError, match=rf"^{re.escape(field)}: must be "):
        dataclasses.replace(sec5, **changes(sec5))


@pytest.mark.parametrize("k, rule", [
    (np.full((4, 3), 16.0), r"of shape \(4, 2\), got \(4, 3\)"),
    (np.full((4, 1), 16.0), r"of shape \(4, 2\), got \(4, 1\)"),
    (np.full((4, 2), np.nan), "finite and > 0"),
], ids=["too_many_levels", "too_few_levels", "nan"])
def test_controller_k_is_checked_by_the_scenario(k, rule, sec5, count_calls):
    # a library scenario rejects its gains where it is built, not in assembly
    calls = count_calls(assemble)
    with pytest.raises(ValueError, match=r"controller\.k: must be " + rule):
        run(dataclasses.replace(sec5, controller_k=k, t_final=0.01))
    assert calls == []


def test_p0_is_checked_by_the_scenario(sec5, count_calls):
    # the generator start is (N, N) for every run; a library scenario rejects another
    # shape where it is built, not in a broadcast inside `run`
    calls = count_calls(assemble)
    with pytest.raises(ValueError, match=r"gains\.p0: must be of shape \(4, 4\), got \(3, 3\)"):
        run(dataclasses.replace(sec5, p0=np.zeros((3, 3)), t_final=0.01))
    assert calls == []
    ints = np.arange(16).reshape(4, 4)
    p0 = dataclasses.replace(sec5, p0=ints).p0
    assert p0.dtype == float and np.array_equal(p0, ints) and not p0.flags.writeable


def test_w_box_is_kept_as_a_read_only_float_array(sec5):
    ints = np.tile([-1, 1], (len(sec5.w_box), 1))
    w_box = dataclasses.replace(sec5, w_box=ints).w_box
    assert w_box.dtype == float and np.array_equal(w_box, ints) and not w_box.flags.writeable


def test_closed_loop_generator_block_is_the_generator_alone(stable):
    # the generator rows read no plant state, so each seed's estimates are the generator's
    # run; the closed loop's larger GEMVs round differently
    short = dataclasses.replace(stable, t_final=10.0)
    alone = run_generator(short)
    for traj in run(short, seed=[1, 2, 3]):
        assert np.array_equal(traj.t, alone.t)
        assert np.abs(traj.ne_dist - alone.dist).max() <= 1e-12 * (1.0 + alone.dist.max())


def test_closed_loop_tracks_reference(stable):
    traj = run(dataclasses.replace(stable, t_final=10.0))
    assert not traj.diverged
    assert np.abs(traj.e[-1]).max() < 1e-2


def test_manifold_start_stays_on_manifold(stable):
    traj = run(dataclasses.replace(stable, t_final=5.0), init_mode="manifold")
    assert np.abs(traj.e).max() <= 1e-6


def test_steady_chains_are_built_only_for_the_manifold_start(stable, count_calls):
    # the chain is truth data: a box start steps the loop without it
    chains = count_calls(steady_state_chain)
    short = dataclasses.replace(stable, t_final=0.05, decimate=1)
    run(short, seed=[1, 2])
    assert chains == []
    batch = run(short, seed=[1, 2], init_mode="manifold")
    assert len(chains) == 2  # one per column
    for traj in batch:
        assert_same_run(traj, run(short, seed=traj.seed, init_mode="manifold"))


def test_manifold_start_without_steady_poly_is_a_config_error(custom_scenario, count_calls):
    # the generic plant has no exact steady-state form to start on
    assert custom_scenario.plant.steady_poly is None
    steps = count_calls(rk4_lifted_step)
    with pytest.raises(ConfigError, match="steady_poly"):
        run(dataclasses.replace(custom_scenario, t_final=0.01), init_mode="manifold")
    with pytest.raises(ConfigError, match="steady_poly"):
        assemble(custom_scenario).manifold_state(np.array([0.7, 0.0]))
    assert steps == []


def test_divergence_is_reported_not_raised(sec5):
    weak = dataclasses.replace(sec5, controller_k=np.full((4, 2), 4.0))
    traj = run(dataclasses.replace(weak, t_final=10.0))
    assert traj.diverged
    assert traj.diverged_t is not None
    assert len(traj.t) >= 1  # partial trajectory retained for debugging
    signals = (traj.t, traj.y, traj.p, traj.e, traj.u, traj.ne_dist, traj.v)
    assert {len(a) for a in signals} == {len(traj.t)}


def test_overflowing_gains_diverge_quietly(sec5):
    # the operator overflows to inf and NaN: a divergence at the first step, with no
    # warning (the suite turns warnings into errors)
    traj = run(dataclasses.replace(sec5, t_final=0.01, controller_k=np.full((4, 2), 1e300)))
    assert traj.diverged and traj.diverged_t == sec5.dt and len(traj.t) == 1


def test_recorded_signals_match_per_sample_oracle(sec5, stable):
    traj = run(dataclasses.replace(stable, t_final=0.5, decimate=1))
    # the initial state as `run` draws it: uncertainty, disturbance, then the box
    rng = np.random.default_rng(sec5.seed)
    loop = assemble(stable, draws=sample_uncertainty(sec5.w_box, rng)[None])
    box = sec5.exo.v0_box
    v0 = rng.uniform(box[:, 0], box[:, 1])
    n = sec5.n
    draws = rng.uniform(-sec5.R, sec5.R, size=loop.dimension - n * n - len(v0))
    state = np.concatenate([np.zeros(n * n), v0, draws])
    assert sec5.p0 is None and len(traj.t) == 501

    def close(have, want):
        return np.abs(have - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300)

    peak = 0.0  # largest |state entry| after step 0
    for k in range(len(traj.t)):
        if k:
            state = rk4_step(loop, (k - 1) * sec5.dt, state, sec5.dt)
            peak = max(peak, float(np.abs(state).max()))
        P, v, z, x, eta = unpack(loop, state)
        refs = P.diagonal()
        u = backstepping_control(stable.controller_gains, stable.synthesized().bank, refs, x, eta)
        assert traj.t[k] == k * sec5.dt
        assert close(traj.y[k], x[0]) and close(traj.p[k], refs)
        assert close(traj.e[k], x[0] - refs) and close(traj.v[k], v)
        assert close(traj.ne_dist[k], np.linalg.norm(P - stable.synthesized().p_star))
        assert close(traj.u[k], u)
    # the peak is the running maximum, which the last state no longer reaches; `run` steps
    # by the lifted step, so it matches the oracle's peak to the bound of the signals
    assert close(traj.max_state_norm, peak) and peak > np.abs(state).max()


SIGNALS = ("t", "y", "p", "e", "u", "ne_dist", "v")


def assert_same_run(have, want):
    """Every signal bit for bit, and the same peak norm, stop flags and seed."""
    for name in SIGNALS:
        a, b = getattr(have, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert have.max_state_norm == want.max_state_norm
    for name in ("diverged", "diverged_t", "aborted_norm", "seed"):
        assert getattr(have, name) == getattr(want, name), name


@pytest.mark.parametrize("case", ["sec5", "sec5_ablated", "custom"])
def test_batched_seeds_match_single_seed_runs(case, stable, request):
    if case == "custom":
        scenario = dataclasses.replace(request.getfixturevalue("custom_scenario"), t_final=0.3)
        kwargs = {}
    else:
        scenario = dataclasses.replace(stable, t_final=1.0, decimate=1)
        kwargs = dict(ablate=case == "sec5_ablated")
    batch = run(scenario, seed=(1, 2, 3), **kwargs)
    assert [traj.seed for traj in batch] == [1, 2, 3]
    for traj in batch:
        assert not traj.diverged
        assert_same_run(traj, run(scenario, seed=traj.seed, **kwargs))


@pytest.mark.parametrize("abort_norm", [None, 1e6], ids=["diverging", "norm_abort"])
def test_stopped_columns_match_single_seed_runs(abort_norm, sec5):
    # at the start gains seeds 1 and 2 blow up before t = 2 at different steps, seed 3 later
    short = dataclasses.replace(sec5, t_final=2.0, decimate=1, controller_k=np.full((4, 2), 4.0))
    batch = run(short, seed=(1, 2, 3), abort_norm=abort_norm)
    stopped = [traj for traj in batch if traj.diverged or traj.aborted_norm]
    assert [traj.seed for traj in stopped] == [1, 2]
    assert len({len(traj.t) for traj in stopped}) == 2
    assert batch[2].t[-1] == 2.0
    for traj in batch:
        assert_same_run(traj, run(short, seed=traj.seed, abort_norm=abort_norm))
    if abort_norm is None:
        # diverged_t is the end of the first failing step: one step less stays finite
        t_fail = batch[0].diverged_t
        before = dataclasses.replace(short, t_final=t_fail - sec5.dt)
        assert not run(before, seed=1).diverged
        until = dataclasses.replace(short, t_final=t_fail)
        assert run(until, seed=1).diverged_t == t_fail
    else:
        # the abort step is the first, and recorded, step whose state passes the limit
        for traj in stopped:
            assert traj.max_state_norm > abort_norm
            before = run(dataclasses.replace(short, t_final=traj.t[-1] - sec5.dt),
                         seed=traj.seed, abort_norm=abort_norm)
            assert not before.aborted_norm and before.max_state_norm <= abort_norm


@pytest.fixture(scope="module")
def counting_custom(custom_scenario):
    """``(scenario, calls)``: the custom scenario, each of its cost calls appended to ``calls``."""
    calls = []

    def counted(cost):
        def call(yi, profile):
            calls.append((yi, profile.tobytes()))
            return cost(yi, profile)
        return call

    game = custom_scenario.game
    counting = dataclasses.replace(
        custom_scenario, game=CustomGame([counted(cost) for cost in game.costs], game.sample_box))
    counting.synthesized()
    return counting, calls


def test_a_stopped_column_0_leaves_the_custom_batch_as_run_alone(counting_custom):
    # the custom game's partial fill runs one stencil per distinct estimate block of the
    # batch (`generator.partials_bind`). Seed 1 starts with an entry above the abort norm
    # and is stopped after step 1, but the generator reads no plant state, so its estimates
    # still share the one block of seeds 2 and 3, which stay below the norm for 0.3 s; each
    # column must still be its run alone
    scenario, calls = counting_custom
    short = dataclasses.replace(scenario, t_final=0.3, decimate=1)
    calls.clear()
    batch = run(short, seed=(1, 2, 3), abort_norm=0.85)
    # 4 stages of 3 players' two calls, for one block in each of the 300 steps: the calls
    # of the two live seeds alone
    assert len(calls) == 24 * 300
    assert batch[0].aborted_norm and len(batch[0].t) == 2
    assert [len(traj.t) for traj in batch[1:]] == [301, 301]
    for traj in batch:
        assert_same_run(traj, run(short, seed=traj.seed, abort_norm=0.85))


def test_a_diverging_seed_calls_no_cost_on_its_nan_strategies(nan_rejecting_sec5):
    # the costs raise on a NaN own strategy, which a diverged column's estimates reach: no
    # call sees one, each seed of the batch is its run alone, and the diverged seed's calls
    # are those its live partner makes anyway (one shared stencil until it diverges)
    scenario, calls = nan_rejecting_sec5
    calls.clear()
    batch = run(scenario, seed=[1, 3])
    in_batch = len(calls)
    assert [traj.diverged for traj in batch] == [True, False]
    for traj in batch:
        calls.clear()
        assert_same_run(traj, run(scenario, seed=traj.seed))
        if not traj.diverged:
            assert in_batch == len(calls) == 4 * 4 * 2 * scenario.n_steps


def test_a_batch_of_the_same_estimates_makes_the_cost_calls_of_one_column(counting_custom):
    # the generator reads no plant state, so three seeds make the cost calls of one, in order
    scenario, calls = counting_custom
    counting = dataclasses.replace(scenario, t_final=0.01)
    runs = []
    for seed in (1, (1, 2, 3)):
        calls.clear()
        run(counting, seed=seed)
        runs.append(list(calls))
    # 10 steps of 4 stages, each with an upward and a downward call for each of 3 players
    assert len(runs[0]) == 10 * 4 * 3 * 2
    assert runs[1] == runs[0]


def test_batched_rerun_is_bit_identical(stable):
    short = dataclasses.replace(stable, t_final=0.5)
    first, again = (run(short, seed=[4, 5]) for _ in range(2))
    for have, want in zip(again, first):
        assert_same_run(have, want)


@pytest.mark.parametrize("settings, kwargs", [
    (dict(dt=0.0), {}), (dict(decimate=0), {}), ({}, dict(seed=[])), (dict(t_final=-1.0), {}),
    (dict(dt=np.nan), {}), (dict(dt=np.inf), {}), (dict(t_final=np.nan), {}),
    (dict(t_final=np.inf), {}), (dict(t_final=1e300, dt=1e-10), {}),
], ids=["dt_zero", "decimate_zero", "no_seeds", "t_final_negative", "dt_nan", "dt_inf",
        "t_final_nan", "t_final_inf", "step_count_overflow"])
def test_run_rejects_bad_arguments(settings, kwargs, stable):
    # the run settings are the scenario's, rejected by `Scenario` when replaced
    with pytest.raises(ValueError):
        run(dataclasses.replace(stable, **dict(t_final=0.01) | settings), **kwargs)


def test_a_step_past_the_horizon_is_rejected_by_the_scenario(sec5):
    # 0.4 s in steps of 1 s rounds to no step at all: no run, escalation round or sweep
    assert dataclasses.replace(sec5, t_final=0.4, dt=0.5).n_steps == 1
    with pytest.raises(ValueError, match=r"^sim\.dt: must be less than twice sim\.t_final"):
        dataclasses.replace(sec5, t_final=0.4, dt=1.0)


def test_impossible_horizon_is_a_config_error_before_the_first_step(stable, count_calls):
    # 1e300 s at dt = 1e-3 keeps more states than one array can index
    steps = count_calls(rk4_lifted_step)
    with pytest.raises(ConfigError, match=r"sim\.t_final: .*sim\.dt.*sim\.decimate.*allocated"):
        run(dataclasses.replace(stable, t_final=1e300))
    assert steps == []


@pytest.mark.parametrize("case", ["sec5", "custom"])
def test_operator_is_shared_rows_plus_plant_rows_per_draw(case, stable, request):
    scenario = request.getfixturevalue("custom_scenario") if case == "custom" else stable
    seeds = (1, 2, 3)
    draws = np.stack([sample_uncertainty(scenario.w_box, s) for s in seeds])
    batch = assemble(scenario, draws=draws)
    lay, n = scenario.layout(), scenario.n
    assert np.array_equal(batch.draws, draws) and not hasattr(batch, "steadies")
    J, features = drift_split(scenario.plant, batch.draws, scenario.exo.n_v)
    n_zx = lay.zx.stop - lay.zx.start
    v_cols = J.shape[2] - n_zx - features.count
    # the lifted state [x; 1; plant features], then a custom game's partials
    phi = lay.dim + 1 + np.arange(features.count)
    width = phi[-1] + 1 + (n if case == "custom" else 0)
    shifted = np.arange(lay.x.start, lay.x.stop - n)
    others = np.r_[:lay.zx.start, lay.zx.stop:lay.dim]
    for b, seed in enumerate(seeds):
        one = assemble(scenario, draws=sample_uncertainty(scenario.w_box, seed)[None])
        assert one.operator.shape == (1, lay.dim, width)
        assert np.array_equal(one.operator[0], batch.operator[b])
        # the plant rows hold the drift split, the chain shifts and the control law
        plant = np.zeros((n_zx, width))
        plant[:, lay.zx] = J[b, :, :n_zx]
        plant[:, lay.v.start:lay.v.start + v_cols] = J[b, :, n_zx:n_zx + v_cols]
        plant[:, phi] = J[b, :, n_zx + v_cols:]
        plant[shifted - lay.zx.start, shifted + n] += 1.0
        plant[-n:, :lay.dim] += batch.control_rows
        assert np.array_equal(batch.operator[b, lay.zx], plant)
        assert np.array_equal(batch.operator[b, others], batch.operator[0, others])


def traced_peak(scenario, seeds) -> int:
    """The tracemalloc peak of `run` over ``seeds``, after a short run has done its imports."""
    run(dataclasses.replace(scenario, t_final=0.01), seed=seeds)  # lazy imports, not run's memory
    tracemalloc.start()
    try:
        run(scenario, seed=seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_holds_each_column_only_until_it_is_derived(sec5):
    # two seeds, every step kept, at the gains sec5's escalation passes with (x4): 5001 rows,
    # so the peak (2.5 MB) is each seed's signals and the workspace, half of one copy of the
    # history (5.0 MB), and no whole-history temporaries of the distance to equilibrium
    dense = dataclasses.replace(sec5.escalated(4.0), t_final=5.0, decimate=1)
    assert traced_peak(dense, [1, 2]) <= 0.6 * 2 * 5001 * dense.layout().dim * 8


def test_run_does_not_hold_every_kept_state(sec5):
    # 10001 rows of two seeds: the peak is each seed's signals (`Scenario.kept_state_bytes`),
    # the stepping workspace and one block's temporaries (4.0 MB), not every kept state (9.9 MB)
    dense = dataclasses.replace(sec5.escalated(4.0), t_final=10.0, decimate=1)
    peak, every_state = traced_peak(dense, [1, 2]), 2 * 10001 * dense.layout().dim * 8
    assert peak <= 0.45 * every_state
    assert 2 * dense.kept_state_bytes() <= peak <= 2 * dense.kept_state_bytes() + 2 ** 20


def test_kept_state_bytes_counts_the_recorded_samples(stable):
    # steps 0, 3, .., 48 and 50; then 2501 rows, every step
    for t_final, decimate, rows in ((0.05, 3, 18), (2.5, 1, 2501)):
        short = dataclasses.replace(stable, t_final=t_final, decimate=decimate)
        traj = run(short)
        assert len(traj.t) == rows
        signals = sum(getattr(traj, name).nbytes
                      for name in ("t", "y", "p", "e", "u", "v", "ne_dist"))
        assert short.kept_state_bytes() == signals


def traced_per_column(scenario, monkeypatch) -> tuple[float, float]:
    """What `run` holds when its first block arrives and its traced peak, per column added
    to the batch: the difference between batches of 5 and 2 seeds, over 3."""
    held, real = [], simulation.integrate

    def integrate(steps, x0, n_steps, observer):
        def observe(k, t, xs):
            if not k:  # the workspace, the block buffer and the signals are all allocated
                held.append(tracemalloc.get_traced_memory()[0])
            return observer(k, t, xs)
        return real(steps, x0, n_steps, observe)

    monkeypatch.setattr(simulation, "integrate", integrate)
    at = {}
    for B in (2, 5):
        run(dataclasses.replace(scenario, t_final=0.01), seed=list(range(1, B + 1)))
        held.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(scenario, seed=list(range(1, B + 1)))
            at[B] = held[0] - base, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return (at[5][0] - at[2][0]) / 3, (at[5][1] - at[2][1]) / 3


@pytest.mark.parametrize("case", ["sec5", "ring8"])
def test_seed_bytes_lies_between_what_run_holds_and_its_peak_per_column(case, sec5,
                                                                        monkeypatch):
    # measured per column, held <= seed_bytes <= 1.05 peak: 402 <= 423 <= 437 KB on sec5 at
    # x4 (peak 416), 2301 <= 2369 <= 2551 KB on the 8-ring (peak 2429); the stage maps are
    # written in place, so the peak holds few temporaries, and the 5% fails a count of eleven
    # (dim, width) blocks as it fails nine
    scenario = sec5.escalated(4.0) if case == "sec5" else ring_scenario(8, dt=2.5e-4)
    scenario = dataclasses.replace(scenario, t_final=0.05)
    held, peak = traced_per_column(scenario, monkeypatch)
    assert held <= scenario.seed_bytes() <= 1.05 * peak


SPLIT_CONTRACT = r"\(B, n_w\) stack of draws.*PlantFeatures\(count, bind\)"

# each hook of `factories.build_plant_with_malformed_split` and what its error names
MALFORMED_SPLITS = {
    "one_flat_draw": SPLIT_CONTRACT,
    "one_draw_of_the_batch": SPLIT_CONTRACT,
    "remainder": SPLIT_CONTRACT,
    "v_cols_past_n_v": SPLIT_CONTRACT,
    "fill_style": r"PlantFeatures\(count, bind\).*returned NoneType",
    "nested_lists": SPLIT_CONTRACT,
    "bare_j": SPLIT_CONTRACT,
    "three_tuple": SPLIT_CONTRACT,
}


@pytest.mark.parametrize("argv", [["check", "--t-final", "1"],
                                  ["simulate", "--t-final", "1", "--sweep", "seeds=2"]],
                         ids=["check", "simulate"])
@pytest.mark.parametrize("hook", list(MALFORMED_SPLITS))
def test_malformed_split_hook_is_a_config_error(hook, argv, sec5_norm, tmp_path, monkeypatch,
                                                capsys):
    # sec5, its plant from a factory whose split hook breaks the contract, at explicit
    # gains, so the batch of two is built without escalation
    cfg = json.loads(json.dumps(sec5_norm))
    plant = cfg["plant"]
    cfg["plant"] = {"kind": "custom", "factory": "factories:build_plant_with_malformed_split",
                    "args": {"g": plant["g"], "hook": hook},
                    "w_box": plant["w_box"], "v0_box": plant["v0_box"]}
    cfg["controller"]["k"] = [[16.0, 16.0]] * 4
    (tmp_path / "malformed.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", "malformed.json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: plant split hook")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert re.search(MALFORMED_SPLITS[hook], captured.err)
    assert captured.out == ""


def test_escalation_predicate(stable):
    short = dataclasses.replace(stable, t_final=10.0)
    assert closed_loop_passes(short)
    assert not closed_loop_passes(dataclasses.replace(short, controller_k=np.full((4, 2), 4.0)))


def test_zero_disturbance_decoupled_game_reaches_targets():
    h1 = np.array([2.0, 4.0, 3.0, 5.0])
    game = QuadraticAggregativeGame(h1=h1, h2=np.zeros(4), h3=np.zeros(4))
    g = np.array([[-1.0, 1.0, 0.5, 2.0, 0.3, 0.3]] * 4)
    scenario = Scenario(
        game=game, graph=CommGraph.ring(4), plant=example_plant(g),
        exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                      v0_box=np.zeros((2, 2))),
        w_box=np.zeros((24, 2)),
        gains=GeneratorGains(1.0, None), controller_k=np.tile([16.0, 16.0], (4, 1)),
        escalation=EscalationSpec(), im_preset="sec5",
        t_final=20.0, dt=2e-3, seed=3, R=1.0, decimate=10,
    )
    traj = run(scenario)
    assert not traj.diverged
    assert np.abs(traj.y[-1] - h1).max() < 1e-2


def test_triangle_inequality_on_final_errors(stable):
    traj = run(dataclasses.replace(stable, t_final=10.0))
    lhs = np.abs(traj.y[-1] - traj.p_star)
    rhs = np.abs(traj.e[-1]) + np.abs(traj.p[-1] - traj.p_star)
    assert np.all(lhs <= rhs + 1e-12)


def test_seed_determinism_bit_identical_csv(stable, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    short = dataclasses.replace(stable, t_final=2.0)
    write_csv(run(short), a)
    write_csv(run(short), b)
    assert a.read_bytes() == b.read_bytes()


def test_step_halving_consistency_short(sec5, stable):
    short = dataclasses.replace(stable, t_final=5.0)
    a = run(short)
    b = run(dataclasses.replace(short, dt=sec5.dt / 2))
    assert np.abs(a.y[-1] - b.y[-1]).max() < 1e-6


def synthetic_trajectory(dist, t=None):
    t = np.linspace(0, 10, len(dist)) if t is None else t
    n = 4
    zeros = np.zeros((len(t), n))
    return ClosedLoopTrajectory(t=t, y=zeros, p=zeros, e=zeros, u=zeros,
                                ne_dist=np.asarray(dist, dtype=float),
                                p_star=np.zeros(n), v=np.zeros((len(t), 2)),
                                max_state_norm=0.0)


class TestMetrics:
    def test_constant_zero_gives_sentinel_slope(self):
        m = metrics(synthetic_trajectory(np.zeros(101)))
        assert m["final_tracking_max"] == 0.0
        assert np.isnan(m["ne_log_slope"])

    def test_exponential_slope_recovered(self):
        t = np.linspace(0, 10, 101)
        m = metrics(synthetic_trajectory(np.exp(-2.0 * t)))
        assert m["ne_log_slope"] == pytest.approx(-2.0, abs=1e-6)

    def test_slope_ignores_the_roundoff_floor(self):
        t = np.linspace(0, 30, 301)
        m = metrics(synthetic_trajectory(np.maximum(3.0 * np.exp(-2.0 * t), 5e-14), t))
        assert m["ne_log_slope"] == pytest.approx(-2.0, abs=1e-6)

    def test_closed_loop_slope_negative(self, stable):
        traj = run(dataclasses.replace(stable, t_final=10.0))
        assert metrics(traj)["ne_log_slope"] < 0


def test_csv_schema(stable, tmp_path):
    path = tmp_path / "traj.csv"
    write_csv(run(dataclasses.replace(stable, t_final=1.0)), path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[-1] == "ne_dist"
    assert len(header) == 2 + 5 * 4
    assert header[1:5] == ["p_star_1", "p_star_2", "p_star_3", "p_star_4"]


def test_csv_bytes_are_17_significant_digits(tmp_path):
    t = np.array([0.0, 0.1, 2.0])
    y = np.array([[-0.0, 1e-300], [1e300, 3.0], [0.1, -7.0]])
    traj = ClosedLoopTrajectory(t=t, y=y, p=y[::-1].copy(), e=-y, u=2.0 * y,
                                ne_dist=np.array([1e300, -0.0, 5.0]),
                                p_star=np.array([0.1, -2.0]), v=np.zeros((3, 2)),
                                max_state_norm=0.0)
    path = tmp_path / "fmt.csv"
    write_csv(traj, path)
    lines = ["t,p_star_1,p_star_2,y_1,y_2,p_1,p_2,e_1,e_2,u_1,u_2,ne_dist"]
    for k in range(len(t)):
        row = np.concatenate([[t[k]], traj.p_star, traj.y[k], traj.p[k], traj.e[k],
                              traj.u[k], [traj.ne_dist[k]]])
        lines.append(",".join(format(float(x), ".17g") for x in row))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_bytes_equal_savetxt(tmp_path):
    # oracle: `np.savetxt` on the stacked columns, with the writer's fmt, delimiter and header;
    # the row count is not a multiple of the writer's chunk, and non-finite and signed-zero
    # cells sit in every column block
    rng = np.random.default_rng(5)
    K, n = 2 * simulation._CSV_CHUNK + 88, 3
    sig = rng.normal(size=(4, K, n)) * 10.0 ** rng.integers(-300, 300, size=(4, K, n))
    sig[:, 7] = [np.nan, np.inf, -np.inf]
    sig[:, 8] = -0.0
    t, ne_dist = np.linspace(0.0, 6.0, K), np.abs(rng.normal(size=K))
    t[0], ne_dist[:3] = -0.0, [np.nan, np.inf, -np.inf]
    traj = ClosedLoopTrajectory(t=t, y=sig[0], p=sig[1], e=sig[2], u=sig[3], ne_dist=ne_dist,
                                p_star=np.array([-0.0, 0.1, np.nan]), v=np.zeros((K, 2)),
                                max_state_norm=0.0)
    path = tmp_path / "fast.csv"
    write_csv(traj, path)
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        rows = np.column_stack([t, np.broadcast_to(traj.p_star, (K, n)), *sig, ne_dist])
        header = ",".join(["t"] + [f"{name}_{i + 1}" for name in ("p_star", "y", "p", "e", "u")
                                   for i in range(n)] + ["ne_dist"])
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def kernel_bytes(cells: np.ndarray) -> bytes:
    """The text `csvtext.cell_words` gives ``(rows, k)`` cells, with the writer's delimiters."""
    delims = np.full(cells.shape[1], csvtext.COMMA)
    delims[-1] = csvtext.NEWLINE
    return csvtext.cell_words(cells, delims).tobytes().translate(None, csvtext.PADDING)


def formatted(cells: np.ndarray) -> bytes:
    """The oracle: Python's own ``.17g`` of each cell, joined by the writer's delimiters."""
    return "".join(",".join(format(x, ".17g") for x in row) + "\n"
                   for row in cells.tolist()).encode()


@settings(max_examples=200)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 2 ** 64 - 1), min_size=k, max_size=k), min_size=1, max_size=8)))
def test_cell_kernel_gives_the_bytes_of_17g_for_any_bit_pattern(rows):
    cells = np.array(rows, dtype=np.uint64).view(np.float64)
    assert kernel_bytes(cells) == formatted(cells)


def cell_edges() -> np.ndarray:
    """Doubles where a 17-digit conversion can go wrong, with both signs."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    ints = np.array([float(v) for base in (10 ** 16, 10 ** 17) for v in range(base - 40, base + 41)])
    switch = np.array([0.0001, 9.9999999999999991e-05, 1e16, 99999999999999984.0, 1e17])
    special = np.array([5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
                        1.03e-290, 1.03e-289, 9.99e299,  # about the kernel's range
                        0.0, np.nan, np.inf, 1.7976931348623157e308, 0.5, 0.1, 1.0 / 3.0,
                        1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25])  # exact ties at the 17th digit
    edges = np.concatenate([near, ints, switch, special])
    return np.concatenate([edges, -edges])


def test_cell_kernel_gives_the_bytes_of_17g_at_the_edges():
    # every power of ten and its neighbours, integers about 1e16 and 1e17 (the decade edges
    # of the 17-digit significand), the fixed/scientific switches at E = -5/-4 and 16/17,
    # subnormals, signed zeros, NaN and infinities
    cells = cell_edges().reshape(-1, 2)
    assert kernel_bytes(cells) == formatted(cells)


def test_cell_kernel_fallback_alone_gives_the_same_bytes(monkeypatch):
    # a tie bound of 1/2 sends every cell to the exact per-cell path
    cells = np.concatenate([cell_edges(), np.random.default_rng(3).normal(size=400)])
    monkeypatch.setattr(csvtext, "TIE_BOUND", 0.5)
    words = csvtext.cell_words(cells[:, None], np.array([csvtext.COMMA])).tobytes()
    size = 8 * csvtext.CELL_WORDS
    assert all(b" " in words[i:i + size] for i in range(0, len(words), size))  # `%`'s padding
    assert kernel_bytes(cells[:, None]) == formatted(cells[:, None])


def test_cell_kernel_scales_are_double_doubles_of_powers_of_ten():
    # oracle: exact rational arithmetic. hi is 10^(16 - E) correctly rounded and lo the rest
    # rounded; hi's split hh + hl is exact, in parts short enough for exact products
    scale = csvtext._TABLES["scale"]
    for E, (hi, hh, hl, lo) in zip(range(csvtext._E_MIN, csvtext._E_MAX + 1), scale.T.tolist()):
        exact = Fraction(10) ** (16 - E)
        assert hi == float(exact) and lo == float(exact - Fraction(hi))
        assert Fraction(hh) + Fraction(hl) == Fraction(hi)
        for part in (hh, hl):  # significant bits of the numerator, trailing zeros dropped
            num = abs(part.as_integer_ratio()[0])
            assert num == 0 or (num // (num & -num)).bit_length() <= 27


GOLDEN_CONFIGS = json.loads((Path(__file__).resolve().parent / "golden" / "outputs.json")
                            .read_text())["configs"]


def test_csv_of_a_diverged_seed_equals_savetxt(tmp_path):
    # the golden no-split settings at gains too low: seed 1 diverges at t = 1.343 and keeps
    # a shorter history than seeds 3 and 5 of its batch; oracle: `np.savetxt` of its own
    # stacked columns
    scenario, _ = load_scenario(GOLDEN_CONFIGS["no_split_diverging.json"])
    trajs = run(scenario, seed=[1, 3, 5])
    assert [traj.diverged for traj in trajs] == [True, False, False]
    traj = trajs[0]
    K, n = traj.y.shape
    assert K < len(trajs[1].t)
    path = tmp_path / "diverged.csv"
    write_csv(traj, path)
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        rows = np.column_stack([traj.t, np.broadcast_to(traj.p_star, (K, n)), traj.y, traj.p,
                                traj.e, traj.u, traj.ne_dist])
        header = ",".join(["t"] + [f"{name}_{i + 1}" for name in ("p_star", "y", "p", "e", "u")
                                   for i in range(n)] + ["ne_dist"])
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def random_trajectory(K: int, n: int, rng) -> ClosedLoopTrajectory:
    """A trajectory of ``K`` rows and ``n`` agents, its signals drawn from a normal."""
    sig = rng.normal(size=(4, K, n))
    return ClosedLoopTrajectory(t=np.linspace(0.0, 1e-3 * K, K), y=sig[0], p=sig[1], e=sig[2],
                                u=sig[3], ne_dist=np.abs(rng.normal(size=K)),
                                p_star=rng.normal(size=n), v=np.zeros((K, 2)), max_state_norm=0.0)


def test_csv_writer_holds_no_whole_signal(tmp_path):
    # guards "no whole-signal copy": the writer's traced peak (its chunk buffer and the
    # kernel's temporaries) stays below one (K, N) signal, 1.28 MB here; the bound is that
    # signal's size, not a peak measured on one machine
    rng = np.random.default_rng(9)
    write_csv(random_trajectory(100, 4, rng), tmp_path / "warm.csv")  # lazy imports
    traj = random_trajectory(40_001, 4, rng)
    tracemalloc.start()
    try:
        write_csv(traj, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < traj.y.nbytes
