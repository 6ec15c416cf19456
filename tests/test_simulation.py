from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from nesim.config import load_scenario
from nesim.errors import ConfigError
from nesim.game import QuadraticAggregativeGame, estimate_constants, solve_ne
from nesim.generator import GeneratorGains, min_gamma2
from nesim.graph import CommGraph
from nesim.internal_model import synthesize_bank
from nesim.numerics import rk4_lifted_step, rk4_step
from nesim.plant import (Exosystem, PlantFeatures, drift_split, example_plant,
                         sample_uncertainty, steady_state_chain)
from nesim.simulation import (ClosedLoopTrajectory, EscalationSpec, Scenario, assemble,
                              closed_loop_passes, metrics, run, write_csv)
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
        want = backstepping_control(loop.scenario.controller_gains, loop.bank, P.diagonal(), x,
                                    eta, ablate)
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
                              ("gamma2_auto", False), ("im_preset", None)):
        assert dataclasses.replace(sec5, **{field_name: value}).synthesis is None, field_name


def test_synthesis_compares_gamma2_by_value(sec5):
    # sec5 resolves gamma2 from the guarantee bound: the configured one is a placeholder
    assert sec5.gamma2_auto
    kept, gamma1 = sec5.synthesized(), sec5.gains.gamma1
    for gamma2 in (float("1.0"), 30.0):
        assert dataclasses.replace(sec5, gains=GeneratorGains(gamma1, gamma2)).synthesis is kept
    # an explicit gamma2 counts by value: an equal new float keeps the synthesis
    explicit = dataclasses.replace(sec5, gamma2_auto=False)
    kept, gamma2 = explicit.synthesized(), explicit.gains.gamma2
    equal = GeneratorGains(gamma1, float(repr(gamma2)))
    assert equal.gamma2 == gamma2 and equal.gamma2 is not gamma2
    assert dataclasses.replace(explicit, gains=equal).synthesis is kept
    other = GeneratorGains(gamma1, 2.0 * gamma2)
    assert dataclasses.replace(explicit, gains=other).synthesis is None


def test_disconnected_graph_rejected(sec5):
    with pytest.raises(ValueError, match="connected"):
        dataclasses.replace(sec5, graph=CommGraph.from_edges(4, [(0, 1), (2, 3)]))


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
        u = backstepping_control(loop.scenario.controller_gains, loop.bank, refs, x, eta)
        assert traj.t[k] == k * sec5.dt
        assert close(traj.y[k], x[0]) and close(traj.p[k], refs)
        assert close(traj.e[k], x[0] - refs) and close(traj.v[k], v)
        assert close(traj.ne_dist[k], np.linalg.norm(P - loop.p_star))
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
    lay, n = batch.layout, scenario.n
    assert np.array_equal(batch.draws, draws) and not hasattr(batch, "steadies")
    J, features = drift_split(scenario.plant, batch.draws)
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


def test_kept_state_bytes_counts_the_recorded_samples(stable):
    short = dataclasses.replace(stable, t_final=0.05, decimate=3)  # steps 0, 3, .., 48 and 50
    traj = run(short)
    assert len(traj.t) == 18
    assert short.kept_state_bytes() == len(traj.t) * assemble(short).dimension * 8


SPLIT_CONTRACT = r"\(B, n_w\) stack of draws.*PlantFeatures\(count, bind\)"


def test_one_draw_split_hook_is_a_config_error(sec5):
    # a hook written for one flat draw returns a 2-D J
    model = sec5.plant

    def split(w):
        J, features = model.split(np.reshape(w, (1, -1)))
        return J[0], features

    plant = dataclasses.replace(model, split=split)
    with pytest.raises(ConfigError, match=SPLIT_CONTRACT):
        assemble(dataclasses.replace(sec5, plant=plant))


def test_remainder_split_hook_is_a_config_error(sec5):
    # a hook written for the former contract: the linear part and an in-place remainder
    model = sec5.plant

    def split(w):
        J, _ = model.split(w)
        return J[:, :, :3 * sec5.n + 2], lambda zx, v, out: None

    plant = dataclasses.replace(model, split=split)
    with pytest.raises(ConfigError, match=SPLIT_CONTRACT):
        assemble(dataclasses.replace(sec5, plant=plant))


def test_fill_style_split_hook_is_a_config_error(sec5):
    # a hook written for the former PlantFeatures(count, fill): fill(zx, v, out) returns None
    model = sec5.plant

    def split(w):
        J, features = model.split(w)
        return J, PlantFeatures(features.count, lambda zx, v, out: features.bind(zx, v, out)())

    plant = dataclasses.replace(model, split=split)
    with pytest.raises(ConfigError, match=r"PlantFeatures\(count, bind\).*returned NoneType"):
        run(dataclasses.replace(sec5, plant=plant, t_final=0.01))


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
        gains=GeneratorGains(1.0, 1.0),
        gamma2_auto=True, controller_k=np.tile([16.0, 16.0], (4, 1)),
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
    # 600 rows is not a multiple of the writer's chunk, and non-finite and signed-zero cells
    # sit in every column block
    rng = np.random.default_rng(5)
    K, n = 600, 3
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
