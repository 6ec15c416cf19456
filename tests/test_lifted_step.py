"""The closed loop stepped by RK4 stages folded into its lifted operator.

`run` steps by `numerics.rk4_lifted_step`; the per-stage `numerics.rk4_step`
on the loop's ``rhs`` is its oracle. The two round differently, so they agree
to roundoff, 1e-12 relative to ``1 + |x|``; a batch of columns agrees with its
one-column runs bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from factories import build_plant
from nesim.errors import NonFiniteState
from nesim.game import QuadraticAggregativeGame
from nesim.generator import GeneratorGains
from nesim.graph import CommGraph
from nesim.numerics import STEP_BLOCK, integrate, rk4_lifted_step, rk4_lifted_steps, rk4_step
from nesim.plant import Exosystem, sample_uncertainty
from nesim.simulation import Scenario, assemble, run
from oracles import box_start, stepwise_run

STEPS = 300


def lifted_loop(scenario, seeds, ablate=False):
    draws = np.stack([sample_uncertainty(scenario.w_box, s) for s in seeds])
    loop = assemble(scenario, ablate=ablate, draws=draws)
    return dataclasses.replace(loop, steps=rk4_lifted_steps(loop.operator, scenario.dt, loop.bind))


def trajectory(loop, x0, h, step=None, n_steps=STEPS):
    """Every state of ``n_steps`` steps from ``x0``, stacked."""
    states = []
    integrate(loop, x0, 0.0, n_steps * h, h, lambda k, t, xs: states.extend(xs.copy()), step=step)
    return np.array(states)


def relative_gap(have, want):
    return (np.abs(have - want) / (1.0 + np.abs(want))).max()


@pytest.mark.parametrize("batch", [1, 2], ids=["B1", "B2"])
@pytest.mark.parametrize("factor", [1.0, 8.0], ids=["start", "x8"])
@pytest.mark.parametrize("case", ["sec5", "sec5_ablated", "custom"])
def test_lifted_step_matches_rk4_step(case, factor, batch, sec5, request):
    base = request.getfixturevalue("custom_scenario") if case == "custom" else sec5
    scenario = base.escalated(factor)
    seeds, ablate = (1, 2)[:batch], case == "sec5_ablated"
    loop = lifted_loop(scenario, seeds, ablate)
    x0 = np.random.default_rng(40).uniform(-scenario.R, scenario.R, size=(loop.dimension, batch))
    h = scenario.dt
    oracle = trajectory(loop, x0, h)
    lifted = trajectory(loop, x0, h, step=rk4_lifted_step)
    assert lifted.shape == oracle.shape == (STEPS + 1, loop.dimension, batch)
    # each lifted step from a state of the oracle lands on the oracle's next state
    local = np.array([rk4_lifted_step(loop, 0.0, x, h) for x in oracle[:-1]])
    if case == "custom":
        # a custom game's finite-difference partials resolve its flow only to roundoff over
        # the difference step: one oracle step from each state's next float up moves by as
        # much (2.5e-12 at x8), so the lifted step is held to twice that where it exceeds 1e-12
        nudged = np.array([rk4_step(loop, 0.0, np.nextafter(x, np.inf), h) for x in oracle[:-1]])
        assert relative_gap(local, oracle[1:]) <= max(1e-12, 2.0 * relative_gap(nudged, oracle[1:]))
    else:
        assert relative_gap(local, oracle[1:]) <= 1e-12
        # and so do whole trajectories
        assert relative_gap(lifted, oracle) <= 1e-12
    if batch == 2:
        # each column is bit-identical to its one-seed run
        for b, seed in enumerate(seeds):
            one = trajectory(lifted_loop(scenario, (seed,), ablate), x0[:, b:b + 1], h,
                             step=rk4_lifted_step)
            assert one.tobytes() == np.ascontiguousarray(lifted[:, :, b:b + 1]).tobytes()


@pytest.mark.parametrize("k, t_final", [(4.0, 10.0), (1e300, 0.01)], ids=["weak", "overflowing"])
def test_divergence_time_is_the_oracle_failing_step(k, t_final, sec5):
    scenario = dataclasses.replace(sec5, controller_k=np.full((sec5.n, sec5.plant.r), k),
                                   t_final=t_final)
    traj = run(scenario)
    x0, draw = box_start(scenario, scenario.seed)
    loop = assemble(scenario, draws=draw[None])
    done = [0]  # the steps `rk4_step` completed before it raised

    def counted(*args):
        out = rk4_step(*args)
        done.append(done[-1] + 1)
        return out

    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
        integrate(loop, x0, 0.0, t_final, scenario.dt, step=counted)
    assert traj.diverged and traj.diverged_t == (done[-1] + 1) * scenario.dt
    assert len(traj.t) == 1 + done[-1] // scenario.decimate


def test_divergence_time_is_the_failing_steps_grid_time(sec5):
    # the failing step k ends at k h, the time `t` gives step k; its start plus h,
    # (k - 1) h + h, rounds differently at about a third of step indices, here at k = 1423
    h = sec5.dt
    traj = run(dataclasses.replace(sec5, t_final=2.0), seed=2)
    k = round(traj.diverged_t / h)
    assert traj.diverged and traj.diverged_t == k * h != (k - 1) * h + h


def test_run_records_the_lifted_steps(stable, count_calls):
    short = dataclasses.replace(stable, t_final=0.2, decimate=1)
    steps = count_calls(rk4_lifted_step)  # also shows that counting it sees `run`'s steps
    traj = run(short)
    assert len(steps) == 200
    # bit for bit: the outputs and the running peak of the states the lifted step makes
    x0, draw = box_start(short, short.seed)
    loop = assemble(short, draws=draw[None])
    loop = dataclasses.replace(loop, steps=rk4_lifted_steps(loop.operator, short.dt, loop.bind))
    states = trajectory(loop, x0[:, None], short.dt, step=rk4_lifted_step, n_steps=200)[..., 0]
    y = states[:, short.layout().x.start:short.layout().x.start + short.n]
    assert traj.y.tobytes() == np.ascontiguousarray(y).tobytes()
    assert traj.max_state_norm == np.abs(states[1:]).max()


def random_states(loop, batch, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(loop.dimension, batch))


@pytest.mark.parametrize("case", ["sec5", "custom"])
def test_workspace_keeps_nothing_between_steps(case, sec5, request):
    # the buffer is reused, so a step after another from elsewhere must not see its traces
    scenario = (request.getfixturevalue("custom_scenario") if case == "custom" else sec5)
    loop = lifted_loop(scenario.escalated(4.0), (1, 2))
    x, elsewhere = random_states(loop, 2, 41), random_states(loop, 2, 42)
    first = rk4_lifted_step(loop, 0.0, x, scenario.dt)
    rk4_lifted_step(loop, 0.0, elsewhere, scenario.dt)
    again = rk4_lifted_step(loop, 0.0, x, scenario.dt)
    assert first.tobytes() == again.tobytes()
    assert not np.shares_memory(first, again)  # each step's state is its own


def test_interleaved_loops_step_as_they_do_alone(sec5):
    scenario = sec5.escalated(4.0)
    h, loops = scenario.dt, [lifted_loop(scenario, (1,)), lifted_loop(scenario, (2, 3))]
    starts = [random_states(loops[0], 1, 43), random_states(loops[1], 2, 44)]
    alone = [trajectory(loop, x0, h, step=rk4_lifted_step, n_steps=50)
             for loop, x0 in zip(loops, starts)]
    states = starts
    for k in range(50):
        states = [rk4_lifted_step(loop, 0.0, x, h) for loop, x in zip(loops, states)]
        for x, ref in zip(states, alone):
            assert x.tobytes() == ref[k + 1].tobytes()


@pytest.mark.parametrize("shape", [(1,), (3,), ()], ids=["B1", "B3", "flat"])
def test_workspace_rejects_states_of_another_width(shape, sec5):
    loop = lifted_loop(sec5, (1, 2))
    with pytest.raises(ValueError, match="built for states of shape"):
        rk4_lifted_step(loop, 0.0, np.zeros((loop.dimension,) + shape), sec5.dt)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_column_is_marked_and_the_others_step_as_alone(bad, sec5):
    # the step does not raise: the non-finite entry reaches its own column of the new state,
    # and no other, where `integrate`'s observer reads it
    scenario = sec5.escalated(4.0)
    loop = lifted_loop(scenario, (1, 2, 3))
    x = random_states(loop, 3, 45)
    x[scenario.layout().z.start, 1] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        out = rk4_lifted_step(loop, 0.0, x, scenario.dt)
        flat = out.ravel()
        assert out.shape == x.shape and not flat.dot(flat) <= np.finfo(float).max
    assert (~(np.abs(out).max(axis=0) < np.inf)).tolist() == [False, True, False]
    for seed in (1, 3):
        one = rk4_lifted_step(lifted_loop(scenario, (seed,)), 0.0, x[:, [seed - 1]], scenario.dt)
        assert one.tobytes() == np.ascontiguousarray(out[:, [seed - 1]]).tobytes()


def test_columns_that_stop_mid_run_leave_the_others_as_run_alone(sec5):
    # at the start gains every sec5 seed blows up, each at its own time: seeds 1 and 4 overflow
    # (to NaN, with Inf beside it on seed 4) while below 1e150, and seeds 2 and 3 pass 1e150
    # first, so the batch loses columns to both causes, parked three times
    scenario, seeds, limit = dataclasses.replace(sec5, t_final=3.0), [1, 2, 3, 4], 1e150
    batch = run(scenario, seed=seeds, abort_norm=limit)
    assert [(t.diverged, t.aborted_norm) for t in batch] == \
        [(True, False), (False, True), (False, True), (True, False)]
    assert [t.diverged_t for t in batch] == [1.343, None, None, 1.331]
    for seed, traj in zip(seeds, batch):
        alone = run(scenario, seed=seed, abort_norm=limit)
        for name in ("t", "y", "p", "e", "u", "ne_dist", "v"):
            assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes()
        assert (traj.max_state_norm, traj.diverged_t) == (alone.max_state_norm, alone.diverged_t)


def test_a_column_parked_where_its_drift_is_not_finite_leaves_the_batch_running():
    # the factory plant's drift plus 0 / z: the same bits wherever z != 0, NaN at the origin,
    # where a column that passes the norm limit is parked and stepped from then on
    def f0(z, x1, v, w):
        return -z + 0.0 / z

    scenario = Scenario(
        game=QuadraticAggregativeGame(h1=np.array([1.0, 2.0, 3.0]), h2=np.full(3, 0.5),
                                      h3=np.zeros(3)),
        graph=CommGraph.ring(3), plant=dataclasses.replace(build_plant(3), f0=f0),
        exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                      v0_box=np.array([[0.5, 1.0], [0.0, 0.0]])),
        w_box=np.tile([-0.1, 0.1], (3, 1)), gains=GeneratorGains(1.0, None),
        controller_k=np.full((3, 1), 8.0), seed=2, R=0.5, t_final=1.0)
    seeds = [1, 2, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        peaks = sorted(traj.max_state_norm for traj in run(scenario, seed=seeds))
        limit = (peaks[0] + peaks[-1]) / 2.0
        batch = run(scenario, seed=seeds, abort_norm=limit)
        alone = [run(scenario, seed=seed, abort_norm=limit) for seed in seeds]
    aborted = [traj.aborted_norm for traj in batch]
    assert any(aborted) and not all(aborted)
    assert not any(traj.diverged for traj in batch)
    for traj, one in zip(batch, alone):
        assert traj.aborted_norm == one.aborted_norm
        for name in ("t", "y", "p", "e", "u", "ne_dist", "v"):
            assert getattr(traj, name).tobytes() == getattr(one, name).tobytes()
        assert traj.max_state_norm == one.max_state_norm


def diverging(sec5, decimate=10):
    """sec5 at start gains too low for it, k = 4 on every level, for 1.5 s.

    1500 steps, not a multiple of `STEP_BLOCK`. Seeds 1, 2 and 4 diverge, at
    1.343, 1.423 and 1.331, seed 2 after it passes 1e195; seed 3 runs on.
    """
    return dataclasses.replace(sec5, controller_k=np.full((sec5.n, sec5.plant.r), 4.0),
                               t_final=1.5, decimate=decimate)


def assert_run_is_stepwise(scenario, seeds, abort_norm=None) -> list[dict]:
    """`run` of ``seeds`` as one batch equals the per-step reference bit for bit.

    Compared per column: every signal (``t``, ``y``, ``p``, ``e``, ``u``, ``v``
    and ``ne_dist``, the reference's from the column's whole kept history),
    the peak, the divergence time and the norm abort. Returns the
    reference's columns.
    """
    starts, draws = zip(*(box_start(scenario, seed) for seed in seeds))
    loop = assemble(scenario, draws=np.stack(draws))
    ref = stepwise_run(loop, np.stack(starts, axis=1), scenario.dt, scenario.n_steps,
                       scenario.decimate, abort_norm)
    for traj, col in zip(run(scenario, seed=list(seeds), abort_norm=abort_norm), ref):
        for name in ("t", "y", "p", "e", "u", "v", "ne_dist"):
            have, want = getattr(traj, name), col[name]
            assert have.shape == want.shape and have.tobytes() == want.tobytes(), name
        assert (traj.max_state_norm, traj.diverged_t, traj.aborted_norm) == \
            (col["max_state_norm"], col["diverged_t"], col["aborted"])
    return ref


@pytest.mark.parametrize("decimate", [10, 7])
@pytest.mark.parametrize("seeds", [(1,), (1, 2, 3, 4)], ids=["B1", "B4"])
def test_blocks_match_the_stepwise_reference_through_divergence(seeds, decimate, sec5):
    ref = assert_run_is_stepwise(diverging(sec5, decimate), seeds)
    assert [col["diverged_t"] for col in ref] == [1.343, 1.423, None, 1.331][:len(seeds)]


@pytest.mark.parametrize("seeds", [(1,), (1, 2)], ids=["B1", "B2"])
@pytest.mark.parametrize("stop", [1, STEP_BLOCK, STEP_BLOCK + 1],
                         ids=["first_step", "last_of_a_block", "first_of_the_next"])
def test_a_norm_stop_at_a_block_edge_matches_the_stepwise_reference(stop, seeds, sec5):
    # seed 1's peak grows at each of its first steps: a limit at its peak before `stop`
    # stops it at `stop` exactly, the first step, the last of the first block or the first
    # of the second
    scenario = diverging(sec5)
    starts, draws = box_start(scenario, 1)
    (free,) = stepwise_run(assemble(scenario, draws=draws[None]), starts[:, None], scenario.dt,
                           scenario.n_steps, scenario.decimate)
    tops = free["tops"]
    limit = max(tops[:stop - 1]) if stop > 1 else tops[0] / 2.0
    assert tops[stop - 1] > limit
    ref = assert_run_is_stepwise(scenario, seeds, abort_norm=limit)
    assert ref[0]["aborted"] and len(ref[0]["tops"]) == stop


@pytest.mark.parametrize("limit", [1e160, 1e300])
def test_a_limit_whose_square_overflows_matches_the_stepwise_reference(limit, sec5):
    # past 1.34e154 a limit's square is not a float: seed 2 passes 1e160 at step 1422, the
    # step before it diverges, and stays below 1e300
    ref = assert_run_is_stepwise(diverging(sec5), (1, 2, 3, 4), abort_norm=limit)
    assert [(col["aborted"], col["diverged_t"]) for col in ref] == \
        [(False, 1.343), (limit < 1e195, None if limit < 1e195 else 1.423),
         (False, None), (False, 1.331)]


def test_a_negative_limit_stops_every_column_at_step_1(sec5):
    # every |value| passes -1e3, so every column aborts at its first step
    ref = assert_run_is_stepwise(diverging(sec5), (1, 2), abort_norm=-1e3)
    assert [(col["aborted"], len(col["tops"])) for col in ref] == [(True, 1)] * 2


def test_a_nan_limit_stops_nothing_as_in_the_stepwise_reference(sec5):
    # every top compares False with NaN: `~(tops <= abort)` would abort every column at step 1
    ref = assert_run_is_stepwise(diverging(sec5), (1, 2, 3, 4), abort_norm=float("nan"))
    assert [(col["aborted"], col["diverged_t"]) for col in ref] == \
        [(False, 1.343), (False, 1.423), (False, None), (False, 1.331)]


def test_a_limit_at_a_columns_exact_peak_matches_the_stepwise_reference(sec5):
    # a limit at the peak, or one float above, stops nothing, and one float below stops the
    # column at its peak's step
    scenario = diverging(sec5)
    starts, draws = box_start(scenario, 3)
    (free,) = stepwise_run(assemble(scenario, draws=draws[None]), starts[:, None], scenario.dt,
                           scenario.n_steps, scenario.decimate)
    peak = free["max_state_norm"]
    for limit, stops in ((np.nextafter(peak, np.inf), False), (peak, False),
                         (np.nextafter(peak, -np.inf), True)):
        (col,) = assert_run_is_stepwise(scenario, (3,), abort_norm=float(limit))
        assert col["aborted"] == stops
        assert len(col["tops"]) == (free["tops"].index(peak) + 1 if stops else scenario.n_steps)

