"""Property tests of the lifted closed-loop derivative over drawn seeds and gains (hypothesis).

Drawn: the scenario (bundled sec5, or the finite-difference custom game with
the generic custom plant), one to three seeds, a gain multiplier from 1 to 16
and the ablation flag; for the custom game's shared estimates, two or three
seeds, the multiplier and a norm abort; for `run` against the per-step
reference, the seeds, the decimation, the history's length, diverging or
stable gains and a norm abort.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import assume, example, given, settings, strategies as st

from nesim import simulation
from nesim.controller import ControllerGains
from nesim.numerics import integrate
from nesim.plant import sample_uncertainty
from nesim.simulation import assemble, run
from oracles import composed_rhs
from test_lifted_step import assert_run_is_stepwise, diverging
from test_simulation import assert_same_run

CASES = dict(
    scenario=st.sampled_from(["sec5", "custom"]),
    seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3, unique=True),
    multiplier=st.floats(1.0, 16.0), ablate=st.booleans())


def drawn(name, multiplier, request):
    """The scenario with its start gains times ``multiplier``."""
    scenario = request.getfixturevalue("sec5" if name == "sec5" else "custom_scenario")
    start = (ControllerGains.uniform(scenario.n, scenario.plant.r, 4.0) if name == "sec5"
             else ControllerGains(scenario.controller_k))
    return dataclasses.replace(scenario, controller_k=start.scaled(multiplier).k)


# 15 + 10 examples, about 4 s together
@settings(max_examples=15)
@given(**CASES)
def test_lifted_rhs_matches_composed_blocks(scenario, seeds, multiplier, ablate, request):
    scenario = drawn(scenario, multiplier, request)
    loop = assemble(scenario, ablate=ablate,
                    draws=np.stack([sample_uncertainty(scenario.w_box, s) for s in seeds]))
    state = np.random.default_rng(seeds[0]).normal(size=(loop.dimension, len(seeds)))
    fused = loop.rhs(0.0, state)
    for b in range(len(seeds)):
        ref, _ = composed_rhs(loop, state[:, b], b)
        assert np.abs(fused[:, b] - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=10)
@given(**CASES)
def test_batched_run_matches_single_seed_runs(scenario, seeds, multiplier, ablate, request):
    short = dataclasses.replace(drawn(scenario, multiplier, request), t_final=0.2, decimate=1)
    batch = run(short, ablate=ablate, seed=seeds)
    for traj in batch:
        assert_same_run(traj, run(short, ablate=ablate, seed=traj.seed))


@settings(max_examples=10)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=3, unique=True),
       multiplier=st.floats(1.0, 16.0), abort_norm=st.one_of(st.none(), st.floats(0.6, 1.0)))
def test_live_columns_hold_the_same_estimates(seeds, multiplier, abort_norm, request):
    # the generator reads no plant state and every column starts at p0, so the custom game's
    # partial fill may evaluate one column for all: the estimate rows of the columns that
    # have not stopped agree bit for bit at every step, whichever columns the norm stops; a
    # column is held to the others up to the last state of the block it stops in, exclusive
    short = dataclasses.replace(drawn("custom", multiplier, request), t_final=0.2)
    P, checked = short.layout().P, []

    def spy(sys, x0, t0, t_final, h, observer):
        live = np.ones(x0.shape[1], dtype=bool)

        def watch(k, t, xs):
            stop = observer(k, t, xs)
            for step_k, x in enumerate(xs, start=k):
                if step_k == k + len(xs) - 1 and stop is not None:
                    live[stop] = False
                bits = x[P][:, live].view(np.int64)
                assert (bits == bits[:, :1]).all(), step_k
                checked.append(step_k)
            return stop

        return integrate(sys, x0, t0, t_final, h, watch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "integrate", spy)
        run(short, seed=seeds, abort_norm=abort_norm)
    assert checked == list(range(len(checked))) and len(checked) >= 2


# histories of one block (up to 64 steps), of many blocks, of whole blocks and with a partial
# last block; under 10k steps each, about 3 s in all
@settings(max_examples=8)
@example(seeds=[3, 4, 5], decimate=1, rows=2501, stable=False, abort_norm=None)
@example(seeds=[5, 3], decimate=1, rows=2501, stable=False, abort_norm=1e3)
@example(seeds=[1, 2], decimate=1, rows=4196, stable=True, abort_norm=None)
@example(seeds=[2], decimate=1, rows=33, stable=True, abort_norm=None)
@given(seeds=st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
       decimate=st.sampled_from([1, 2, 3, 7]),
       rows=st.sampled_from([2, 10, 65, 700, 2049, 3101]),
       stable=st.booleans(),
       abort_norm=st.one_of(st.none(), st.integers(0, 200).map(lambda e: 10.0 ** e)))
def test_run_matches_the_whole_history_reference(seeds, decimate, rows, stable, abort_norm,
                                                 sec5):
    # the first two examples stop seeds 3, 4 and 5 inside a block, at their divergence (rows
    # 2091, 1331 and 2217) or at 1e3 (seed 5 at row 2144); the third runs 66 blocks, the last
    # of 35 steps, and the fourth one block of 32 steps
    assume(rows * decimate <= 10_000)
    scenario = sec5.escalated(4.0) if stable else diverging(sec5, decimate)
    scenario = dataclasses.replace(scenario, t_final=(rows - 1) * decimate * scenario.dt,
                                   decimate=decimate)
    assert_run_is_stepwise(scenario, seeds, abort_norm)
