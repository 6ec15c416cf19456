from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from factories import build_game, smooth_costs
from nesim.errors import Disconnected, NonFiniteState
from nesim.game import (CustomGame, GradientConstants, QuadraticAggregativeGame,
                        estimate_constants, solve_ne)
from nesim.generator import (GeneratorGains, GeneratorTrajectory, generator_rows, min_gamma2,
                             partials_bind, run_generator)
from nesim.graph import CommGraph
from nesim.numerics import OdeSystem, integrate, rk4_lifted_step, rk4_step
from oracles import central_partials, kronecker_generator, rk4_states


def quad(h1, h2, h3):
    return QuadraticAggregativeGame(h1=np.array(h1, dtype=float),
                                    h2=np.array(h2, dtype=float),
                                    h3=np.array(h3, dtype=float))


def test_gains_take_gamma2_none_as_auto_and_reject_other_non_numbers():
    assert GeneratorGains(1.0, None).gamma2 is None
    for gamma2 in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^gains\.gamma2: must be finite and > 0"):
            GeneratorGains(1.0, gamma2)


class TestMinGamma2:
    def test_ring(self):
        c = GradientConstants(strong_mono=2.0, lipschitz=2.0)
        assert min_gamma2(c, CommGraph.ring(4)) == pytest.approx(2.0, abs=1e-9)

    def test_complete_graph(self):
        c = GradientConstants(strong_mono=2.0, lipschitz=2.0)
        g = CommGraph(np.ones((4, 4)) - np.eye(4))
        assert min_gamma2(c, g) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected(self):
        c = GradientConstants(strong_mono=2.0, lipschitz=2.0)
        with pytest.raises(Disconnected):
            min_gamma2(c, CommGraph.from_edges(4, [(0, 1), (2, 3)]))


def derivative(game, g, gains, P):
    """``dP``: `generator_rows` on the lift ``[vec P; 1; partials]`` that `partials_bind` fills."""
    n = game.n
    rows = generator_rows(game, g, gains.gamma1, gains.gamma2)
    lifted = np.empty((rows.shape[1], 1))
    lifted[:n * n, 0], lifted[n * n] = np.ravel(P), 1.0
    fill = partials_bind(game, lifted[:n * n], lifted[n * n + 1:])
    if fill is not None:
        fill()
    return (rows @ lifted[:, 0]).reshape(n, n)


class TestGeneratorRhs:
    def test_zero_at_stacked_equilibrium(self):
        game = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        p_star = solve_ne(game)
        rhs = derivative(game, CommGraph.ring(4), GeneratorGains(1.0, 5.0),
                         np.tile(p_star, (4, 1)))
        off_diag = rhs - np.diag(rhs.diagonal())
        assert np.abs(off_diag).max() == 0.0       # pure consensus terms cancel
        assert np.abs(rhs.diagonal()).max() < 1e-12  # oracle residual only

    def test_linear_in_gamma1(self):
        game = quad([1, 2], [0.3, 0.3], [0, 0])
        g = CommGraph.from_edges(2, [(0, 1)])
        P = np.array([[0.5, -1.0], [2.0, 0.25]])
        one = derivative(game, g, GeneratorGains(1.0, 3.0), P)
        two = derivative(game, g, GeneratorGains(2.0, 3.0), P)
        assert np.allclose(two, 2.0 * one, atol=1e-14)

    def test_hand_expansion_two_players(self):
        game = quad([1, 0], [0, 0], [0, 0])
        g = CommGraph.from_edges(2, [(0, 1)])
        rhs = derivative(game, g, GeneratorGains(1.0, 1.0), np.zeros((2, 2)))
        assert rhs[0, 0] == pytest.approx(2.0)   # -gamma1 * 2*(0 - 1)
        assert rhs[1, 1] == pytest.approx(0.0)
        assert rhs[0, 1] == rhs[1, 0] == 0.0

    def test_per_agent_equals_stacked_form(self):
        # the quadratic game's extended gradient in closed form, and the test factories'
        # finite-difference game's from the sample-by-sample central differences
        for game, g in ((quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1]), CommGraph.ring(4)),
                        (build_game([1.0, 2.0, 3.0], 0.5), CommGraph.ring(3))):
            gains = GeneratorGains(1.3, 7.0)
            stacked = kronecker_generator(game, g, gains.gamma1, gains.gamma2)
            rng = np.random.default_rng(12)
            for _ in range(100):
                P = rng.normal(size=(game.n, game.n))
                per_agent = derivative(game, g, gains, P).ravel()
                assert np.abs(per_agent - stacked(P)).max() < 1e-12

    def test_partials_fill_reads_the_estimates_at_each_call(self):
        # each column's partials are those of its own estimate rows as they are at the call,
        # whether the columns differ, all agree, all but column 0 (parked at zero) agree, or
        # columns 0 and 2 agree and column 1 differs; each distinct block costs one stencil,
        # two cost calls per agent
        game = build_game([1.0, 2.0, 3.0], 0.5)
        calls = []
        counted = CustomGame([lambda y, profile, cost=cost: calls.append(y) or cost(y, profile)
                              for cost in game.costs])
        rng = np.random.default_rng(13)
        same = np.tile(rng.normal(size=(9, 1)), 3)
        parked, outer = same.copy(), same.copy()
        parked[:, 0] = 0.0
        outer[:, 1] = rng.normal(size=9)
        for B, contents in [(1, [(rng.normal(size=(9, 1)), 1) for _ in range(2)]),
                            (3, [(rng.normal(size=(9, 3)), 3), (same, 1), (parked, 2),
                                 (outer, 2), (rng.normal(size=(9, 3)), 3)])]:
            lifted = np.zeros((13, B))
            fill = partials_bind(counted, lifted[:9], lifted[10:])
            for estimates, blocks in contents:
                lifted[:9] = estimates
                calls.clear()
                fill()
                assert len(calls) == blocks * 3 * 2
                for b in range(B):
                    want = central_partials(game.costs, lifted[:9, b].reshape(1, 3, 3))[0]
                    assert lifted[10:, b].tobytes() == want.tobytes()
        assert partials_bind(quad([1, 2], [0.3, 0.3], [0, 0]), lifted[:4], lifted[5:]) is None

    def test_partials_fill_skips_the_parked_columns(self):
        # the mask is read at each call: a parked column costs no call and reads zero, and
        # a live column is not filled from a parked one's block
        game = build_game([1.0, 2.0, 3.0], 0.5)
        calls = []
        counted = CustomGame([lambda y, profile, cost=cost: calls.append(y) or cost(y, profile)
                              for cost in game.costs])
        lifted = np.zeros((13, 3))
        lifted[:9] = np.random.default_rng(17).normal(size=(9, 1))
        parked = np.zeros(3, dtype=bool)
        fill = partials_bind(counted, lifted[:9], lifted[10:], parked)
        want = central_partials(game.costs, lifted[:9, 0].reshape(1, 3, 3))[0]
        for stopped, blocks in [((), 1), ((0,), 1), ((0, 2), 1), ((0, 1, 2), 0)]:
            parked[list(stopped)] = True
            calls.clear()
            fill()
            assert len(calls) == blocks * 3 * 2
            for b in range(3):
                assert lifted[10:, b].tobytes() == (np.zeros(3) if b in stopped else want).tobytes()

    @pytest.mark.parametrize("B", [1, 3])
    def test_partials_fill_hands_each_cost_call_a_fresh_row(self, B):
        # costs that write into their profile, on one column or three equal ones: the
        # estimates stay as they were and the partials are those of costs that copy it
        game = CustomGame(costs=smooth_costs(3, in_place=True))
        rng = np.random.default_rng(15)
        lifted = np.zeros((13, B))
        fill = partials_bind(game, lifted[:9], lifted[10:])
        for _ in range(3):
            lifted[:9] = rng.normal(size=(9, 1))
            before = lifted.copy()
            fill()
            assert lifted[:10].tobytes() == before[:10].tobytes()
            want = central_partials(smooth_costs(3, in_place=False),
                                    lifted[:9, 0].reshape(1, 3, 3))[0]
            for b in range(B):
                assert lifted[10:, b].tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def ring(sec5):
    """A quadratic game on a ring, gamma2 at 1.25 times its bound, from zero over 6 s."""
    game = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
    return dataclasses.replace(sec5, game=game, graph=CommGraph.ring(4),
                               gains=GeneratorGains(1.0, None), p0=None,
                               t_final=6.0, dt=1e-3, decimate=10)


class TestRunGenerator:
    def test_reads_gamma2_and_the_equilibrium_from_the_synthesis(self, ring):
        constants = estimate_constants(ring.game)
        bound = min_gamma2(constants, ring.graph)
        assert ring.synthesized().min_gamma2 == bound
        assert ring.synthesized().gamma2 == 1.25 * bound
        traj = run_generator(dataclasses.replace(ring, t_final=0.05))
        assert np.array_equal(traj.p_star, solve_ne(ring.game, constants=constants))

    def test_the_synthesis_rejects_a_numerically_disconnected_graph(self, ring):
        # connected edge by edge, but with no consensus gain bound: no run of it is certified
        weak = dataclasses.replace(ring, graph=CommGraph(ring.graph.weights * 1e-10),
                                   gains=GeneratorGains(1.0, 5.0))
        with pytest.raises(Disconnected, match="consensus gain bound: lambda2"):
            weak.synthesized()

    def test_stays_at_equilibrium(self, ring):
        p_star = solve_ne(ring.game)
        traj = run_generator(dataclasses.replace(ring, p0=np.tile(p_star, (4, 1)), t_final=1.0))
        assert traj.dist.max() <= 1e-9

    def test_log_distance_decreases(self, ring):
        traj = run_generator(ring)
        mask = (traj.t > 0.1) & (traj.dist > 1e-13)
        logs = np.log(traj.dist[mask])
        assert np.all(np.diff(logs) < 0)

    def test_decay_slope_negative(self, ring):
        traj = run_generator(ring)
        assert traj.log_dist_slope(0.5, 6.0) <= -0.05

    def test_keeps_every_decimate_th_step(self, ring):
        every = run_generator(dataclasses.replace(ring, t_final=0.5, decimate=1))
        fifth = run_generator(dataclasses.replace(ring, t_final=0.5, decimate=5))
        assert len(every.t) == 501 and len(fifth.t) == 101
        assert np.array_equal(fifth.t, every.t[::5])
        assert np.array_equal(fifth.dist, every.dist[::5])

    def test_warns_below_guarantee_bound(self, ring):
        low = dataclasses.replace(ring, gains=GeneratorGains(1.0, 0.01),
                                  t_final=0.05)
        with pytest.warns(UserWarning, match="below the guarantee bound"):
            run_generator(low)

    def test_a_diverging_run_raises_non_finite_state(self, sec5):
        # the one column of a diverging generator is not a batch to park: the run stops
        diverging = dataclasses.replace(sec5, gains=GeneratorGains(1e5, sec5.gains.gamma2),
                                        t_final=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # overflow is raised, not warned
            with pytest.raises(NonFiniteState,
                               match=r"non-finite generator state at t=0\.\d+") as failure:
                run_generator(diverging)
            # the time named is the block's first non-finite state's: the steps before it pass
            t = float(str(failure.value).rpartition("=")[2])
            run_generator(dataclasses.replace(diverging, t_final=t - sec5.dt))

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16,), (4, 4, 1)])
    def test_rejects_initial_estimates_of_another_shape(self, shape, ring):
        # the start is the scenario's p0, checked where it is set
        with pytest.raises(ValueError, match=r"gains\.p0: must be of shape \(4, 4\), got "):
            run_generator(dataclasses.replace(ring, p0=np.zeros(shape)))


@pytest.mark.parametrize("t", [[], [0.0], [0.0, 0.5]], ids=["none", "one", "one_of_two"])
def test_log_slope_is_nan_with_fewer_than_two_samples(t):
    traj = GeneratorTrajectory(t=np.array(t), dist=np.exp(-np.array(t)), final_estimates=None,
                               p_star=None)
    assert np.isnan(traj.log_dist_slope(-0.1, 0.25))


def stacked_system(game, g, gains):
    """The generator as an `OdeSystem` on ``vec P``, written from the stacked Kronecker form."""
    generator = kronecker_generator(game, g, gains.gamma1, gains.gamma2)
    return OdeSystem(game.n ** 2, lambda t, x: generator(x))


def test_run_matches_the_stacked_form_over_criterion_2(sec5):
    # criterion 2's run; the lifted step and the per-stage step round differently
    gains = GeneratorGains(sec5.gains.gamma1, sec5.synthesized().gamma2)
    t_final, n = 20.0 / gains.gamma1, sec5.n
    scenario = dataclasses.replace(sec5, t_final=t_final)
    traj = run_generator(scenario)
    *_, oracle = rk4_states(stacked_system(sec5.game, sec5.graph, gains), np.zeros(n * n),
                            sec5.dt, scenario.n_steps)
    oracle = oracle.reshape(n, n)
    assert np.abs(traj.final_estimates - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())


def relative_gap(have, want):
    return (np.abs(have - want) / (1.0 + np.abs(want))).max()


def test_custom_game_steps_match_the_stacked_form(custom_scenario, count_calls):
    # a custom game's finite-difference partials resolve its flow only to roundoff over the
    # difference step, so, as for the closed loop, each lifted step from a state of the
    # oracle is held to twice the move of one oracle step from that state's next float up
    game, g, h, steps = custom_scenario.game, custom_scenario.graph, 1e-3, 300
    gains = GeneratorGains(custom_scenario.gains.gamma1, custom_scenario.synthesized().gamma2)
    P0 = np.random.default_rng(14).uniform(-2.0, 2.0, size=(game.n, game.n))
    calls = count_calls(integrate)
    run_generator(dataclasses.replace(custom_scenario, p0=P0, t_final=steps * h, dt=h))
    lifted = calls[0][0][0]  # the lifted system `run_generator` stepped
    oracle_sys = stacked_system(game, g, gains)
    oracle = np.array(list(rk4_states(oracle_sys, P0.ravel(), h, steps)))
    local = np.array([rk4_lifted_step(lifted, x[:, None])[:, 0] for x in oracle[:-1]])
    nudged = np.array([rk4_step(oracle_sys, 0.0, np.nextafter(x, np.inf), h)
                       for x in oracle[:-1]])
    assert relative_gap(local, oracle[1:]) <= max(1e-12, 2.0 * relative_gap(nudged, oracle[1:]))


def test_run_derives_nothing_the_synthesis_holds(custom_scenario, count_calls):
    # the finite-difference constants and equilibrium were paid once, by the fixture
    calls = [count_calls(fn) for fn in (estimate_constants, solve_ne)]
    traj = run_generator(dataclasses.replace(custom_scenario, t_final=0.01))
    assert calls == [[], []]
    assert traj.p_star is custom_scenario.synthesized().p_star
