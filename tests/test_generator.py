from __future__ import annotations

import numpy as np
import pytest

from factories import build_game
from nesim.errors import Disconnected
from nesim.game import (GradientConstants, QuadraticAggregativeGame, estimate_constants,
                        extended_pseudo_gradient, solve_ne)
from nesim.generator import (GeneratorGains, GeneratorTrajectory, generator_rows, min_gamma2,
                             partials_bind, run_generator)
from nesim.graph import CommGraph
from nesim.numerics import OdeSystem, integrate, rk4_lifted_step, rk4_step
from oracles import kronecker_generator


def quad(h1, h2, h3):
    return QuadraticAggregativeGame(h1=np.array(h1, dtype=float),
                                    h2=np.array(h2, dtype=float),
                                    h3=np.array(h3, dtype=float))


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
        # each column's partials are those of its own estimate rows as they are at the call
        game = build_game([1.0, 2.0, 3.0], 0.5)
        lifted = np.zeros((13, 2))
        fill = partials_bind(game, lifted[:9], lifted[10:])
        rng = np.random.default_rng(13)
        for _ in range(2):
            lifted[:9] = rng.normal(size=(9, 2))
            fill()
            for b in range(2):
                want = extended_pseudo_gradient(game, lifted[:9, b].reshape(3, 3))
                assert lifted[10:, b].tobytes() == want.tobytes()
        assert partials_bind(quad([1, 2], [0.3, 0.3], [0, 0]), lifted[:4], lifted[5:]) is None


@pytest.fixture(scope="module")
def setup():
    game = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
    g = CommGraph.ring(4)
    gamma2 = 1.25 * min_gamma2(estimate_constants(game), g)
    return game, g, GeneratorGains(1.0, gamma2)


class TestRunGenerator:
    def test_stays_at_equilibrium(self, setup):
        game, g, gains = setup
        p_star = solve_ne(game)
        traj = run_generator(game, g, gains, np.tile(p_star, (4, 1)), t_final=1.0, h=1e-3)
        assert traj.dist.max() <= 1e-9

    def test_log_distance_decreases(self, setup):
        game, g, gains = setup
        traj = run_generator(game, g, gains, np.zeros((4, 4)), t_final=6.0, h=1e-3)
        mask = (traj.t > 0.1) & (traj.dist > 1e-13)
        logs = np.log(traj.dist[mask])
        assert np.all(np.diff(logs) < 0)

    def test_decay_slope_negative(self, setup):
        game, g, gains = setup
        traj = run_generator(game, g, gains, np.zeros((4, 4)), t_final=6.0, h=1e-3)
        assert traj.log_dist_slope(0.5, 6.0) <= -0.05

    def test_warns_below_guarantee_bound(self, setup):
        game, g, _ = setup
        with pytest.warns(UserWarning, match="below the guarantee bound"):
            run_generator(game, g, GeneratorGains(1.0, 0.01), np.zeros((4, 4)),
                          t_final=0.05, h=1e-3)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3), (16,), (4, 4, 1)])
    def test_rejects_initial_estimates_of_another_shape(self, shape, setup):
        game, g, gains = setup
        with pytest.raises(ValueError, match=r"initial estimates must be \(4, 4\)"):
            run_generator(game, g, gains, np.zeros(shape), t_final=0.05, h=1e-3)

    @pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_a_bad_step(self, h, setup):
        game, g, gains = setup
        with pytest.raises(ValueError, match="step size must be finite and > 0"):
            run_generator(game, g, gains, np.zeros((4, 4)), t_final=0.05, h=h)


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
    gains = GeneratorGains(sec5.gains.gamma1,
                           1.25 * min_gamma2(estimate_constants(sec5.game), sec5.graph))
    t_final, n = 20.0 / gains.gamma1, sec5.n
    traj = run_generator(sec5.game, sec5.graph, gains, np.zeros((n, n)), t_final, sec5.dt)
    oracle = integrate(stacked_system(sec5.game, sec5.graph, gains), np.zeros(n * n), 0.0,
                       t_final, sec5.dt).reshape(n, n)
    assert np.abs(traj.final_estimates - oracle).max() <= 1e-12 * (1.0 + np.abs(oracle).max())


def relative_gap(have, want):
    return (np.abs(have - want) / (1.0 + np.abs(want))).max()


def test_custom_game_steps_match_the_stacked_form(custom_scenario, count_calls):
    # a custom game's finite-difference partials resolve its flow only to roundoff over the
    # difference step, so, as for the closed loop, each lifted step from a state of the
    # oracle is held to twice the move of one oracle step from that state's next float up
    game, g, h, steps = custom_scenario.game, custom_scenario.graph, 1e-3, 300
    gains = GeneratorGains(1.0, custom_scenario.synthesized().gamma2)
    P0 = np.random.default_rng(14).uniform(-2.0, 2.0, size=(game.n, game.n))
    calls = count_calls(integrate)
    run_generator(game, g, gains, P0, steps * h, h)
    lifted = calls[0][0][0]  # the lifted system `run_generator` stepped
    oracle_sys, states = stacked_system(game, g, gains), []
    integrate(oracle_sys, P0.ravel(), 0.0, steps * h, h, lambda k, t, x: states.append(x))
    oracle = np.array(states)
    local = np.array([rk4_lifted_step(lifted, 0.0, x[:, None], h)[:, 0] for x in oracle[:-1]])
    nudged = np.array([rk4_step(oracle_sys, 0.0, np.nextafter(x, np.inf), h)
                       for x in oracle[:-1]])
    assert relative_gap(local, oracle[1:]) <= max(1e-12, 2.0 * relative_gap(nudged, oracle[1:]))
