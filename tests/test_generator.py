from __future__ import annotations

import numpy as np
import pytest

from factories import build_game
from nesim.errors import Disconnected
from nesim.game import (GradientConstants, QuadraticAggregativeGame, extended_pseudo_gradient,
                        solve_ne)
from nesim.generator import (GeneratorGains, GeneratorState, generator_rhs,
                             min_gamma2, run_generator)
from nesim.graph import CommGraph, laplacian
from oracles import central_partials


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


class TestGeneratorRhs:
    def test_zero_at_stacked_equilibrium(self):
        game = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        p_star = solve_ne(game)
        state = GeneratorState(np.tile(p_star, (4, 1)))
        rhs = generator_rhs(game, CommGraph.ring(4), GeneratorGains(1.0, 5.0), state)
        off_diag = rhs - np.diag(rhs.diagonal())
        assert np.abs(off_diag).max() == 0.0       # pure consensus terms cancel
        assert np.abs(rhs.diagonal()).max() < 1e-12  # oracle residual only

    def test_linear_in_gamma1(self):
        game = quad([1, 2], [0.3, 0.3], [0, 0])
        g = CommGraph.from_edges(2, [(0, 1)])
        state = GeneratorState(np.array([[0.5, -1.0], [2.0, 0.25]]))
        one = generator_rhs(game, g, GeneratorGains(1.0, 3.0), state)
        two = generator_rhs(game, g, GeneratorGains(2.0, 3.0), state)
        assert np.allclose(two, 2.0 * one, atol=1e-14)

    def test_hand_expansion_two_players(self):
        game = quad([1, 0], [0, 0], [0, 0])
        g = CommGraph.from_edges(2, [(0, 1)])
        rhs = generator_rhs(game, g, GeneratorGains(1.0, 1.0), GeneratorState.zeros(2))
        assert rhs[0, 0] == pytest.approx(2.0)   # -gamma1 * 2*(0 - 1)
        assert rhs[1, 1] == pytest.approx(0.0)
        assert rhs[0, 1] == rhs[1, 0] == 0.0

    def test_per_agent_equals_stacked_form(self):
        # the quadratic game's extended gradient in closed form, and the test factories'
        # finite-difference game's from the sample-by-sample central differences
        quadratic = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        custom = build_game([1.0, 2.0, 3.0], 0.5)
        for game, g, extended in (
                (quadratic, CommGraph.ring(4), lambda P: extended_pseudo_gradient(quadratic, P)),
                (custom, CommGraph.ring(3), lambda P: central_partials(custom.costs, P[None])[0])):
            gains = GeneratorGains(1.3, 7.0)
            n = game.n
            # stacked operator: selector embedding the partial gradients on the
            # diagonal slots plus the Laplacian acting on whole rows
            Rsel = np.zeros((n, n * n))
            for i in range(n):
                Rsel[i, i * n + i] = 1.0
            Lbig = np.kron(laplacian(g), np.eye(n))
            rng = np.random.default_rng(12)
            for _ in range(100):
                P = rng.normal(size=(n, n))
                per_agent = generator_rhs(game, g, gains, GeneratorState(P)).ravel()
                stacked = (-gains.gamma1 * Rsel.T @ extended(P)
                           - gains.gamma1 * gains.gamma2 * Lbig @ P.ravel())
                assert np.abs(per_agent - stacked).max() < 1e-12


@pytest.fixture(scope="module")
def setup():
    game = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
    g = CommGraph.ring(4)
    from nesim.game import estimate_constants
    gamma2 = 1.25 * min_gamma2(estimate_constants(game), g)
    return game, g, GeneratorGains(1.0, gamma2)


class TestRunGenerator:
    def test_stays_at_equilibrium(self, setup):
        game, g, gains = setup
        p_star = solve_ne(game)
        init = GeneratorState(np.tile(p_star, (4, 1)))
        traj = run_generator(game, g, gains, init, t_final=1.0, h=1e-3)
        assert traj.dist.max() <= 1e-9

    def test_log_distance_decreases(self, setup):
        game, g, gains = setup
        traj = run_generator(game, g, gains, GeneratorState.zeros(4),
                             t_final=6.0, h=1e-3)
        mask = (traj.t > 0.1) & (traj.dist > 1e-13)
        logs = np.log(traj.dist[mask])
        assert np.all(np.diff(logs) < 0)

    def test_decay_slope_negative(self, setup):
        game, g, gains = setup
        traj = run_generator(game, g, gains, GeneratorState.zeros(4),
                             t_final=6.0, h=1e-3)
        assert traj.log_dist_slope(0.5, 6.0) <= -0.05

    def test_warns_below_guarantee_bound(self, setup):
        game, g, _ = setup
        with pytest.warns(UserWarning, match="below the guarantee bound"):
            run_generator(game, g, GeneratorGains(1.0, 0.01),
                          GeneratorState.zeros(4), t_final=0.05, h=1e-3)
