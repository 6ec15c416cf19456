from __future__ import annotations

import numpy as np
import pytest

import nesim.game
from factories import build_game
from nesim.errors import NotStronglyMonotone, SingularMatrix
from nesim.game import (CustomGame, QuadraticAggregativeGame, estimate_constants,
                        extended_pseudo_gradient, partial_gradient, pseudo_gradient,
                        solve_ne)


def quad(h1, h2, h3):
    return QuadraticAggregativeGame(h1=np.array(h1, dtype=float),
                                    h2=np.array(h2, dtype=float),
                                    h3=np.array(h3, dtype=float))


def wrap_custom(game: QuadraticAggregativeGame, box=None) -> CustomGame:
    """The same quadratic costs exposed only through cost callables."""
    def make(i):
        def cost(yi, profile):
            y = profile.copy()
            y[i] = yi
            return (yi - game.h1[i]) ** 2 + yi * (game.h2[i] * y.sum() + game.h3[i])
        return cost
    return CustomGame(costs=[make(i) for i in range(game.n)], sample_box=box)


class TestPartialGradient:
    def test_pull_toward_target(self):
        g = quad([1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0])
        assert partial_gradient(g, 0, np.zeros(4)) == pytest.approx(-2.0)

    def test_zero_at_origin(self):
        g = quad([0, 0, 0], [0, 0, 0], [0, 0, 0])
        for i in range(3):
            assert partial_gradient(g, i, np.zeros(3)) == 0.0

    def test_aggregative_coupling(self):
        g = quad([0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0])
        # 2*y0 + sum(y) + y0 = 2 + 4 + 1
        assert partial_gradient(g, 0, np.ones(4)) == pytest.approx(7.0)


class TestPseudoGradient:
    def test_zero_at_equilibrium(self):
        g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        p_star = solve_ne(g)
        assert np.abs(pseudo_gradient(g, p_star)).max() < 1e-9

    def test_decoupled_closed_form(self):
        g = quad([1.0, -2.0, 0.5], [0, 0, 0], [0, 0, 0])
        y = np.array([0.3, 0.7, -1.1])
        assert np.allclose(pseudo_gradient(g, y), 2 * (y - g.h1))

    def test_custom_matches_closed_form(self):
        g = quad([1, 2, 0.5, -1], [0.4, 0.4, 0.4, 0.4], [0.1, 0.1, 0.1, 0.1])
        c = wrap_custom(g)
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.uniform(-5, 5, size=4)
            dev = np.abs(pseudo_gradient(c, y) - pseudo_gradient(g, y))
            assert dev.max() < 1e-5 * (1 + np.abs(pseudo_gradient(g, y)).max())


class TestExtendedPseudoGradient:
    def test_consensus_consistency(self):
        g = quad([1, 2, 3], [0.5, 0.5, 0.5], [0, 0, 0])
        y = np.array([0.2, -0.4, 1.0])
        est = np.tile(y, (3, 1))
        assert np.allclose(extended_pseudo_gradient(g, est), pseudo_gradient(g, y))

    def test_zero_on_equilibrium_rows(self):
        g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        p_star = solve_ne(g)
        assert np.abs(extended_pseudo_gradient(g, np.tile(p_star, (4, 1)))).max() < 1e-9

    def test_hand_expansion_two_players(self):
        g = quad([0, 0], [1, 1], [0, 0])
        est = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = extended_pseudo_gradient(g, est)
        assert out[0] == pytest.approx(2 * 1 + (1 + 2) + 1)   # 6
        assert out[1] == pytest.approx(2 * 4 + (3 + 4) + 4)   # 19


class TestEstimateConstants:
    def test_decoupled_exact(self):
        g = quad([1, 2, 3, 4], [0, 0, 0, 0], [0, 0, 0, 0])
        c = estimate_constants(g)
        assert c.strong_mono == pytest.approx(2.0, abs=1e-10)
        assert c.lipschitz == pytest.approx(2.0, abs=1e-10)

    def test_aggregative_exact(self):
        g = quad([0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0])
        c = estimate_constants(g)
        # jacobian 3I + ones: eigenvalues {3, 3, 3, 7}
        assert c.strong_mono == pytest.approx(3.0, abs=1e-9)
        assert c.lipschitz == pytest.approx(7.0, abs=1e-9)

    def test_not_strongly_monotone(self):
        g = quad([0, 0, 0, 0], [-2, -2, -2, -2], [0, 0, 0, 0])
        with pytest.raises(NotStronglyMonotone):
            estimate_constants(g)

    def test_sampled_brackets_exact(self):
        g = quad([1, 0, -1, 2], [0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0])
        exact = estimate_constants(g)
        sampled = estimate_constants(wrap_custom(g), n_samples=3000, seed=1)
        # 0.8 safety factor keeps the sampled monotonicity constant below truth
        assert sampled.strong_mono <= exact.strong_mono * 1.001
        assert sampled.strong_mono >= 0.5 * exact.strong_mono
        # 1.2 safety factor keeps the sampled Lipschitz constant above truth
        assert sampled.lipschitz >= exact.lipschitz * 0.95
        assert sampled.lipschitz <= exact.lipschitz * 1.3


class TestSolveNe:
    def test_decoupled_targets(self):
        g = quad([1, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0])
        assert np.allclose(solve_ne(g), 1.0, atol=1e-12)

    def test_aggregative_origin(self):
        g = quad([0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0])
        assert np.abs(solve_ne(g)).max() < 1e-12

    def test_residual_on_random_games(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = quad(rng.uniform(-3, 3, 4), rng.uniform(0, 1.5, 4), rng.uniform(-1, 1, 4))
            p = solve_ne(g)
            assert np.linalg.norm(pseudo_gradient(g, p)) <= 1e-10

    def test_unilateral_deviation_does_not_help(self):
        g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        p = solve_ne(g)
        for i in range(4):
            base = g.cost(i, p)
            for delta in (-1e-3, 1e-3):
                trial = p.copy()
                trial[i] += delta
                assert g.cost(i, trial) >= base - 1e-12

    def test_custom_newton_path(self):
        g = quad([1, 2, 0.5, -1], [0.5, 0.5, 0.5, 0.5], [0, 0, 0, 0])
        c = wrap_custom(g, box=np.tile([-5.0, 5.0], (4, 1)))
        p = solve_ne(c, tol=1e-6)
        assert np.abs(p - solve_ne(g)).max() < 1e-5

    def test_singular_newton_step_falls_back_to_forward_step(self, monkeypatch):
        # the test-factory game: (y_i - h1_i)^2 + 0.5 y_i sum(y), quadratic in closed form
        game = build_game([1.0, 2.0, 3.0], 0.5)
        closed_form = np.linalg.solve(2.0 * np.eye(3) + 0.5 * (np.ones((3, 3)) + np.eye(3)),
                                      2.0 * np.array([1.0, 2.0, 3.0]))
        constants = estimate_constants(quad([1, 2, 3], [0.5] * 3, [0] * 3))
        solves = []
        lu_solve = nesim.game.lu_solve

        def singular_once(A, b):
            solves.append(A)
            if len(solves) == 1:
                raise SingularMatrix("pivot 0 in column 0")
            return lu_solve(A, b)

        monkeypatch.setattr(nesim.game, "lu_solve", singular_once)
        p = solve_ne(game, tol=1e-7, constants=constants)
        assert len(solves) >= 2  # the first Newton solve failed, later ones ran
        assert np.abs(p - closed_form).max() < 1e-6


def test_monotonicity_inequality_sampled():
    g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
    c = estimate_constants(g)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        x = rng.uniform(-8, 8, 4)
        y = rng.uniform(-8, 8, 4)
        gap = (x - y) @ (pseudo_gradient(g, x) - pseudo_gradient(g, y))
        assert gap >= c.strong_mono * ((x - y) @ (x - y)) * (1 - 1e-9)


def test_analytic_gradient_matches_finite_differences():
    g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.uniform(-5, 5, 4)
        i = int(rng.integers(4))
        step = 1e-6 * (1 + abs(y[i]))
        up, dn = y.copy(), y.copy()
        up[i] += step
        dn[i] -= step
        fd = (g.cost(i, up) - g.cost(i, dn)) / (2 * step)
        ana = partial_gradient(g, i, y)
        assert abs(fd - ana) < 1e-5 * (1 + abs(ana))
