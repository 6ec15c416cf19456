from __future__ import annotations

import numpy as np
import pytest

import nesim.game
from factories import build_game, smooth_costs, wrap_custom
from nesim.errors import NotStronglyMonotone, SingularMatrix
from nesim.game import (CustomGame, QuadraticAggregativeGame, _central_partials,
                        estimate_constants, extended_pseudo_gradient, partial_gradient,
                        pseudo_gradient, solve_ne)
from oracles import central_partials, reference_bounds, reference_constants


def quad(h1, h2, h3):
    return QuadraticAggregativeGame(h1=np.array(h1, dtype=float),
                                    h2=np.array(h2, dtype=float),
                                    h3=np.array(h3, dtype=float))


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

    def test_custom_game_calls_player_i_cost_twice_for_the_pseudo_gradient_bits(self):
        # player i's own stencil alone, the upward call first, not the whole pseudo-gradient
        calls = []

        def counted(i, cost):
            def call(yi, profile):
                calls.append((i, yi))
                return cost(yi, profile)
            return call

        costs = smooth_costs(4, in_place=False)
        game = CustomGame(costs=[counted(i, cost) for i, cost in enumerate(costs)])
        y = np.random.default_rng(6).uniform(-3, 3, 4)
        want = central_partials(costs, np.tile(y, (1, 4, 1)))[0]
        for i in range(4):
            calls.clear()
            got = partial_gradient(game, i, y)
            assert [who for who, _ in calls] == [i, i] and calls[0][1] > calls[1][1]
            assert np.float64(got).tobytes() == want[i].tobytes()
        with pytest.raises(ValueError):
            partial_gradient(game, 0, np.zeros(5))  # a profile of another length


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

    @pytest.mark.parametrize("kind", ["quadratic", "custom"])
    def test_stack_is_each_matrix_bit_for_bit(self, kind):
        g = quad([2, 4, 3, 5], [2, 2, 2, 2], [1, 1, 1, 1])
        game = g if kind == "quadratic" else CustomGame(costs=smooth_costs(4, in_place=False))
        # the closed loop hands over strided (B, n, n) views of its state
        state = np.random.default_rng(7).uniform(-3, 3, (16, 6))
        stack = state.reshape(4, 4, 2, 3).transpose(2, 3, 0, 1)
        got = extended_pseudo_gradient(game, stack)
        assert got.shape == (2, 3, 4)
        for idx in np.ndindex(2, 3):
            one = extended_pseudo_gradient(game, np.ascontiguousarray(stack[idx]))
            assert got[idx].tobytes() == one.tobytes()
        with pytest.raises(ValueError, match="stack"):
            extended_pseudo_gradient(game, state[:4, :3])


class TestCentralPartials:
    @pytest.mark.parametrize("K", [1, 2, 50])
    def test_matches_oracle_bit_for_bit(self, K):
        blocks = np.random.default_rng(K).uniform(-3, 3, (K, 4, 4))
        before = blocks.copy()
        got = _central_partials(smooth_costs(4, in_place=False), blocks)
        want = central_partials(smooth_costs(4, in_place=False), blocks)
        assert got.shape == (K, 4)
        assert got.tobytes() == want.tobytes()
        assert blocks.tobytes() == before.tobytes()

    def test_strided_blocks(self):
        # the closed loop hands over (B, n, n) transposed views of its state
        state = np.random.default_rng(3).uniform(-3, 3, (16, 5))
        blocks = state.reshape(4, 4, 5).transpose(2, 0, 1)
        costs = smooth_costs(4, in_place=False)
        want = central_partials(costs, np.ascontiguousarray(blocks))
        assert _central_partials(costs, blocks).tobytes() == want.tobytes()

    def test_calls_come_in_the_oracles_order_each_on_its_own_profile(self):
        # (player, strategy, profile bytes at the call) for every call, against the oracle's
        # fresh copies; the costs scribble over their profile after reading it, so a shared
        # row would show in a later call's bytes
        def recording(calls, n):
            def make(i):
                def cost(yi, profile):
                    calls.append((i, np.float64(yi).tobytes(), profile.tobytes()))
                    value = yi * yi + 0.5 * yi * profile.sum()
                    profile *= -3.0
                    return value
                return cost
            return [make(i) for i in range(n)]

        blocks = np.random.default_rng(8).uniform(-3, 3, (5, 3, 3))
        before = blocks.copy()
        got_calls, want_calls = [], []
        got = _central_partials(recording(got_calls, 3), blocks)
        want = central_partials(recording(want_calls, 3), blocks)
        assert len(got_calls) == 5 * 3 * 2
        assert got_calls == want_calls
        assert got.tobytes() == want.tobytes()
        assert blocks.tobytes() == before.tobytes()

    @pytest.mark.parametrize("value", [
        lambda i, y: np.nan if y > 0 else y,
        lambda i, y: np.inf if i == 1 else -np.inf,
        lambda i, y: (-1) ** i * np.inf if y > 0 else 0.0,
        lambda i, y: int(round(y * 1e7)) + i,
        lambda i, y: np.float32(y * y + i),
    ], ids=["nan", "inf_minus_inf", "inf_and_finite", "int", "float32"])
    def test_cost_values_of_any_kind_give_the_oracles_bits(self, value):
        costs = [lambda y, profile, i=i: value(i, y) for i in range(3)]
        blocks = np.random.default_rng(9).uniform(-3, 3, (4, 3, 3))
        got, want = _central_partials(costs, blocks), central_partials(costs, blocks)
        assert got.tobytes() == want.tobytes()

    def test_signed_zero_and_huge_strategies_give_the_oracles_bits(self):
        # the step of -0.0 is the step of 0.0, and at +-1e300 the costs overflow to inf
        costs = [lambda y, profile, i=i: y * y * (i + 1) + y * sum(profile.tolist())
                 for i in range(3)]
        blocks = np.random.default_rng(10).uniform(-3, 3, (3, 3, 3))
        blocks[0][np.diag_indices(3)] = -0.0
        blocks[1][np.diag_indices(3)] = [1e300, -1e300, 0.0]
        blocks[2] = [[-1e300, -0.0, 1e300], [1e300, 1e300, -0.0], [-0.0, -1e300, -1e300]]
        got, want = _central_partials(costs, blocks), central_partials(costs, blocks)
        assert got.tobytes() == want.tobytes()

    def test_empty_stack(self):
        # a chunk of the sampled constants in which every sample is skipped: no call
        def cost(y, profile):
            raise AssertionError("no block, no call")

        assert _central_partials([cost] * 3, np.empty((0, 3, 3))).shape == (0, 3)

    def test_cost_that_writes_into_its_profile(self):
        blocks = np.random.default_rng(4).uniform(-3, 3, (6, 3, 3))
        before = blocks.copy()
        writing = _central_partials(smooth_costs(3, in_place=True), blocks)
        copying = _central_partials(smooth_costs(3, in_place=False), blocks)
        assert writing.tobytes() == copying.tobytes()
        assert blocks.tobytes() == before.tobytes()
        game = CustomGame(costs=smooth_costs(3, in_place=True))
        y, P = blocks[0, 0].copy(), blocks[1].copy()
        want = central_partials(game.costs, np.tile(y, (1, 3, 1)))[0]
        assert pseudo_gradient(game, y).tobytes() == want.tobytes()
        assert partial_gradient(game, 1, y) == want[1]
        assert (extended_pseudo_gradient(game, P).tobytes()
                == central_partials(game.costs, P[None])[0].tobytes())
        assert y.tobytes() == blocks[0, 0].tobytes() and P.tobytes() == blocks[1].tobytes()


def test_custom_game_cost_leaves_the_callers_profile_as_it_was():
    game = CustomGame(costs=smooth_costs(3, in_place=True))
    profile = np.array([0.5, -1.0, 2.0])
    want = smooth_costs(3, in_place=False)[1](-1.0, profile.copy())
    assert game.cost(1, profile) == want
    assert profile.tolist() == [0.5, -1.0, 2.0]


class TestCustomGameBox:
    @pytest.mark.parametrize("box", [[[1.0, 1.0]] * 2, [[2.0, 1.0]] * 2,
                                     [[0.0, np.inf]] * 2, [[np.nan, 1.0]] * 2],
                             ids=["zero_width", "inverted", "infinite", "nan"])
    def test_rejects_box_without_lo_below_hi(self, box):
        with pytest.raises(ValueError, match="sample_box"):
            CustomGame(costs=smooth_costs(2, in_place=False), sample_box=box)


class TestQuadraticGameVectors:
    @pytest.mark.parametrize("h", [([1, np.nan], [1, 1], [0, 0]), ([1, 2], [1, np.inf], [0, 0]),
                                   ([1, 2], [1, 1], [-np.inf, 0])], ids=["h1", "h2", "h3"])
    def test_rejects_non_finite_entries(self, h):
        with pytest.raises(ValueError, match="finite"):
            quad(*h)


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

    def test_custom_constants_pinned(self):
        c = estimate_constants(build_game([1.0, 2.0, 3.0], 0.5))
        assert (c.strong_mono, c.lipschitz) == (2.0000000021017246, 4.7999884995383475)
        assert type(c.strong_mono) is float and type(c.lipschitz) is float

    @pytest.mark.parametrize("chunk_bytes", [None, 4096, 1], ids=["default", "small", "one"])
    def test_narrow_box_matches_per_sample_reference(self, chunk_bytes, monkeypatch):
        # a box 1e-8 wide: most samples take the |x - y|^2 < 1e-16 skip, and the
        # extended map counts only where |Px - Py| > 1e-8
        if chunk_bytes is not None:
            monkeypatch.setattr(nesim.game, "SAMPLE_CHUNK_BYTES", chunk_bytes)
        game = build_game([1.0, 2.0, 3.0], 0.5, box=(1.0, 1.0 + 1e-8))
        lo, hi = game.sample_box.T
        rng = np.random.default_rng(2)
        skipped = wide = 0
        for _ in range(400):  # the reference loop's stream, read for its branches
            d = rng.uniform(lo, hi) - rng.uniform(lo, hi)
            dP = rng.uniform(lo, hi, (3, 3)) - rng.uniform(lo, hi, (3, 3))
            if d @ d < 1e-16:
                skipped += 1
                continue
            wide += np.linalg.norm(dP) > 1e-8
        assert 0 < skipped < 400 and 0 < wide < 400 - skipped
        assert estimate_constants(game, n_samples=400, seed=2) == reference_constants(game, 400, 2)
        # near y = 1000 the differences are rounding noise: the monotonicity bound is
        # negative, and the extended samples left out would set the Lipschitz bound
        noisy = build_game([1.0, 2.0, 3.0], 0.5, box=(1e3, 1e3 + 1e-8))
        assert nesim.game._sampled_constants(noisy, 400, 2) == reference_bounds(noisy, 400, 2)


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
