from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.errors import NonFiniteState, NotSymmetric, SingularMatrix
from nesim.numerics import (LINEAR_BLOCK, STEP_BLOCK, LiftedSteps, OdeSystem, integrate,
                            lu_solve, rk4_lifted_matrices, rk4_lifted_step, rk4_lifted_steps,
                            rk4_linear, rk4_matrix, rk4_step, symmetric_eigenvalues)
from oracles import rk4_linear_stepwise, rk4_states


class TestLuSolve:
    def test_identity(self):
        x = lu_solve(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(x, [1, 2, 3], atol=1e-14)

    def test_diagonal(self):
        x = lu_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert np.allclose(x, [1, 2], atol=1e-14)

    def test_permutation(self):
        x = lu_solve([[0.0, 1.0], [1.0, 0.0]], [3.0, 5.0])
        assert np.allclose(x, [5, 3], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        with pytest.raises(SingularMatrix):
            lu_solve([[np.nan, 0.0], [0.0, 1.0]], [1.0, 2.0])

    def test_nearly_singular_raises(self):
        with pytest.raises(SingularMatrix):
            lu_solve([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1.0, 2.0])

    def test_tiny_but_well_conditioned_solves(self):
        # singularity is judged by conditioning, not by the absolute pivot size
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(lu_solve(1e-13 * np.eye(3), b), 1e13 * b, rtol=1e-14, atol=0)

    def test_matrix_right_hand_side_matches_column_solves(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        B = rng.normal(size=(5, 3))
        X = lu_solve(A, B)
        assert X.shape == (5, 3)
        for j in range(3):
            assert np.allclose(X[:, j], lu_solve(A, B[:, j]), rtol=1e-13, atol=1e-15)

    def test_residual_on_random_well_conditioned(self):
        rng = np.random.default_rng(42)
        trials = 0
        while trials < 100:
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            if np.linalg.cond(A) >= 1e6:
                continue
            b = rng.normal(size=n)
            x = lu_solve(A, b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))
            trials += 1


class TestSymmetricEigenvalues:
    def test_identity(self):
        assert np.allclose(symmetric_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_diagonal_sorted(self):
        assert np.allclose(symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_cycle_laplacian_spectrum(self):
        # circulant eigenvalues 2 - 2 cos(2 pi k / 4): {0, 2, 2, 4}
        L = np.array([[2, -1, 0, -1], [-1, 2, -1, 0],
                      [0, -1, 2, -1], [-1, 0, -1, 2]], dtype=float)
        assert np.allclose(symmetric_eigenvalues(L), [0, 2, 2, 4], atol=1e-10)

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            B = rng.normal(size=(6, 6))
            A = B + B.T
            assert abs(symmetric_eigenvalues(A).sum() - np.trace(A)) < 1e-9

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(8)
        B = rng.normal(size=(5, 5))
        A = B + B.T
        perm = np.eye(5)[rng.permutation(5)]
        assert np.allclose(symmetric_eigenvalues(A),
                           symmetric_eigenvalues(perm @ A @ perm.T), atol=1e-10)

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


class TestRk4:
    def test_constant(self):
        sys = OdeSystem(1, lambda t, x: np.zeros(1))
        assert rk4_step(sys, 0.0, np.array([7.0]), 0.1)[0] == 7.0

    def test_hand_evaluated_decay_step(self):
        sys = OdeSystem(1, lambda t, x: -x)
        out = rk4_step(sys, 0.0, np.array([1.0]), 0.1)[0]
        assert out == pytest.approx(0.9048375, abs=1e-12)  # exp(-0.1) = 0.90483742
    def test_rotation_quarter_turn(self):
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = OdeSystem(2, lambda t, v: S @ v)
        n_steps = 1571  # h close to 1e-3 with an exact endpoint
        h = (np.pi / 2) / n_steps
        *_, v = rk4_states(sys, np.array([1.0, 0.0]), h, n_steps)
        assert np.abs(v - np.array([0.0, -1.0])).max() < 1e-8

    def test_order_four_convergence(self):
        sys = OdeSystem(1, lambda t, x: -x)

        def global_error(h):
            *_, x = rk4_states(sys, np.array([1.0]), h, round(1.0 / h))
            return abs(x[0] - np.exp(-1.0))

        ratio = global_error(0.02) / global_error(0.01)
        assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_non_finite_raises(self):
        sys = OdeSystem(1, lambda t, x: np.full(1, np.nan))
        with pytest.raises(NonFiniteState):
            rk4_step(sys, 0.0, np.array([1.0]), 0.1)

    def test_non_finite_columns_are_marked(self):
        # no mask on the error: one non-finite column of a batch is enough to raise,
        # and the columns beside it step finitely on their own
        sys = OdeSystem(1, lambda t, x: 1.0 / x)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteState):
            rk4_step(sys, 0.0, np.array([[1.0, 0.0, 2.0]]), 0.1)
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteState):
            rk4_step(sys, 0.0, np.array([0.0]), 0.1)
        assert np.isfinite(rk4_step(sys, 0.0, np.array([[1.0, 2.0]]), 0.1)).all()

    def test_batch_columns_step_independently(self):
        sys = OdeSystem(1, lambda t, x: -x)
        batch = rk4_step(sys, 0.0, np.array([[1.0, -3.0]]), 0.1)
        for b, x0 in enumerate((1.0, -3.0)):
            assert batch[0, b] == rk4_step(sys, 0.0, np.array([x0]), 0.1)[0]

    def test_rejects_nonpositive_step(self):
        sys = OdeSystem(1, lambda t, x: -x)
        with pytest.raises(ValueError):
            rk4_step(sys, 0.0, np.array([1.0]), 0.0)


class TestRk4Linear:
    """RK4 on ``xdot = A x`` through its step matrix ``R(hA)``."""

    @staticmethod
    def stability_function(z):
        """RK4's stability function, summed term by term (no Horner)."""
        return 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0

    @pytest.mark.parametrize("lam", [-40.0, -3.0, -0.5, 0.0, 0.7, 2.0])
    @pytest.mark.parametrize("h", [0.1, 0.01])
    def test_scalar_closed_form(self, lam, h):
        R = self.stability_function(h * lam)
        assert rk4_matrix(np.array([[lam]]), h)[0, 0] == pytest.approx(R, rel=1e-15, abs=0)
        xs = rk4_linear(np.array([[lam]]), np.array([1.5]), h, 20)
        assert xs.shape == (21, 1)
        assert np.allclose(xs[:, 0], 1.5 * R ** np.arange(21), rtol=1e-13, atol=0)
        # R(z) agrees with exp(z) to fifth order
        assert abs(R - np.exp(h * lam)) <= abs(h * lam) ** 5 / 120.0 * max(1.0, np.exp(h * lam))

    @pytest.mark.parametrize("h", [1e-3, 0.1, 1.0])
    def test_rotation_eigenvalues(self, h):
        # the eigenvalues of R(hS) for the rotation S are R(+-ih)
        S = np.array([[0.0, 1.0], [-1.0, 0.0]])
        eigs = np.linalg.eigvals(rk4_matrix(S, h))
        eigs = eigs[np.argsort(eigs.imag)]
        expected = self.stability_function(np.array([-1j * h, 1j * h]))
        assert np.abs(eigs - expected).max() < 1e-14

    def test_one_step_matches_rk4_step(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            x0 = rng.normal(size=n)
            h = float(rng.uniform(0.01, 0.5))
            ref = rk4_step(OdeSystem(n, lambda t, x: A @ x), 0.0, x0, h)
            step = rk4_linear(A, x0, h, 1)
            assert step[0].tobytes() == x0.tobytes()
            assert np.abs(step[1] - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_stacked_calls_equal_per_matrix_calls(self):
        rng = np.random.default_rng(12)
        A = rng.normal(size=(5, 4, 4))
        x0 = rng.normal(size=(5, 4))
        R = rk4_matrix(A, 0.05)
        xs = rk4_linear(A, x0, 0.05, 30)
        assert R.shape == A.shape and xs.shape == (31, 5, 4)
        for b in range(5):
            assert R[b].tobytes() == rk4_matrix(A[b], 0.05).tobytes()
            assert xs[:, b].tobytes() == rk4_linear(A[b], x0[b], 0.05, 30).tobytes()

    @pytest.mark.parametrize("n_steps", [0, 1, LINEAR_BLOCK - 1, LINEAR_BLOCK, LINEAR_BLOCK + 1,
                                         3 * LINEAR_BLOCK + 5])
    @pytest.mark.parametrize("stacked", [False, True], ids=["flat", "stacked"])
    def test_blocks_of_steps_match_stepping_once_per_step(self, n_steps, stacked):
        # a block's states are powers of R(hA) times its first state, so they agree with
        # the stepwise oracle to roundoff, at every state and in every block
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 4, 4))
        A[1] = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])  # two undamped rotations
        x0 = rng.normal(size=(3, 4))
        if not stacked:
            A, x0 = A[0], x0[0]
        xs = rk4_linear(A, x0, 0.05, n_steps)
        ref = rk4_linear_stepwise(A, x0, 0.05, n_steps)
        assert xs.shape == ref.shape == (n_steps + 1,) + x0.shape
        assert xs[0].tobytes() == np.asarray(x0).tobytes()
        err = np.abs(xs - ref).max(axis=-1)
        assert (err <= 1e-13 * np.abs(ref).max(axis=-1)).all()

    def test_overflow_raises(self):
        with pytest.raises(NonFiniteState):
            rk4_linear(np.array([[1e3]]), np.array([1.0]), 1.0, 200)
        A = np.array([[[-1.0]], [[1e3]], [[0.5]]])
        with pytest.raises(NonFiniteState):
            rk4_linear(A, np.ones((3, 1)), 1.0, 200)

    @pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf])
    def test_rejects_nonpositive_step(self, h):
        with pytest.raises(ValueError):
            rk4_linear(np.eye(2), np.ones(2), h, 3)


@dataclasses.dataclass(frozen=True)
class Cubic(OdeSystem):
    """``xdot = M x + c + F [x_0^3, x_0 x_1]`` per column, with ``A = [M, c, F]`` over the lift.

    ``rhs`` is the ODE written out, stepped by `rk4_step`; ``steps`` is the
    lifted workspace at one step size, stepped by `rk4_lifted_step`, or None.
    """

    bind: object = None
    operator: np.ndarray = None
    steps: LiftedSteps | None = None

    @classmethod
    def drawn(cls, rng, B: int, h: float | None = None, scale: float = 1.0) -> "Cubic":
        """Columns with ``x_0`` damped by its cube and ``x_1`` by itself, so none blows up."""
        A = scale * rng.normal(size=(B, 2, 5))
        A[:, 0, 3] = -1.0 - np.abs(A[:, 0, 3])
        A[:, 1, 1] = -1.0 - np.abs(A[:, 1, 1])
        return cls.of(A, h)

    @classmethod
    def of(cls, A: np.ndarray, h: float | None) -> "Cubic":
        def bind(L):
            def lift():
                L[3] = L[0] ** 3
                L[4] = L[0] * L[1]
            return lift

        def rhs(t, x):  # the oracle: the ODE written out, not the lifted product
            cols = x.reshape(2, -1)
            phi = np.stack([cols[0] ** 3, cols[0] * cols[1]])
            out = (np.einsum("bij,jb->ib", A[:, :, :2], cols) + A[:, :, 2].T
                   + np.einsum("bij,jb->ib", A[:, :, 3:], phi))
            return out.reshape(x.shape)

        steps = None if h is None else rk4_lifted_steps(A, h, bind)
        return cls(dimension=2, rhs=rhs, bind=bind, steps=steps, operator=A)

    def restricted(self, keep) -> "Cubic":
        """The system of the columns ``keep`` alone, built anew: the oracle of a batch."""
        return Cubic.of(self.operator[np.flatnonzero(keep)], self.steps and self.steps.h)


def reciprocal(A: np.ndarray, h: float) -> LiftedSteps:
    """``xdot = A_b [x_0; x_1; 1; 1 / x_0]`` per column: a lift that is not finite at 0."""
    def bind(L):
        def lift():
            np.divide(1.0, L[0], out=L[3])
        return lift

    return rk4_lifted_steps(A, h, bind)


class TestRk4LiftedStep:
    """The stages folded into the lifted operator, against `rk4_step` on the written-out ODE."""

    def test_matches_rk4_step(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            h = float(rng.uniform(1e-3, 0.05))
            sys = Cubic.drawn(rng, 3, h, scale=0.5)
            x = rng.normal(scale=0.5, size=(2, 3))
            lifted, ref = x, x
            for _ in range(50):
                lifted, ref = rk4_lifted_step(sys.steps, lifted), rk4_step(sys, 0.0, ref, h)
                assert (np.abs(lifted - ref) / (1.0 + np.abs(ref))).max() <= 1e-12

    def test_stage_maps_hold_the_tableau(self):
        # bit for bit, with the scalars h / 2, h / 3 and h / 6 (at h = 0.03, h * (1 / 3) and
        # h * (1 / 6) round otherwise), and -0.0 entries on and off the diagonal, which E +
        # keeps or clears by the sign rules
        rng = np.random.default_rng(31)
        A, h = rng.normal(size=(2, 3, 7)), 0.03
        A[0, 0, 0] = A[0, 1, 4] = A[1, 2, 2] = A[1, 0, 6] = -0.0
        E = np.eye(3, 7)
        S1, S2, S3, W = rk4_lifted_matrices(A, h)
        for b in range(2):
            a = A[b]
            for have, want in ((S1[b], E + h / 2 * a), (S2[b], np.hstack([h / 2 * a, E])),
                               (S3[b], np.hstack([E, h * a])),
                               (W[b], np.hstack([h / 3 * a, E + h / 6 * a, h / 3 * a,
                                                 h / 6 * a]))):
                assert have.tobytes() == want.tobytes()
        assert np.signbit(S2[0, 1, 4]) and not np.signbit(S1[0, 1, 4])  # h/2 (-0.0), 0 + it

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_workspace_maps_and_buffer_start_64_byte_aligned(self, batch):
        # 2 x 3 maps of 8-byte floats: unpadded, every other column would start off the boundary
        rng = np.random.default_rng(35)
        A, h = rng.normal(size=(batch, 2, 3)), 0.1
        held = []  # allocations of odd sizes between builds, so each build meets another heap
        for _ in range(5):
            steps = rk4_lifted_steps(A, h, lambda L: None)
            for have, want in zip(steps.maps, rk4_lifted_matrices(A, h)):
                assert have.tobytes() == want.tobytes()
                assert all(have[b].ctypes.data % 64 == 0 and have[b].flags.c_contiguous
                           for b in range(batch))
            assert steps.buffer.shape == (4 * 3, batch) and steps.buffer.flags.c_contiguous
            assert steps.buffer.ctypes.data % 64 == 0
            held.append(np.empty(int(rng.integers(1, 9))))

    def test_columns_are_bit_identical_to_one_column_steps(self):
        rng = np.random.default_rng(32)
        sys = Cubic.drawn(rng, 3, 0.05)
        x = rng.normal(size=(2, 3))
        batch = rk4_lifted_step(sys.steps, x)
        for b in range(3):
            keep = np.arange(3) == b
            one = rk4_lifted_step(sys.restricted(keep).steps, x[:, keep])
            assert one.tobytes() == batch[:, keep].tobytes()

    def test_non_finite_columns_are_marked(self):
        # the step does not raise: the column it leaves non-finite names itself
        rng = np.random.default_rng(33)
        sys = Cubic.drawn(rng, 3, 0.1)
        x = rng.normal(size=(2, 3))
        x[0, 1] = 1e200  # its cube overflows in the first lift
        with np.errstate(over="ignore", invalid="ignore"):
            out = rk4_lifted_step(sys.steps, x)
        assert out.shape == (2, 3)
        assert (~(np.abs(out).max(axis=0) < np.inf)).tolist() == [False, True, False]
        for b in (0, 2):
            keep = np.arange(3) == b
            one = rk4_lifted_step(sys.restricted(keep).steps, x[:, keep])
            assert one.tobytes() == out[:, keep].tobytes()


class TestIntegrateStopsColumns:
    """`integrate` on a batched state: the columns are independent, and the observer ends the run.

    The observer sees each block of states once; every block but the initial
    state and the last holds `STEP_BLOCK` states. A column its caller has
    stopped, diverged or not, is stepped on to the end, and the other columns
    step as they do alone. The run ends after the block whose observer returns
    True.
    """

    @classmethod
    def alone(cls, steps_of, x0, b, n_steps):
        """Every state of the column ``b`` run alone in its own workspace ``steps_of(keep)``."""
        keep = np.arange(x0.shape[1]) == b
        return cls.recorded(steps_of(keep), x0[:, keep], n_steps)[2]

    @staticmethod
    def full_blocks(n_steps):
        """``(k, len(xs))`` of each block of ``n_steps`` steps: the start, then `STEP_BLOCK` each."""
        return [(0, 1)] + [(k, min(STEP_BLOCK, n_steps + 1 - k))
                           for k in range(1, n_steps + 1, STEP_BLOCK)]

    @staticmethod
    def recorded(steps, x0, n_steps, observer=lambda k, xs: None):
        """``(final, blocks, states)`` of `integrate`: ``(k, len(xs))`` of each block, and
        every state, stacked; ``observer(k, xs)`` decides each block's return."""
        blocks, states = [], []

        def record(k, t, xs):
            assert t.tobytes() == (np.arange(k, k + len(xs)) * steps.h).tobytes()
            blocks.append((k, len(xs)))
            states.extend(xs.copy())
            return observer(k, xs)

        final = integrate(steps, x0, n_steps, record)
        return final, blocks, np.array(states)

    def test_diverging_column_stops_and_the_others_match_their_own_runs(self):
        # the middle column overflows inside the first block and is stepped on, non-finite, to
        # the end; nothing stops the run, and the other columns are their runs alone
        rng = np.random.default_rng(35)
        sys = Cubic.drawn(rng, 3, 0.01, scale=0.3)
        x0 = rng.normal(scale=0.3, size=(2, 3))
        x0[0, 1] = 30.0  # x0^3 blows up within a few steps
        with np.errstate(over="ignore", invalid="ignore"):
            final, blocks, states = self.recorded(sys.steps, x0, 200)
        bad = ~(np.abs(states).max(axis=1) < np.inf)  # (201, 3): the non-finite states
        first = int(np.argmax(bad[:, 1]))
        assert 1 < first < STEP_BLOCK and bad[first:, 1].all() and not bad[:, [0, 2]].any()
        assert blocks == self.full_blocks(200)  # no step taken again, none left out
        assert final.shape == (2, 3) and final.tobytes() == states[-1].tobytes()
        for b in (0, 2):
            alone = self.alone(lambda keep: sys.restricted(keep).steps, x0, b, 200)
            assert alone[..., 0].tobytes() == np.ascontiguousarray(states[..., b]).tobytes()

    def test_observer_mask_stops_columns(self):
        # the observer keeps its own mask of stopped columns, as `run` does: column 1, stopped
        # by the first block of steps, is still stepped, and every column steps as it does
        # alone; the run goes on while any column is live
        rng = np.random.default_rng(36)
        sys = Cubic.drawn(rng, 3, 0.01, scale=0.3)
        x0 = rng.normal(scale=0.3, size=(2, 3))
        stopped = np.zeros(3, dtype=bool)

        def observer(k, xs):
            stopped[1] |= k == 1
            return stopped.all()

        final, blocks, states = self.recorded(sys.steps, x0, 200, observer)
        assert blocks == self.full_blocks(200) and stopped.tolist() == [False, True, False]
        assert final.tobytes() == states[-1].tobytes()
        for b in range(3):
            alone = self.alone(lambda keep: sys.restricted(keep).steps, x0, b, 200)
            assert alone[..., 0].tobytes() == np.ascontiguousarray(states[..., b]).tobytes()

    def test_the_loop_ends_when_every_column_has_stopped(self):
        # the observer returns True after the second block of steps: the third is never made,
        # and the last state is that block's last; True at the start makes no step at all
        rng = np.random.default_rng(39)
        sys = Cubic.drawn(rng, 3, 0.01, scale=0.3)
        x0 = rng.normal(scale=0.3, size=(2, 3))
        final, blocks, states = self.recorded(sys.steps, x0, 200,
                                              lambda k, xs: k == 1 + STEP_BLOCK)
        assert blocks == self.full_blocks(200)[:3] and len(states) == 1 + 2 * STEP_BLOCK
        assert final.tobytes() == states[-1].tobytes()
        for b in range(3):
            alone = self.alone(lambda keep: sys.restricted(keep).steps, x0, b, 200)
            assert final[:, b].tobytes() == alone[2 * STEP_BLOCK, :, 0].tobytes()
        final, blocks, _ = self.recorded(sys.steps, x0, 200, lambda k, xs: True)
        assert blocks == [(0, 1)] and final.tobytes() == x0.tobytes()

    def test_a_column_non_finite_when_parked_is_not_read(self):
        # 1/x is not finite at the origin, so the middle column, started there, steps to NaN
        # from its first step on; nothing reads it: the blocks stay whole, and the other
        # columns run to the end as they run alone; x_0 settles where a x_0 + c + d / x_0 = 0,
        # and x_1 follows it
        A = np.array([[[a, 0.0, c, d], [1.0, -1.0, 0.0, 0.0]]
                      for a, c, d in ((-1.0, 0.0, 1.0), (-2.0, 0.5, 1.0), (-1.0, 1.0, 0.5))])
        x0, h = np.array([[2.0, 0.0, 1.5], [0.0, 1.0, -1.0]]), 0.01
        with np.errstate(divide="ignore", invalid="ignore"):
            final, blocks, states = self.recorded(reciprocal(A, h), x0, 100)
        assert np.isnan(states[1:, :, 1]).all()
        assert blocks == self.full_blocks(100)
        assert final.shape == (2, 3) and final.tobytes() == states[-1].tobytes()
        for b in (0, 2):
            alone = self.alone(lambda keep: reciprocal(A[keep], h), x0, b, 100)
            assert np.isfinite(alone).all()
            assert alone[..., 0].tobytes() == np.ascontiguousarray(states[..., b]).tobytes()


BAD_STEPS = [0.0, -1e-3, np.nan, np.inf]


class TestIntegrateRejectsABadStep:
    """A step size that is not finite and > 0 is a `ValueError` before the first step.

    `rk4_step` checks it at each call; a lifted step's size is its
    workspace's, checked when `rk4_lifted_steps` builds it, so `integrate`
    is never handed one.
    """

    @pytest.mark.parametrize("h", BAD_STEPS)
    @pytest.mark.parametrize("step", ["rk4_step", "lifted"])
    def test_either_stepper(self, step, h):
        # without the check, a negative step runs time backwards and a zero one stands still
        rng, seen = np.random.default_rng(37), []
        with pytest.raises(ValueError, match="step size must be finite and > 0"):
            if step == "lifted":
                integrate(Cubic.drawn(rng, 1, h).steps, np.zeros((2, 1)), 100,
                          lambda k, t, xs: seen.append(k))
            else:
                seen.extend(rk4_states(Cubic.drawn(rng, 1), np.zeros((2, 1)), h, 100))
        assert len(seen) == (0 if step == "lifted" else 1)  # the start alone, and no step

    @pytest.mark.parametrize("h", BAD_STEPS)
    def test_the_steppers_and_the_workspace(self, h):
        sys = Cubic.drawn(np.random.default_rng(38), 1)
        with pytest.raises(ValueError, match="step size must be finite and > 0"):
            rk4_step(sys, 0.0, np.zeros((2, 1)), h)
        with pytest.raises(ValueError, match="step size must be finite and > 0"):
            rk4_lifted_steps(sys.operator, h, sys.bind)

    def test_a_final_time_before_the_start(self):
        # a negative step count, before any observer call; no step returns the start
        steps, x0, seen = Cubic.drawn(np.random.default_rng(39), 1, 1e-3).steps, np.ones((2, 1)), []
        with pytest.raises(ValueError, match="step count must be >= 0"):
            integrate(steps, x0, -1, lambda k, t, xs: seen.append(k))
        assert seen == []
        assert integrate(steps, x0, 0, lambda k, t, xs: seen.append((k, t.tolist()))).tolist() == \
            x0.tolist()
        assert seen == [(0, [0.0])]
