from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.errors import ConfigError, InvalidParameter
from nesim.numerics import OdeSystem
from factories import build_plant, build_plant_with_malformed_split, build_plant_without_split
from nesim.plant import (Exosystem, PlantFeatures, PlantModel, check_origin_equilibrium,
                         check_steady_chain_consistency, check_steady_zero_pde, drift_split,
                         example_plant, exo_trajectory, sample_uncertainty, steady_drift,
                         steady_state_chain)
from oracles import plant_rhs, rk4_states

ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])


def demo_plant(g_rows):
    return example_plant(np.array(g_rows, dtype=float))


def zero_w(model):
    return np.zeros(model.n_w)


class TestPlantRhs:
    def test_origin_is_equilibrium(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3]])
        dz, dx = plant_rhs(model, np.zeros((1, 1)), np.zeros((2, 1)), u=np.zeros(1),
                           v=np.zeros(2), w=zero_w(model))
        assert np.abs(dz).max() == 0.0 and np.abs(dx).max() == 0.0

    def test_zero_dynamics_drift(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3]])
        dz, dx = plant_rhs(model, np.ones((1, 1)), np.zeros((2, 1)), u=np.zeros(1),
                           v=np.zeros(2), w=zero_w(model))
        assert dz[0, 0] == pytest.approx(-1.0)
        assert np.abs(dx).max() == 0.0

    def test_pure_integrator_chain(self):
        zero = lambda z, xs, v, w: np.zeros(z.shape[0])
        model = PlantModel(n_agents=1, r=2, n_z=1, n_w=1,
                           f0=lambda z, x1, v, w: np.zeros((1, 1)),
                           f_levels=(zero, zero),
                           steady_zero=lambda s, v, w: np.zeros(np.shape(v)[:-1] + (1, 1)),
                           im_polys=([0.0], [0.0]))
        _, dx = plant_rhs(model, np.zeros((1, 1)), np.zeros((2, 1)), u=np.ones(1),
                          v=np.zeros(1), w=np.zeros(1))
        assert np.allclose(dx[:, 0], [0.0, 1.0])


def two_state_zero_dynamics_plant(flat: bool) -> PlantModel:
    """Relative degree 1, two zero-dynamics states per agent; ``f0`` returns ``(N, 2)`` or its
    agent-major ravel."""
    def f0(z, x1, v, w):
        dz = np.stack([-z[:, 0] + w * x1, v[0] * z[:, 0] - 2.0 * z[:, 1]], axis=1)
        return dz.ravel() if flat else dz

    def f1(z, xs, v, w):
        return z[:, 1] * xs[0] + (1.0 + w) * v[1]

    return PlantModel(n_agents=3, r=1, n_z=2, n_w=3, f0=f0, f_levels=(f1,),
                      steady_zero=lambda s, v, w: np.zeros(np.shape(v)[:-1] + (3, 2)),
                      im_polys=([-1.0, 0.0],))


class TestExamplePlant:
    def test_steady_zero_without_disturbance(self):
        model = demo_plant([[-2, 1, 0.5, 1, 0.3, 0.3]])
        s = np.array([3.0])
        out = model.steady_zero(s, np.zeros(2), zero_w(model))
        assert out[0, 0] == pytest.approx(-3.0 / -2.0)

    def test_steady_zero_hand_value(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3]])
        out = model.steady_zero(np.array([0.0]), np.array([1.0, 0.0]), zero_w(model))
        assert out[0, 0] == pytest.approx(0.5)

    def test_unstable_zero_dynamics_rejected(self):
        with pytest.raises(InvalidParameter):
            demo_plant([[0.5, 1, 0.5, 1, 0.3, 0.3]])

    @staticmethod
    def assert_split_reproduces_drift(model):
        """Each draw of a stacked `drift_split` against ``f0``/``f_levels`` to 1e-14.

        ``J_b @ [zx, leading v, phi]`` is the drift of column ``b``; the features
        are overwritten, not added to, and column ``b`` of a stack is what a
        one-draw split gives for that column alone, bit for bit.
        """
        n, batch = model.n_agents, 3
        rng = np.random.default_rng(12)
        for _ in range(10):
            W = rng.uniform(-0.5, 0.5, (batch, model.n_w))
            Z, X = rng.normal(size=(batch, n, 1)), rng.normal(size=(batch, 2, n))
            V = rng.normal(size=(batch, 2))
            zx = np.stack([np.concatenate([z.ravel(), x.ravel()]) for z, x in zip(Z, X)], axis=1)
            J, features = drift_split(model, W, 2)
            n_zx, count = zx.shape[0], features.count
            v_cols = J.shape[2] - n_zx - count
            assert J.shape[:2] == (batch, n_zx) and 0 <= v_cols <= 2
            phi = np.full((count, batch), np.nan)
            features.bind(zx, V.T, phi)()
            again = np.ones_like(phi)  # the fill overwrites the rows it is bound to
            features.bind(zx, V.T, again)()
            assert np.array_equal(again, phi)
            for b, (z, x, v, w) in enumerate(zip(Z, X, V, W)):
                split = J[b] @ np.concatenate([zx[:, b], v[:v_cols], phi[:, b]])
                ref = np.concatenate([model.f0(z, x[0], v, w).ravel(),
                                      model.f_levels[0](z, x[:1], v, w),
                                      model.f_levels[1](z, x, v, w)])
                assert np.abs(split - ref).max() <= 1e-14 * np.abs(ref).max()
                J1, one = drift_split(model, W[b:b + 1], 2)
                alone = np.empty((count, 1))
                one.bind(zx[:, b:b + 1], V.T[:, b:b + 1], alone)()
                assert np.array_equal(J1[0], J[b]) and np.array_equal(alone[:, 0], phi[:, b])
        with pytest.raises(ValueError, match="stack of draws"):
            drift_split(model, W[0], 2)  # a flat draw is rejected, not broadcast

    def test_split_reproduces_drift(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3], [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35],
                            [-0.9, 1.3, -0.6, 0.7, 0.45, -0.2]])
        self.assert_split_reproduces_drift(model)

    def test_split_features_do_not_depend_on_the_draws(self):
        # the built-in plant's features are monomials of the state; the draws sit in J
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3], [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35]])
        rng = np.random.default_rng(13)
        zx, v = rng.normal(size=(6, 4)), rng.normal(size=(2, 4))
        phis = []
        for W in (rng.uniform(-0.5, 0.5, (4, model.n_w)), rng.uniform(-0.5, 0.5, (4, model.n_w))):
            J, features = drift_split(model, W, 2)
            phis.append(np.empty((features.count, 4)))
            features.bind(zx, v, phis[-1])()
        assert features.count == 3 * model.n_agents
        assert np.array_equal(phis[0], phis[1])

    def test_generic_split_reproduces_drift(self):
        # without the hook, `drift_split` evaluates f0/f_levels column by column as features
        model = dataclasses.replace(
            demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3], [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35]]),
            split=None)
        self.assert_split_reproduces_drift(model)
        J, features = drift_split(model, np.zeros((2, model.n_w)), 2)
        n_zx = 3 * model.n_agents
        assert features.count == n_zx
        assert np.array_equal(J, np.broadcast_to(np.eye(n_zx, 2 * n_zx, n_zx), J.shape))

    @pytest.mark.parametrize("hook", [True, False], ids=["split_hook", "generic"])
    def test_bound_fill_reads_its_views_at_each_call(self, hook):
        # bound once, the fill follows what the views hold: the drift matches f0/f_levels
        # after every refill of the same arrays
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3], [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35]])
        model = model if hook else dataclasses.replace(model, split=None)
        n, batch = model.n_agents, 3
        rng = np.random.default_rng(14)
        W = rng.uniform(-0.5, 0.5, (batch, model.n_w))
        J, features = drift_split(model, W, 2)
        zx, v = np.empty((3 * n, batch)), np.empty((2, batch))
        phi = np.full((features.count, batch), np.nan)
        fill = features.bind(zx, v, phi)
        v_cols = J.shape[2] - 3 * n - features.count
        for _ in range(5):
            zx[...], v[...] = rng.normal(size=zx.shape), rng.normal(size=v.shape)
            fill()
            for b, w in enumerate(W):
                z, x = zx[:n, b].reshape(n, 1), zx[n:, b].reshape(2, n)
                split = J[b] @ np.concatenate([zx[:, b], v[:v_cols, b], phi[:, b]])
                ref = np.concatenate([model.f0(z, x[0], v[:, b], w).ravel(),
                                      model.f_levels[0](z, x[:1], v[:, b], w),
                                      model.f_levels[1](z, x, v[:, b], w)])
                assert np.abs(split - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("build", [
        lambda: two_state_zero_dynamics_plant(flat=False),
        lambda: two_state_zero_dynamics_plant(flat=True),
        lambda: build_plant_without_split([[-1, 1, 0.5, 1, 0.3, 0.3],
                                           [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35]]),
    ], ids=["f0_stacked", "f0_flat", "relative_degree_2"])
    def test_generic_fill_matches_the_plant_rhs_oracle(self, build):
        # `drift_split`'s generic fill at B = 3, column by column, bit for bit: the features
        # are the drift alone, so with the chain shifts and the input added they are the
        # oracle's (dz, dx); a parked column (the mask is read at each fill) is left as it was
        model = build()
        n, r, n_z, batch = model.n_agents, model.r, model.n_z, 3
        rng = np.random.default_rng(16)
        W = rng.uniform(-0.5, 0.5, (batch, model.n_w))
        parked = np.zeros(batch, dtype=bool)
        J, features = drift_split(model, W, 2, parked)
        zx, v = np.empty((n * n_z + r * n, batch)), np.empty((2, batch))
        phi = np.full((features.count, batch), np.nan)
        fill = features.bind(zx, v, phi)
        u = rng.normal(size=n)
        for stopped in [(), (1,), (0, 1)]:
            parked[list(stopped)] = True
            zx[...], v[...] = rng.normal(size=zx.shape), rng.normal(size=v.shape)
            before = phi.copy()
            fill()
            assert phi[:, list(stopped)].tobytes() == before[:, list(stopped)].tobytes()
            for b in set(range(batch)) - set(stopped):
                z, x = zx[:n * n_z, b].reshape(n, n_z), zx[n * n_z:, b].reshape(r, n)
                dz, dx = plant_rhs(model, z, x, u, v[:, b], W[b])
                assert phi[:n * n_z, b].tobytes() == np.ravel(dz).tobytes()
                shifted = phi[n * n_z:, b].reshape(r, n) + np.vstack([x[1:], u])
                assert shifted.tobytes() == dx.tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 3])
    @pytest.mark.parametrize("hook", ["nested_lists", "bare_j", "three_tuple"])
    def test_a_split_hook_that_returns_no_pair_of_array_and_features(self, hook, batch):
        # J as nested lists, J alone and a pair with one more are read before they are
        # unpacked: each is the hook's ConfigError, whatever the batch unpacks to
        model = build_plant_with_malformed_split([[-1, 1, 0.5, 1, 0.3, 0.3]] * 4, hook)
        with pytest.raises(ConfigError, match=r"^plant split hook returned .*\(B, n_w\) stack"):
            drift_split(model, np.zeros((batch, model.n_w)), 2)

    def test_origin_equilibrium_over_box(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3], [-1.2, 0.8, 0.4, 1.1, 0.25, 0.35]])
        box = np.tile([-0.05, 0.05], (model.n_w, 1))
        worst = check_origin_equilibrium(model, [box[:, 0], box[:, 1]], 2)
        assert worst == 0.0


class TestSteadyStateChain:
    def exo(self):
        return Exosystem(S=ROTATION, v0_box=np.array([[0.5, 1.5], [-0.5, 0.5]]))

    def test_origin(self):
        model = demo_plant([[-1, 1, 0.5, 1, 0.3, 0.3]])
        steady = steady_state_chain(model, np.zeros(1), self.exo(), zero_w(model))
        v0 = np.zeros(2)
        assert np.abs(steady.z_star(v0)).max() == 0.0
        assert np.abs(steady.x_star(2, v0)).max() == 0.0
        assert np.abs(steady.x_star(model.r + 1, v0)).max() == 0.0

    def test_direct_disturbance_feedthrough(self):
        # g3 = g5 = g6 = 0 decouples the chain from the zero dynamics:
        # the level-2 signal is -v2 and the feedforward becomes +v1
        model = demo_plant([[-1, 1, 0.0, 1, 0.0, 0.0]])
        steady = steady_state_chain(model, np.array([0.7]), self.exo(), zero_w(model))
        v = np.array([0.3, -1.1])
        assert steady.x_star(2, v)[0] == pytest.approx(1.1)
        assert steady.x_star(model.r + 1, v)[0] == pytest.approx(0.3)

    def test_generic_recursion_matches_closed_form(self):
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3], [-1.2, 0.8, 0.4, 2.2, 0.25, 0.35]])
        rng = np.random.default_rng(3)
        w = rng.uniform(-0.05, 0.05, model.n_w)
        p_star = np.array([0.4, -0.8])
        steady = steady_state_chain(model, p_star, self.exo(), w)
        generic = steady_state_chain(
            PlantModel(n_agents=2, r=2, n_z=1, n_w=model.n_w, f0=model.f0,
                       f_levels=model.f_levels, steady_zero=model.steady_zero,
                       im_polys=model.im_polys, steady_poly=None),
            p_star, self.exo(), w)
        for _ in range(10):
            v = rng.uniform(-1.5, 1.5, 2)
            assert np.abs(steady.x_star(2, v) - generic.x_star(2, v)).max() < 1e-8
            u, generic_u = (chain.x_star(model.r + 1, v) for chain in (steady, generic))
            assert np.abs(u - generic_u).max() < 1e-6

    def test_time_consistency_along_disturbance(self):
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3]])
        steady = steady_state_chain(model, np.array([0.6]), self.exo(), zero_w(model))
        ts, vs = exo_trajectory(self.exo(), np.array([1.0, 0.2]), t_final=5.0, h=1e-3)
        zs = steady.z_star(vs)
        drift = steady_drift(steady, vs[1:-1], zs[1:-1])
        assert check_steady_chain_consistency(steady, ts, vs, zs, drift) < 1e-6

    def test_steady_zero_pde_residual(self):
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3]])
        steady = steady_state_chain(model, np.array([0.6]), self.exo(), zero_w(model))
        ts, vs = exo_trajectory(self.exo(), np.array([1.0, 0.2]), t_final=5.0, h=1e-3)
        zs = steady.z_star(vs)
        drift = steady_drift(steady, vs[1:-1], zs[1:-1])
        assert check_steady_zero_pde(steady, ts, vs, zs, drift) < 1e-6

    def test_plant_dynamics_invariant_on_steady_manifold(self):
        # feeding the starred signals through the raw dynamics must reproduce
        # the starred signals' own time derivatives (with the reference frozen)
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3], [-1.2, 0.8, 0.4, 2.2, 0.25, 0.35]])
        rng = np.random.default_rng(4)
        w = rng.uniform(-0.05, 0.05, model.n_w)
        p_star = np.array([0.3, -0.9])
        steady = steady_state_chain(model, p_star, self.exo(), w)
        for _ in range(5):
            v = rng.uniform(-1.2, 1.2, 2)
            dz, dx = plant_rhs(model, steady.z_star(v), np.vstack([p_star, steady.x_star(2, v)]),
                               u=steady.x_star(model.r + 1, v), v=v, w=w)
            x2_rate = steady.derivative_stack(2, v, 2)[1]
            assert np.abs(dx[0]).max() < 1e-9            # output rate = frozen reference rate
            assert np.abs(dx[1] - x2_rate).max() < 1e-9  # level-2 rate matches the signal
            # zero-dynamics rate matches the steady map's rate along the flow
            dt = 1e-6
            v_fwd = v + dt * (ROTATION @ v)
            v_bwd = v - dt * (ROTATION @ v)
            z_rate = (steady.z_star(v_fwd) - steady.z_star(v_bwd)) / (2 * dt)
            assert np.abs(dz - z_rate).max() < 1e-6


    def test_checks_match_per_sample_loops(self):
        # reference: both residuals taken sample by sample, every map evaluated per sample
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3], [-1.2, 0.8, 0.4, 2.2, 0.25, 0.35]])
        w = np.random.default_rng(6).uniform(-0.05, 0.05, model.n_w)
        p_star, v0, h = np.array([0.6, -0.4]), np.array([1.0, 0.2]), 1e-3
        steady = steady_state_chain(model, p_star, self.exo(), w)
        ts, vs = exo_trajectory(self.exo(), v0, 0.5, h)
        pde = cons = 0.0
        for k in range(1, len(vs) - 1):
            num = (model.steady_zero(p_star, vs[k + 1], w)
                   - model.steady_zero(p_star, vs[k - 1], w)) / (2.0 * h)
            ana = model.f0(model.steady_zero(p_star, vs[k], w), p_star, vs[k], w)
            pde = max(pde, float(np.abs(num - ana).max()))
            stars = np.array([p_star, steady.x_star(2, vs[k])])
            drift = model.f_levels[1](steady.z_star(vs[k]), stars, vs[k], w)
            num = (steady.x_star(2, vs[k + 1]) - steady.x_star(2, vs[k - 1])) / (2.0 * h)
            u = steady.x_star(model.r + 1, vs[k])
            cons = max(cons, float(np.abs(num - (u + drift)).max()))
        zs = steady.z_star(vs)
        drift = steady_drift(steady, vs[1:-1], zs[1:-1])
        assert check_steady_zero_pde(steady, ts, vs, zs, drift) == pde
        assert check_steady_chain_consistency(steady, ts, vs, zs, drift) == cons

    def test_chain_consistency_keeps_a_nan_drift(self):
        # a level-2 drift that is NaN on every sample: the worst mismatch is NaN, not 0; the
        # model has no `split`, which would have to agree with the NaN f_levels
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3]])
        f1, f2 = model.f_levels
        nan_model = dataclasses.replace(model, f_levels=(f1, lambda *a: f2(*a) * np.nan),
                                        split=None)
        steady = steady_state_chain(nan_model, np.array([0.6]), self.exo(), zero_w(model))
        ts, vs = exo_trajectory(self.exo(), np.array([1.0, 0.2]), t_final=0.1, h=1e-3)
        zs = steady.z_star(vs)
        drift = steady_drift(steady, vs[1:-1], zs[1:-1])
        assert np.isnan(check_steady_chain_consistency(steady, ts, vs, zs, drift))

    def test_chain_consistency_keeps_a_nan_split_feature(self):
        # the same through a `split` hook: a feature fill that writes NaN makes the drift,
        # and so the worst mismatch, NaN
        model = demo_plant([[-1, 1, 0.5, 2, 0.3, 0.3]])

        def nan_split(W):
            J, features = model.split(W)

            def bind(zx, v, out):
                fill = features.bind(zx, v, out)

                def nan_fill():
                    fill()
                    out[-1] = np.nan  # the x2 x1 feature of the level-2 drift
                return nan_fill
            return J, PlantFeatures(features.count, bind)

        nan_model = dataclasses.replace(model, split=nan_split)
        steady = steady_state_chain(nan_model, np.array([0.6]), self.exo(), zero_w(model))
        ts, vs = exo_trajectory(self.exo(), np.array([1.0, 0.2]), t_final=0.1, h=1e-3)
        zs = steady.z_star(vs)
        drift = steady_drift(steady, vs[1:-1], zs[1:-1])
        assert np.isnan(check_steady_chain_consistency(steady, ts, vs, zs, drift))

    @staticmethod
    def assert_stack_matches_samples(steady, levels, vs):
        """``x_star(s, V)`` and ``z_star(V)`` on a ``(K, n_v)`` stack against the per-sample
        calls, bit for bit."""
        rows = np.array([steady.z_star(v) for v in vs])
        assert steady.z_star(vs).tobytes() == rows.tobytes()
        assert steady.z_star(vs).shape == rows.shape
        for s in levels:
            rows = np.array([steady.x_star(s, v) for v in vs])
            stacked = steady.x_star(s, vs)
            assert stacked.shape == rows.shape
            assert stacked.tobytes() == rows.tobytes(), s

    def test_stacked_states_match_samples_poly(self, sec5):
        w = sample_uncertainty(sec5.w_box, 3)
        steady = steady_state_chain(sec5.plant, sec5.synthesized().p_star, sec5.exo, w)
        _, vs = exo_trajectory(sec5.exo, np.array([0.8, -0.4]), t_final=20.0, h=2e-3)
        self.assert_stack_matches_samples(steady, (1, 2, 3), vs)

    def test_stacked_states_match_samples_generic(self):
        model = build_plant(3)
        steady = steady_state_chain(model, np.array([0.1, -0.2, 0.3]), self.exo(),
                                    np.array([0.05, -0.02, 0.01]))
        _, vs = exo_trajectory(self.exo(), np.array([1.0, 0.2]), t_final=2.0, h=2e-3)
        self.assert_stack_matches_samples(steady, (1, 2), vs)


class TestExosystem:
    def test_norm_conserved_long_horizon(self):
        exo = Exosystem(S=ROTATION, v0_box=np.array([[1, 1], [0, 0]]))
        ts, vs = exo_trajectory(exo, np.array([1.0, 0.0]), t_final=100.0, h=1e-3)
        norms = np.linalg.norm(vs, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8

    def test_trajectory_matches_recorded_copies(self):
        # reference: the per-stage RK4 trajectory, one `rk4_step` per step, on the grid k h;
        # the step matrix R(hS) rounds differently
        exo = Exosystem(S=np.array([[0.0, 2.0], [-2.0, 0.1]]), v0_box=np.array([[1, 1], [0, 0]]))
        v0, t_final, h = np.array([0.7, -0.2]), 3.0, 2e-3
        n_steps = round(t_final / h)
        vs_ref = np.array(list(rk4_states(OdeSystem(2, lambda t, v: exo.S @ v), v0, h, n_steps)))
        ts, vs = exo_trajectory(exo, v0, t_final, h)
        assert ts.tobytes() == (np.arange(n_steps + 1) * h).tobytes()
        assert vs.shape == vs_ref.shape
        assert (np.abs(vs - vs_ref) <= 1e-12 * (1.0 + np.abs(vs_ref))).all()


class TestSampleUncertainty:
    def test_degenerate_box(self):
        box = np.array([[0.3, 0.3], [-1.0, -1.0]])
        assert np.allclose(sample_uncertainty(box, 5), [0.3, -1.0])

    def test_seed_determinism(self):
        box = np.array([[-1.0, 2.0]] * 5)
        assert np.array_equal(sample_uncertainty(box, 17), sample_uncertainty(box, 17))

    def test_uniform_mean(self):
        box = np.array([[0.0, 1.0]])
        rng = np.random.default_rng(0)
        vals = [sample_uncertainty(box, rng)[0] for _ in range(10_000)]
        assert abs(np.mean(vals) - 0.5) < 0.02

    def test_draw_stays_in_box(self):
        box = np.array([[0.0, 1.0], [-3.0, -2.5], [1e-3, 2e-3]])
        rng = np.random.default_rng(1)
        draws = np.array([sample_uncertainty(box, rng) for _ in range(1000)])
        assert draws.shape == (1000, 3)
        assert ((box[:, 0] <= draws) & (draws <= box[:, 1])).all()


def test_zero_dynamics_decay_with_pinned_output():
    # with the output pinned to a constant reference, the deviation from the
    # steady zero-dynamics map contracts at least at half the rate g1 while
    # the disturbance keeps evolving
    model = demo_plant([[-1.0, 1, 0.5, 2, 0.3, 0.3]])
    p = np.array([0.6])
    w = zero_w(model)

    def rhs(t, state):  # state = [z, v1, v2]
        z, v = state[:1], state[1:]
        dz = model.f0(z.reshape(1, 1), p, v, w).ravel()
        return np.concatenate([dz, ROTATION @ v])

    sys = OdeSystem(3, rhs)
    v0 = np.array([0.8, -0.3])
    z0 = model.steady_zero(p, v0, w)[0, 0] + 2.0
    state = np.concatenate([[z0], v0])
    zbar0 = 2.0
    for t_hi in np.linspace(0.5, 4.0, 8):
        *_, state = rk4_states(sys, state, 1e-3, 500)
        zbar = state[0] - model.steady_zero(p, state[1:], w)[0, 0]
        assert abs(zbar) <= zbar0 * np.exp(-1.0 * t_hi / 2.0) + 1e-12
