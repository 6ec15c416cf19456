from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.controller import (ControllerGains, backstepping_feedback, control_law,
                              escalate_gains, psi_readouts, transform)
from nesim.errors import EscalationExhausted
from nesim.internal_model import synthesize_bank
from nesim.numerics import rk4_step
from nesim.plant import PlantState
from nesim.simulation import EscalationSpec


@pytest.fixture(scope="module")
def bank():
    return synthesize_bank([[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]], 4,
                           preset="sec5")


def random_inputs(bank, rng, n=4):
    state = PlantState(z=rng.normal(size=(n, 1)), x=rng.normal(size=(2, n)))
    eta = [rng.normal(size=(n, level.order)) for level in bank.levels]
    p = rng.normal(size=n)
    return state, eta, p


class TestControlLaw:
    def test_zero_state_zero_input(self, bank):
        state = PlantState(z=np.zeros((4, 1)), x=np.zeros((2, 4)))
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = control_law(ControllerGains.uniform(4, 2, 1.0), bank, state, eta, np.zeros(4))
        assert np.abs(u).max() == 0.0

    def test_unit_chain_deviation(self, bank):
        gains = ControllerGains.uniform(4, 2, 1.0)
        state = PlantState(z=np.zeros((4, 1)),
                           x=np.vstack([np.array([1.0, 0, 0, 0]), np.zeros(4)]))
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = control_law(gains, bank, state, eta, np.zeros(4))
        assert u[0] == pytest.approx(-1.0)
        assert np.abs(u[1:]).max() == 0.0

    def test_gain_product_structure(self, bank):
        gains = ControllerGains(np.tile([2.0, 3.0], (4, 1)))
        state = PlantState(z=np.zeros((4, 1)),
                           x=np.vstack([np.ones(4), np.zeros(4)]))
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = control_law(gains, bank, state, eta, np.zeros(4))
        assert np.allclose(u, -6.0)  # minus the product of all level gains

    def test_linearity(self, bank):
        gains = ControllerGains(np.tile([1.7, 0.9], (4, 1)))
        rng = np.random.default_rng(4)
        sa, ea_, pa = random_inputs(bank, rng)
        sb, eb_, pb = random_inputs(bank, rng)
        alpha, beta = 0.6, -1.4
        mixed = PlantState(z=alpha * sa.z + beta * sb.z, x=alpha * sa.x + beta * sb.x)
        eta = [alpha * a + beta * b for a, b in zip(ea_, eb_)]
        lhs = control_law(gains, bank, mixed, eta, alpha * pa + beta * pb)
        rhs = (alpha * control_law(gains, bank, sa, ea_, pa)
               + beta * control_law(gains, bank, sb, eb_, pb))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_ablation_zeroes_readouts(self, bank):
        gains = ControllerGains.uniform(4, 2, 2.0)
        rng = np.random.default_rng(6)
        state, eta, p = random_inputs(bank, rng)
        u = control_law(gains, bank, state, eta, p, ablate=True)
        expected = -gains.k[:, 1] * state.x[1] - gains.k[:, 1] * gains.k[:, 0] * (state.x[0] - p)
        assert np.abs(u - expected).max() < 1e-13


class TestTransform:
    def test_manifold_point_maps_to_zero(self, bank, sec5_loop):
        steady = sec5_loop.steady
        v0 = np.array([1.0, -0.2])
        rng = np.random.default_rng(7)
        theta = [rng.normal(size=(4, level.order)) for level in bank.levels]
        p = sec5_loop.p_star
        x = np.empty((2, 4))
        x[0] = p
        eta = [theta[0].copy(), theta[1].copy()]
        x[1] = psi_readouts(bank, eta)[0]
        state = PlantState(z=steady.z_star(v0), x=x)
        out = transform(state, eta, bank, steady, theta, p, v0)
        assert out.max_abs() < 1e-12

    def test_compensator_shift_passes_through(self, bank, sec5_loop):
        rng = np.random.default_rng(8)
        state, eta, p = random_inputs(bank, rng)
        theta = [rng.normal(size=(4, level.order)) for level in bank.levels]
        v0 = np.array([0.4, 0.1])
        base = transform(state, eta, bank, sec5_loop.steady, theta, p, v0)
        delta = rng.normal(size=eta[1].shape)
        shifted = [eta[0], eta[1] + delta]
        # shifting the top-level compensator shifts nothing else except its
        # own error coordinate (the top read-out feeds only the input)
        out = transform(state, shifted, bank, sec5_loop.steady, theta, p, v0)
        assert np.abs((out.eta_tilde[1] - base.eta_tilde[1]) - delta).max() < 1e-12
        assert np.abs(out.eta_tilde[0] - base.eta_tilde[0]).max() == 0.0

    def test_direct_law_matches_backstepping_recursion(self, bank):
        # the deployed control law evaluated on raw states must equal the
        # recursive fold evaluated on transformed states, once the top
        # read-out feedforward is removed
        rng = np.random.default_rng(9)
        gains = ControllerGains(rng.uniform(0.5, 5.0, size=(4, 2)))
        for _ in range(100):
            state, eta, p = random_inputs(bank, rng)
            reads = psi_readouts(bank, eta)
            u = control_law(gains, bank, state, eta, p)
            x_bar = np.vstack([state.x[0] - p, state.x[1] - reads[0]])
            expected = backstepping_feedback(gains, x_bar)
            assert np.abs((u - reads[1]) - expected).max() < 1e-12


class TestManifoldInvariance:
    def test_transformed_coordinates_stay_zero(self, sec5, sec5_loop):
        v0 = np.array([1.1, 0.25])
        state = sec5_loop.manifold_state(v0)
        h = 1e-3
        t = 0.0
        worst = 0.0
        for _ in range(10):
            state = rk4_step(sec5_loop, t, state, h)
            t += h
            P, v, z, x, eta = sec5_loop.unpack(state)
            theta = sec5_loop.ideal_compensators(v)
            out = transform(PlantState(z=z, x=x), eta, sec5_loop.bank,
                            sec5_loop.steady, theta, P.diagonal(), v)
            worst = max(worst, out.max_abs())
        assert worst < 1e-6

    def test_generator_block_derivative_zero(self, sec5_loop):
        v0 = np.array([0.9, -0.1])
        state = sec5_loop.manifold_state(v0)
        deriv = sec5_loop.rhs(0.0, state)
        n = sec5_loop.layout.n_agents
        assert np.abs(deriv[:n * n]).max() < 1e-9


class TestEscalation:
    class Probe:
        def __init__(self, pass_at):
            self.pass_at = pass_at
            self.calls = []

        def __call__(self, scenario, gains, gamma1):
            self.calls.append((gains.k.copy(), gamma1))
            return len(self.calls) >= self.pass_at

    @staticmethod
    def rounds(scenario, max_rounds):
        """The scenario with escalation by doubling for at most ``max_rounds`` rounds."""
        return dataclasses.replace(scenario, escalation=EscalationSpec(2.0, max_rounds))

    def test_passing_scenario_keeps_initial_gains(self, sec5):
        probe = self.Probe(pass_at=1)
        start = ControllerGains.uniform(4, 2, 4.0)
        result = escalate_gains(self.rounds(sec5, 5), start, run_fn=probe)
        assert result.rounds == 1 and result.multiplier == 1.0
        assert np.array_equal(result.gains.k, start.k)
        assert result.gamma1 == sec5.gains.gamma1

    def test_single_doubling(self, sec5):
        probe = self.Probe(pass_at=2)
        start = ControllerGains.uniform(4, 2, 4.0)
        result = escalate_gains(self.rounds(sec5, 5), start, run_fn=probe)
        assert result.rounds == 2
        assert np.array_equal(result.gains.k, start.k * 2.0)
        assert result.gamma1 == sec5.gains.gamma1 * 2.0

    def test_exhaustion(self, sec5):
        probe = self.Probe(pass_at=99)
        with pytest.raises(EscalationExhausted):
            escalate_gains(self.rounds(sec5, 3), ControllerGains.uniform(4, 2, 4.0),
                           run_fn=probe)
        assert len(probe.calls) == 3

    def test_overflowing_gains_end_the_search(self, sec5):
        # round 3's multiplier, 1e400, overflows; no later round could pass either
        probe = self.Probe(pass_at=99)
        scenario = dataclasses.replace(sec5, escalation=EscalationSpec(1e200, 12))
        with pytest.raises(EscalationExhausted, match="overflow at round 3"):
            escalate_gains(scenario, ControllerGains.uniform(4, 2, 4.0), run_fn=probe)
        assert len(probe.calls) == 2

    def test_factor_validation(self):
        # the spec is checked once, where the scenario is built
        for factor, max_rounds in [(1.0, 2), (np.nan, 2), (np.inf, 2), (2.0, 0)]:
            with pytest.raises(ValueError):
                EscalationSpec(factor=factor, max_rounds=max_rounds)
