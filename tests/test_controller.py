from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.controller import (ControllerGains, control_rows, escalate_gains, psi_readouts,
                              transform)
from nesim.errors import EscalationExhausted
from nesim.game import estimate_constants, solve_ne
from nesim.generator import GeneratorGains
from nesim.internal_model import synthesize_bank
from nesim.numerics import rk4_step
from nesim.simulation import EscalationSpec, run, start_gains, write_csv
from oracles import backstepping_feedback, unpack


@pytest.fixture(scope="module")
def bank():
    return synthesize_bank([[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]], 4,
                           preset="sec5")


def random_inputs(bank, rng, n=4):
    """``(z, x, eta, p)``: a zero-dynamics state, a chain, compensators and references."""
    z, x = rng.normal(size=(n, 1)), rng.normal(size=(2, n))
    eta = [rng.normal(size=(n, level.order)) for level in bank.levels]
    p = rng.normal(size=n)
    return z, x, eta, p


def law(gains, bank, x, eta, p, ablate=False):
    """``u``: `control_rows` applied to ``[p; x; eta]``."""
    lifted = np.concatenate([p, np.ravel(x)] + [np.ravel(e) for e in eta])
    return control_rows(gains, bank, ablate) @ lifted


class TestControlLaw:
    def test_zero_state_zero_input(self, bank):
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = law(ControllerGains.uniform(4, 2, 1.0), bank, np.zeros((2, 4)), eta, np.zeros(4))
        assert np.abs(u).max() == 0.0

    def test_unit_chain_deviation(self, bank):
        gains = ControllerGains.uniform(4, 2, 1.0)
        x = np.vstack([np.array([1.0, 0, 0, 0]), np.zeros(4)])
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = law(gains, bank, x, eta, np.zeros(4))
        assert u[0] == pytest.approx(-1.0)
        assert np.abs(u[1:]).max() == 0.0

    def test_gain_product_structure(self, bank):
        gains = ControllerGains(np.tile([2.0, 3.0], (4, 1)))
        x = np.vstack([np.ones(4), np.zeros(4)])
        eta = [np.zeros((4, level.order)) for level in bank.levels]
        u = law(gains, bank, x, eta, np.zeros(4))
        assert np.allclose(u, -6.0)  # minus the product of all level gains

    def test_linearity(self, bank):
        gains = ControllerGains(np.tile([1.7, 0.9], (4, 1)))
        rng = np.random.default_rng(4)
        _, xa, ea_, pa = random_inputs(bank, rng)
        _, xb, eb_, pb = random_inputs(bank, rng)
        alpha, beta = 0.6, -1.4
        eta = [alpha * a + beta * b for a, b in zip(ea_, eb_)]
        lhs = law(gains, bank, alpha * xa + beta * xb, eta, alpha * pa + beta * pb)
        rhs = alpha * law(gains, bank, xa, ea_, pa) + beta * law(gains, bank, xb, eb_, pb)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_ablation_zeroes_readouts(self, bank):
        gains = ControllerGains.uniform(4, 2, 2.0)
        rng = np.random.default_rng(6)
        _, x, eta, p = random_inputs(bank, rng)
        u = law(gains, bank, x, eta, p, ablate=True)
        expected = -gains.k[:, 1] * x[1] - gains.k[:, 1] * gains.k[:, 0] * (x[0] - p)
        assert np.abs(u - expected).max() < 1e-13


class TestTransform:
    def test_manifold_point_maps_to_zero(self, bank, sec5_steady):
        steady = sec5_steady
        v0 = np.array([1.0, -0.2])
        rng = np.random.default_rng(7)
        theta = [rng.normal(size=(4, level.order)) for level in bank.levels]
        p = steady.p_star
        x = np.empty((2, 4))
        x[0] = p
        eta = [theta[0].copy(), theta[1].copy()]
        x[1] = psi_readouts(bank, eta)[0]
        out = transform(steady.z_star(v0), x, eta, bank, steady, theta, p, v0)
        assert out.max_abs() < 1e-12

    def test_compensator_shift_passes_through(self, bank, sec5_steady):
        rng = np.random.default_rng(8)
        z, x, eta, p = random_inputs(bank, rng)
        theta = [rng.normal(size=(4, level.order)) for level in bank.levels]
        v0 = np.array([0.4, 0.1])
        base = transform(z, x, eta, bank, sec5_steady, theta, p, v0)
        delta = rng.normal(size=eta[1].shape)
        shifted = [eta[0], eta[1] + delta]
        # shifting the top-level compensator shifts nothing else except its
        # own error coordinate (the top read-out feeds only the input)
        out = transform(z, x, shifted, bank, sec5_steady, theta, p, v0)
        assert np.abs((out.eta_tilde[1] - base.eta_tilde[1]) - delta).max() < 1e-12
        assert np.abs(out.eta_tilde[0] - base.eta_tilde[0]).max() == 0.0

    def test_direct_law_matches_backstepping_recursion(self, bank):
        # the deployed control law evaluated on raw states must equal the
        # recursive fold evaluated on transformed states, once the top
        # read-out feedforward is removed
        rng = np.random.default_rng(9)
        gains = ControllerGains(rng.uniform(0.5, 5.0, size=(4, 2)))
        for _ in range(100):
            _, x, eta, p = random_inputs(bank, rng)
            reads = psi_readouts(bank, eta)
            u = law(gains, bank, x, eta, p)
            x_bar = np.vstack([x[0] - p, x[1] - reads[0]])
            expected = backstepping_feedback(gains, x_bar)
            assert np.abs((u - reads[1]) - expected).max() < 1e-12


def chain_bank(r: int, n: int = 3):
    """A bank with one order-3 compensator per level of a relative-degree-``r`` chain."""
    return synthesize_bank([[0.0, -1.0, 0.0]] * r, n)


def chain_polynomial(gains: ControllerGains, bank) -> np.ndarray:
    """Agent 0's chain polynomial, highest power first, read off `control_rows`.

    With no read-outs, ``x_1^(r) = u = sum_s U_s x_s``, so the polynomial is
    ``s^r - U_r s^(r-1) - ... - U_1``.
    """
    n, r = gains.k.shape
    U = control_rows(gains, bank, ablate=True)
    return np.concatenate([[1.0], -U[0, n * np.arange(r, 0, -1)]])


class TestStartGains:
    """The auto start gains make the chain polynomial Hurwitz at every relative degree."""

    @pytest.mark.parametrize("r", [3, 4])
    def test_uniform_gains_put_roots_on_the_circle(self, r):
        # (s^(r+1) - k^(r+1)) / (s - k): the (r+1)-th roots of k^(r+1) but k itself, so
        # -k and +-ik at r = 3, and two roots in the right half-plane at r = 4
        k = 4.0
        roots = np.roots(chain_polynomial(ControllerGains.uniform(3, r, k), chain_bank(r)))
        want = k * np.exp(2j * np.pi * np.arange(1, r + 1) / (r + 1))
        assert np.abs(np.sort_complex(roots) - np.sort_complex(want)).max() < 1e-9 * k
        assert (roots.real > 1e-9 * k).sum() == {3: 0, 4: 2}[r]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_start_gains_are_hurwitz(self, r):
        k = start_gains(r)
        poly = chain_polynomial(ControllerGains(np.tile(k, (3, 1))), chain_bank(r))
        assert (np.roots(poly).real < 0).all()
        if r <= 2:
            assert k.tolist() == [4.0] * r  # the gains every r <= 2 output was made with
        else:
            assert np.allclose(poly, np.poly([-4.0] * r), rtol=1e-13, atol=0)  # (s + 4)^r
        if r == 3:
            assert np.allclose(k, [4 / 3, 4, 12], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("r", [3, 4])
    def test_control_rows_match_backstepping_recursion(self, r):
        # the rows on raw states equal the recursive fold on transformed states, once the
        # top read-out feedforward is removed
        n, bank = 3, chain_bank(r)
        rng = np.random.default_rng(10 + r)
        gains = ControllerGains(rng.uniform(0.5, 5.0, size=(n, r)))
        U = control_rows(gains, bank)
        for _ in range(50):
            p, x = rng.normal(size=n), rng.normal(size=(r, n))
            eta = [rng.normal(size=(n, level.order)) for level in bank.levels]
            u = U @ np.concatenate([p, x.ravel()] + [e.ravel() for e in eta])
            reads = psi_readouts(bank, eta)
            x_bar = x - np.vstack([p] + reads[:-1])
            expected = backstepping_feedback(gains, x_bar)
            assert np.abs((u - reads[-1]) - expected).max() < 1e-12 * (1 + np.abs(expected).max())


class TestManifoldInvariance:
    def test_transformed_coordinates_stay_zero(self, sec5, sec5_loop, sec5_steady):
        v0 = np.array([1.1, 0.25])
        state = sec5_loop.manifold_state(v0)
        h = 1e-3
        t = 0.0
        worst = 0.0
        for _ in range(10):
            state = rk4_step(sec5_loop, t, state, h)
            t += h
            P, v, z, x, eta = unpack(sec5_loop, state)
            theta = sec5_loop.ideal_compensators(v)
            out = transform(z, x, eta, sec5.synthesized().bank, sec5_steady, theta,
                            P.diagonal(), v)
            worst = max(worst, out.max_abs())
        assert worst < 1e-6

    def test_generator_block_derivative_zero(self, sec5_loop):
        v0 = np.array([0.9, -0.1])
        state = sec5_loop.manifold_state(v0)
        deriv = sec5_loop.rhs(0.0, state)
        n = sec5_loop.scenario.n
        assert np.abs(deriv[:n * n]).max() < 1e-9


class TestEscalation:
    class Probe:
        """Stands in for the closed-loop run: passes from round ``pass_at`` on."""

        def __init__(self, pass_at):
            self.pass_at = pass_at
            self.calls = []
            self.passing = object()  # the passing run it returns

        def __call__(self, scenario):
            self.calls.append((scenario.controller_k.copy(), scenario.gains.gamma1))
            return self.passing if len(self.calls) >= self.pass_at else None

    @staticmethod
    def rounds(scenario, max_rounds):
        """The scenario with escalation by doubling for at most ``max_rounds`` rounds."""
        return dataclasses.replace(scenario, escalation=EscalationSpec(2.0, max_rounds))

    def test_passing_scenario_keeps_initial_gains(self, sec5):
        probe = self.Probe(pass_at=1)
        start = ControllerGains.uniform(4, 2, 4.0)
        result = escalate_gains(self.rounds(sec5, 5), run_fn=probe)
        assert result.rounds == 1 and result.multiplier == 1.0
        assert np.array_equal(result.scenario.controller_k, start.k)
        assert result.scenario.gains.gamma1 == sec5.gains.gamma1
        assert result.trajectory is probe.passing

    def test_single_doubling(self, sec5):
        probe = self.Probe(pass_at=2)
        start = ControllerGains.uniform(4, 2, 4.0)
        result = escalate_gains(self.rounds(sec5, 5), run_fn=probe)
        assert result.rounds == 2
        assert np.array_equal(result.scenario.controller_k, start.k * 2.0)
        assert result.scenario.gains.gamma1 == sec5.gains.gamma1 * 2.0

    def test_configured_gains_are_the_start(self, stable):
        # escalation starts from the scenario's own gains when it configures them
        probe = self.Probe(pass_at=3)
        result = escalate_gains(self.rounds(stable, 5), run_fn=probe)
        assert [k.max() for k, _ in probe.calls] == [16.0, 32.0, 64.0]
        assert np.array_equal(result.scenario.controller_k, np.full((4, 2), 64.0))

    def test_exhaustion(self, sec5):
        probe = self.Probe(pass_at=99)
        with pytest.raises(EscalationExhausted):
            escalate_gains(self.rounds(sec5, 3), run_fn=probe)
        assert len(probe.calls) == 3

    def test_overflowing_gains_end_the_search(self, sec5):
        # round 3's multiplier, 1e400, overflows; no later round could pass either
        probe = self.Probe(pass_at=99)
        scenario = dataclasses.replace(sec5, escalation=EscalationSpec(1e200, 12))
        with pytest.raises(EscalationExhausted, match="overflow at round 3"):
            escalate_gains(scenario, run_fn=probe)
        assert len(probe.calls) == 2

    def test_overflowing_gradient_gain_ends_the_search(self, sec5):
        # round 2's gamma1, 1e310, overflows while its backstepping gains, 4e10, do not
        probe = self.Probe(pass_at=99)
        scenario = dataclasses.replace(sec5, gains=GeneratorGains(1e300, sec5.gains.gamma2),
                                       escalation=EscalationSpec(1e10, 12))
        with pytest.raises(EscalationExhausted, match="overflow at round 2"):
            escalate_gains(scenario, run_fn=probe)
        assert len(probe.calls) == 1

    def test_rounds_are_scenarios_that_keep_the_synthesis(self, custom_scenario, count_calls,
                                                           tmp_path):
        # the finite-difference game with k = "auto": at a 1 s horizon it escalates
        scenario = dataclasses.replace(custom_scenario, controller_k=None, t_final=1.0)
        calls = [count_calls(fn) for fn in (estimate_constants, solve_ne, synthesize_bank)]
        result = escalate_gains(scenario)
        assert calls == [[], [], []]
        assert result.rounds > 1 and result.multiplier == 2.0 ** (result.rounds - 1)
        assert result.scenario.synthesis is scenario.synthesis
        mult = result.multiplier
        assert np.array_equal(result.scenario.controller_k,
                              ControllerGains.uniform(3, 1, 4.0).scaled(mult).k)
        assert result.scenario.gains.gamma1 == scenario.gains.gamma1 * mult
        rerun, passing = tmp_path / "rerun.csv", tmp_path / "passing.csv"
        write_csv(run(result.scenario), rerun)
        write_csv(result.trajectory, passing)
        assert rerun.read_bytes() == passing.read_bytes()

    def test_factor_validation(self):
        # the spec is checked once, where the scenario is built
        for factor, max_rounds in [(1.0, 2), (np.nan, 2), (np.inf, 2), (2.0, 0)]:
            with pytest.raises(ValueError):
                EscalationSpec(factor=factor, max_rounds=max_rounds)
