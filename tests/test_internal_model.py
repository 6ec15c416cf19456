from __future__ import annotations

import numpy as np
import pytest

from nesim.errors import InvalidSpectrum, SingularT
from nesim.internal_model import (_FD_STENCILS, _derivative_stack, companion_from_coeffs,
                                  default_stabilizer, im_rhs, solve_sylvester, StabilizerPair,
                                  synthesize_bank, sylvester_residual, verify_reproduction)
from nesim.numerics import OdeSystem, integrate
from nesim.plant import exo_trajectory
from nesim.simulation import assemble


class TestCompanion:
    def test_third_order_structure_and_roots(self):
        comp = companion_from_coeffs([0.0, -1.0, 0.0])
        assert np.allclose(comp.Phi, [[0, 1, 0], [0, 0, 1], [0, -1, 0]])
        assert np.allclose(comp.Gamma, [[1, 0, 0]])
        roots = np.sort_complex(np.linalg.eigvals(comp.Phi))
        assert np.allclose(sorted(roots.imag), [-1, 0, 1], atol=1e-9)
        assert np.abs(roots.real).max() < 1e-9

    def test_fifth_order_roots(self):
        comp = companion_from_coeffs([0.0, -4.0, 0.0, -5.0, 0.0])
        roots = np.linalg.eigvals(comp.Phi)
        assert np.allclose(sorted(roots.imag), [-2, -1, 0, 1, 2], atol=1e-9)
        assert np.abs(roots.real).max() < 1e-9

    def test_nonzero_real_part_rejected(self):
        with pytest.raises(InvalidSpectrum):
            companion_from_coeffs([1.0])

    def test_repeated_roots_rejected(self):
        # lambda^5 = -2 lambda^3 - lambda has a double pair at +-1j
        with pytest.raises(InvalidSpectrum):
            companion_from_coeffs([0.0, -1.0, 0.0, -2.0, 0.0])

    def test_observability_of_companion_pairs(self):
        for coeffs in ([0.0], [0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]):
            comp = companion_from_coeffs(coeffs)
            n = comp.order
            obs = np.vstack([comp.Gamma @ np.linalg.matrix_power(comp.Phi, k)
                             for k in range(n)])
            assert np.linalg.svd(obs, compute_uv=False)[-1] > 1e-8


class TestDefaultStabilizer:
    def test_demo_preset_order3(self):
        stab = default_stabilizer(3, preset="sec5")
        assert np.allclose(stab.M[-1], [-3, -7, -5])
        assert np.allclose(stab.N, [0, 0, 1])

    def test_order5_row(self):
        stab = default_stabilizer(5, preset="sec5")
        assert np.allclose(stab.M[-1], [-120, -274, -225, -85, -15])

    def test_scalar(self):
        stab = default_stabilizer(1)
        assert np.allclose(stab.M, [[-1.0]])
        assert np.allclose(stab.N, [1.0])

    def test_plain_default_order3(self):
        stab = default_stabilizer(3)
        # (lambda+1)(lambda+2)(lambda+3)
        assert np.allclose(stab.M[-1], [-6, -11, -6])

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerPair(M=np.array([[1.0]]), N=np.array([1.0]))  # not Hurwitz
        with pytest.raises(ValueError):
            StabilizerPair(M=-np.eye(2), N=np.array([0.0, 0.0]))  # not controllable


class TestSolveSylvester:
    def test_scalar_case(self):
        comp = companion_from_coeffs([0.0])
        T, psi = solve_sylvester(comp.Phi, comp.Gamma, np.array([[-1.0]]), np.array([1.0]))
        assert T[0, 0] == pytest.approx(1.0)
        assert psi[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("coeffs,expected_psi", [
        ([0.0, -1.0, 0.0], [3.0, 6.0, 5.0]),
        ([0.0, -4.0, 0.0, -5.0, 0.0], [120.0, 270.0, 225.0, 80.0, 15.0]),
    ])
    def test_demo_preset_readout_rows(self, coeffs, expected_psi):
        comp = companion_from_coeffs(coeffs)
        stab = default_stabilizer(comp.order, preset="sec5")
        T, psi = solve_sylvester(comp.Phi, comp.Gamma, stab.M, stab.N)
        assert np.abs(psi - np.array(expected_psi)).max() < 1e-8
        resid = np.linalg.norm(T @ comp.Phi - stab.M @ T
                               - np.outer(stab.N, comp.Gamma.ravel()))
        assert resid <= 1e-10

    def test_random_synthesis_identities(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            freqs = np.cumsum(rng.uniform(0.3, 2.0, size=n // 2))
            roots = [0.0] * (n % 2)
            for f in freqs:
                roots += [1j * f, -1j * f]
            poly = np.real(np.poly(roots))
            comp = companion_from_coeffs(-poly[1:][::-1])
            stable = -np.cumsum(rng.uniform(0.5, 2.0, size=n))
            mpoly = np.poly(stable)
            M = np.zeros((n, n))
            if n > 1:
                M[:-1, 1:] = np.eye(n - 1)
            M[-1, :] = -mpoly[1:][::-1]
            stab = StabilizerPair(M=M, N=np.eye(n)[-1])
            T, psi = solve_sylvester(comp.Phi, comp.Gamma, stab.M, stab.N)
            rhs = np.outer(stab.N, comp.Gamma.ravel())
            resid = np.linalg.norm(T @ comp.Phi - stab.M @ T - rhs)
            assert resid <= 1e-10 * (1 + np.linalg.norm(rhs))
            assert np.abs(psi @ T - comp.Gamma.ravel()).max() <= 1e-10

    def test_uncontrollable_pair_raises_singular_t(self):
        # N drives only the first mode of diag(-1, -2), so the second row of T is zero
        comp = companion_from_coeffs([-1.0, 0.0])
        with pytest.raises(SingularT):
            solve_sylvester(comp.Phi, comp.Gamma, np.diag([-1.0, -2.0]), np.array([1.0, 0.0]))


class TestBank:
    def test_synthesis_is_scenario_independent(self):
        polys = [[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]]
        a = synthesize_bank(polys, 4, preset="sec5")
        b = synthesize_bank(polys, 4, preset="sec5")
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.Psi, lb.Psi)
            assert np.array_equal(la.T, lb.T)

    def test_residuals_all_entries(self):
        bank = synthesize_bank([[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]], 4,
                               preset="sec5")
        for level in bank.levels:
            for i in range(4):
                assert sylvester_residual(level, i) <= 1e-10


class TestImRhs:
    def test_zero(self):
        stab = default_stabilizer(3)
        assert np.abs(im_rhs(stab, np.zeros(3), 0.0)).max() == 0.0

    def test_scalar_value(self):
        stab = StabilizerPair(M=np.array([[-1.0]]), N=np.array([1.0]))
        assert im_rhs(stab, np.array([2.0]), 5.0)[0] == pytest.approx(3.0)

    def test_affine_in_drive(self):
        stab = default_stabilizer(3)
        eta = np.array([0.4, -1.0, 2.0])
        a, b = 1.3, -0.7
        lhs = im_rhs(stab, eta, a + b)
        rhs = im_rhs(stab, eta, a) + stab.N * b
        assert np.abs(lhs - rhs).max() < 1e-14


class TestVerifyReproduction:
    COEFFS = [0.0, -1.0, 0.0]  # modes {0, +-1i}, sec5's first level

    @staticmethod
    def level(coeffs, stabs):
        """The synthesized level of one recurrence, one agent per stabilizer pair."""
        return synthesize_bank([coeffs], len(stabs), stabilizers=[[st] for st in stabs]).levels[0]

    def setup_level1(self):
        return self.level(self.COEFFS, [default_stabilizer(3, preset="sec5")])

    def test_zero_signal(self):
        ts = np.arange(0, 1.0, 1e-3)
        errs = verify_reproduction(self.setup_level1(), ts, np.zeros((len(ts), 1)))
        assert errs.shape == (1,) and errs[0] == 0.0

    def test_matched_modes_reproduce(self):
        ts = np.arange(0, 20.0, 1e-3)
        signal = 0.8 + 0.5 * np.cos(ts) - 1.2 * np.sin(ts)
        assert verify_reproduction(self.setup_level1(), ts, signal[:, None])[0] < 1e-5

    def test_mismatched_frequency_fails(self):
        ts = np.arange(0, 20.0, 1e-3)
        signal = np.sin(1.7 * ts)
        assert verify_reproduction(self.setup_level1(), ts, signal[:, None])[0] > 1e-2

    @staticmethod
    def one_signal_loop(comp, stab, psi, ts, values):
        """Reference: one compensator stepped alone, ``A @ theta`` per stage, ``psi @ theta``
        per sample, with ``A`` the transposed solve ``T^T A^T = (T Phi)^T``."""
        n, h = comp.order, ts[1] - ts[0]
        T, _ = solve_sylvester(comp.Phi, comp.Gamma, stab.M, stab.N)
        j0 = max(_FD_STENCILS[k][0][-1] for k in range(n))
        A = np.linalg.solve(T.T, (T @ comp.Phi).T).T
        worst = 0.0

        def observer(step, t, theta):
            nonlocal worst
            worst = max(worst, abs(float(psi @ theta) - values[j0 + step]))

        theta0 = T @ _derivative_stack(values, h, n, j0)
        integrate(OdeSystem(n, lambda t, theta: A @ theta), theta0, ts[j0], ts[-1], h, observer)
        return worst

    def test_batch_of_sec5_agents_equals_one_column_calls(self, sec5):
        # each level's steady-state signals of sec5's four agents, as `nesim check` builds them
        loop = assemble(sec5)
        bank = sec5.synthesized().bank
        ts, vs = exo_trajectory(sec5.exo, np.array([0.8, -0.4]), t_final=6.0, h=2e-3)
        for s, level in enumerate(bank.levels):
            signal = loop.steady.x_star(s + 2, vs)
            batch = verify_reproduction(level, ts, signal)
            assert batch.shape == (sec5.n,)
            for i in range(sec5.n):
                stab = StabilizerPair(level.M[i], level.N[i])
                one = verify_reproduction(self.level(level.companion.coeffs, [stab]), ts,
                                          signal[:, i:i + 1])
                assert batch[i] == one[0]
                assert one[0] == self.one_signal_loop(level.companion, stab, level.Psi[i], ts,
                                                      signal[:, i])

    def test_columns_of_a_batch_never_mix(self):
        # columns with different stabilizers, and so different conjugated dynamics
        stabs = [default_stabilizer(3, preset="sec5"), default_stabilizer(3),
                 default_stabilizer(3, preset="sec5")]
        ts = np.arange(0, 10.0, 1e-3)
        matched = 0.8 + 0.5 * np.cos(ts) - 1.2 * np.sin(ts)
        signals = np.stack([matched, np.sin(1.7 * ts), -0.3 + np.sin(ts)], axis=1)
        errs = verify_reproduction(self.level(self.COEFFS, stabs), ts, signals)
        assert errs[1] > 1e-2
        assert errs[0] < 1e-5 and errs[2] < 1e-5
        for b in range(3):
            one = verify_reproduction(self.level(self.COEFFS, stabs[b:b + 1]), ts,
                                      signals[:, b:b + 1])
            assert errs[b] == one[0]

    def test_batch_needs_one_stabilizer_per_signal(self):
        level = self.level(self.COEFFS, [default_stabilizer(3, preset="sec5")] * 2)
        ts = np.arange(0, 1.0, 1e-3)
        for values in (np.zeros((len(ts), 3)), np.zeros(len(ts))):
            with pytest.raises(ValueError, match="stabilizer pair"):
                verify_reproduction(level, ts, values)
