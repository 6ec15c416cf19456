from __future__ import annotations

import numpy as np
import pytest

from nesim.errors import InvalidSpectrum, SingularT
from nesim.internal_model import (_FD_STENCILS, _derivative_stack, companion_from_coeffs,
                                  default_stabilizer, solve_sylvester, StabilizerPair,
                                  synthesize_bank, sylvester_residual, verify_reproduction)
from nesim.numerics import OdeSystem, integrate
from nesim.plant import exo_trajectory, sample_uncertainty, steady_state_chain


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

    @pytest.mark.parametrize("case", ["sec5", "explicit_two_pairs"])
    def test_one_solve_per_distinct_pair_gives_the_per_agent_bits(self, case, count_calls):
        # four agents: sec5's shared default pair on each level, or two distinct explicit
        # pairs, equal in value but built apart, alternating over the agents
        polys = [[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]]
        if case == "sec5":
            pairs = [[default_stabilizer(n, preset="sec5") for n in (3, 5)]] * 4
            kwargs = dict(preset="sec5")
        else:
            twos = [(default_stabilizer(n), default_stabilizer(n, preset="sec5")) if n == 3
                    else (default_stabilizer(n), StabilizerPair(M=-np.eye(n) + np.eye(n, k=1),
                                                                N=np.eye(n)[-1]))
                    for n in (3, 5)]
            pairs = [[StabilizerPair(M=two[i % 2].M.copy(), N=two[i % 2].N.copy())
                      for two in twos] for i in range(4)]
            kwargs = dict(stabilizers=pairs)
        calls = count_calls(solve_sylvester)
        bank = synthesize_bank(polys, 4, **kwargs)
        assert len(calls) == (2 if case == "sec5" else 4)  # one per distinct pair and level
        for s, level in enumerate(bank.levels):
            comp = level.companion
            for i in range(4):
                T, psi = solve_sylvester(comp.Phi, comp.Gamma, pairs[i][s].M, pairs[i][s].N)
                assert level.M[i].tobytes() == pairs[i][s].M.tobytes()
                assert level.N[i].tobytes() == pairs[i][s].N.tobytes()
                assert level.T[i].tobytes() == T.tobytes()
                assert level.Psi[i].tobytes() == psi.tobytes()

    def test_residuals_all_entries(self):
        bank = synthesize_bank([[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]], 4,
                               preset="sec5")
        for level in bank.levels:
            for i in range(4):
                assert sylvester_residual(level, i) <= 1e-10


class TestCompensatorRows:
    # one recurrence of each order 1 to 5, every mode on the imaginary axis
    ORDERS = ([0.0], [-1.0, 0.0], [0.0, -1.0, 0.0], [-4.0, 0.0, -5.0, 0.0],
              [0.0, -4.0, 0.0, -5.0, 0.0])

    @pytest.mark.parametrize("case", ["sec5", "default_orders_1_to_5"])
    def test_rows_follow_the_sylvester_closed_form(self, case, sec5):
        # T Phi = M T + N Gamma: each compensator at eta = T xi, driven by Gamma xi,
        # moves at T Phi xi, and Psi T = Gamma reads Gamma xi out
        bank = (sec5.synthesized().bank if case == "sec5"
                else synthesize_bank(self.ORDERS, 3))
        M, N, Psi, owner = bank.rows
        rng = np.random.default_rng(14)
        for _ in range(20):
            eta, want, drive = [], [], []
            for level in bank.levels:
                for T in level.T:
                    xi = rng.normal(size=level.order)
                    eta.append(T @ xi)
                    want.append(T @ level.companion.Phi @ xi)
                    drive.append(level.companion.Gamma[0] @ xi)
            eta, want, drive = np.concatenate(eta), np.concatenate(want), np.array(drive)
            assert np.abs(M @ eta + N * drive[owner] - want).max() <= 1e-10
            assert np.abs(Psi @ eta - drive).max() <= 1e-10


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

        def observer(k, t, thetas):
            nonlocal worst
            for step, theta in enumerate(thetas, start=k):
                worst = max(worst, abs(float(psi @ theta) - values[j0 + step]))

        theta0 = T @ _derivative_stack(values, h, n, j0)
        integrate(OdeSystem(n, lambda t, theta: A @ theta), theta0, ts[j0], ts[-1], h, observer)
        return worst

    def test_batch_of_sec5_agents_equals_one_column_calls(self, sec5):
        # each level's steady-state signals of sec5's four agents, as `nesim check` builds them
        synthesis = sec5.synthesized()
        steady = steady_state_chain(sec5.plant, synthesis.p_star, sec5.exo,
                                    sample_uncertainty(sec5.w_box, sec5.seed))
        ts, vs = exo_trajectory(sec5.exo, np.array([0.8, -0.4]), t_final=6.0, h=2e-3)
        for s, level in enumerate(synthesis.bank.levels):
            signal = steady.x_star(s + 2, vs)
            batch = verify_reproduction(level, ts, signal)
            assert batch.shape == (sec5.n,)
            for i in range(sec5.n):
                stab = StabilizerPair(level.M[i], level.N[i])
                one = verify_reproduction(self.level(level.companion.coeffs, [stab]), ts,
                                          signal[:, i:i + 1])
                assert batch[i] == one[0]
                # the per-stage oracle rounds differently from the step matrix R(hA)
                ref = self.one_signal_loop(level.companion, stab, level.Psi[i], ts, signal[:, i])
                assert abs(one[0] - ref) <= 1e-12 * (1.0 + np.abs(signal[:, i]).max())

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
