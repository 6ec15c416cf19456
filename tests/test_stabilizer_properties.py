"""The internal-model synthesis on drawn stabilizer pairs (hypothesis).

`strategies.stabilizer_pairs` draws a Hurwitz, controllable pair of each
order from 1 to 5: distinct real roots in [-5, -0.5], at least 0.25 apart,
in companion form with ``N = e_n``, optionally conjugated by a similarity
of condition number at most 9. Each drawn pair meets a recurrence of its
order: sec5's two levels and the test factories' ``[-1, 0]``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")  # in the `test` extra
from hypothesis import given, settings, strategies as st

from nesim.internal_model import companion_from_coeffs, solve_sylvester, synthesize_bank
from strategies import stabilizer_pairs

# sec5's (`plant.example_plant`), orders 3 and 5
SEC5_LEVELS = (np.array([0.0, -1.0, 0.0]), np.array([0.0, -4.0, 0.0, -5.0, 0.0]))
RECURRENCES = {"sec5_level1": SEC5_LEVELS[0], "sec5_level2": SEC5_LEVELS[1],
               "factories": np.array([-1.0, 0.0])}


@pytest.mark.parametrize("order", range(1, 6))
@settings(max_examples=20)
@given(data=st.data())
def test_drawn_pairs_have_their_stated_roots(order, data):
    pair = data.draw(stabilizer_pairs(order))
    roots = np.linalg.eigvals(pair.M)
    assert np.abs(roots.imag).max() <= 1e-6
    roots = np.sort(roots.real)
    assert -5.0 - 1e-6 <= roots[0] and roots[-1] <= -0.5 + 1e-6
    assert np.all(np.diff(roots) >= 0.25 - 1e-6)


@pytest.mark.parametrize("name", RECURRENCES)
@settings(max_examples=60)
@given(data=st.data())
def test_sylvester_solution_of_a_drawn_pair_is_exact(name, data):
    comp = companion_from_coeffs(RECURRENCES[name])
    pair = data.draw(stabilizer_pairs(comp.order))
    T, psi = solve_sylvester(comp.Phi, comp.Gamma, pair.M, pair.N)
    drive = np.outer(pair.N, comp.Gamma.ravel())
    residual = np.linalg.norm(T @ comp.Phi - pair.M @ T - drive)
    assert residual <= 1e-10 * (1.0 + np.linalg.norm(drive))
    assert np.abs(psi @ T - comp.Gamma.ravel()).max() <= 1e-10


@settings(max_examples=30)
@given(data=st.data())
def test_bank_of_drawn_explicit_pairs_is_each_pairs_own_solution(data):
    # three agents on sec5's two levels, each agent's pair drawn on its own
    orders = [companion_from_coeffs(c).order for c in SEC5_LEVELS]
    pairs = [[data.draw(stabilizer_pairs(order)) for order in orders] for _ in range(3)]
    bank = synthesize_bank(SEC5_LEVELS, 3, stabilizers=pairs)
    for s, level in enumerate(bank.levels):
        for i in range(3):
            T, psi = solve_sylvester(level.companion.Phi, level.companion.Gamma,
                                     pairs[i][s].M, pairs[i][s].N)
            assert np.array_equal(level.M[i], pairs[i][s].M)
            assert np.array_equal(level.N[i], pairs[i][s].N)
            assert np.array_equal(level.T[i], T) and np.array_equal(level.Psi[i], psi)
