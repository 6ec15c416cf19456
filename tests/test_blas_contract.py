"""The two properties of the BLAS that nesim's bits rest on, asserted in one place.

- `numerics.column_gemv` gives a column the same bits at every batch size
  ``B``, so a seed's run is bit-identical alone and in a batch.
- `simulation.run` derives ``u = X @ U.T`` through a window of kept states
  (`simulation._U_WINDOW`): one product over the window's first
  ``_U_WINDOW`` rows each time the window of ``2 _U_WINDOW`` rows fills,
  the window then sliding by ``_U_WINDOW``, and one over the rest at the
  history's end. Each row of those products must have the bits of the one
  product over the whole history.

Measured on scipy-openblas 0.3.31.188.0 with its SkylakeX kernels: a row of
``X[a:a + m] @ U.T`` has the bits of the whole product's row for every
``m`` of at least 301, 151, 76 and 2 rows at (N, dim) = (4, 62), (8, 154),
(16, 434) and (3, 23), at any offset ``a``; shorter products take another
kernel. With ``OPENBLAS_CORETYPE=Haswell`` the same library rounds the
last row of each thread's share of a product apart when the share's row
count is odd: with one BLAS thread `run`'s windows still give the whole
history's bits, as each starts at a multiple of ``_U_WINDOW`` and spans
``_U_WINDOW`` rows or ends at the history's end, but with two threads the
whole product's shares end at rows no window ends at, and the window test
here fails. A BLAS that breaks either property fails here first, not in
every golden case.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.numerics import column_gemv, integrate, rk4_lifted_step, rk4_lifted_steps
from nesim.simulation import _U_WINDOW, assemble
from oracles import box_start

W = _U_WINDOW


def history(scenario, seed: int, n_rows: int) -> np.ndarray:
    """The first ``n_rows`` states of a one-seed box-start run of ``scenario``, every step."""
    scenario = dataclasses.replace(scenario, t_final=(n_rows - 1) * scenario.dt, decimate=1)
    x0, draw = box_start(scenario, seed)
    loop = assemble(scenario, draws=draw[None])
    stepped = dataclasses.replace(loop, steps=rk4_lifted_steps(loop.operator, scenario.dt,
                                                               loop.bind))
    rows = [x0]
    integrate(stepped, x0[:, None], 0.0, scenario.t_final, scenario.dt,
              lambda k, t, xs: rows.extend(xs[:, :, 0].copy()) if k else None,
              step=rk4_lifted_step)
    return np.array(rows)


def windows(n: int) -> list[tuple[int, int]]:
    """The rows ``(start, stop)`` of each product `run` takes over a history of ``n`` rows:
    ``[(0, W), (W, 2W), .., (top, n)]`` with ``W < n - top <= 2W``, or ``[(0, n)]`` for
    ``n <= 2W``."""
    top, out = 0, []
    while top + 2 * W < n:
        out.append((top, top + W))
        top += W
    return out + [(top, n)]


@pytest.fixture(scope="module")
def cases(sec5, custom_scenario):
    """``(X, U)`` per shape: sec5's and the custom factory's control rows over a real history
    of theirs, and random rows at the 8-ring's size."""
    dense = sec5.escalated(4.0)
    rng = np.random.default_rng(0)
    return {"sec5": (history(dense, 1, 4 * W + 100), assemble(dense).control_rows),
            "custom": (history(custom_scenario, 2, 3 * W + 100),
                       assemble(custom_scenario).control_rows),
            "ring8": (rng.standard_normal((3 * W + 100, 154)),
                      rng.standard_normal((8, 154)))}


@pytest.mark.parametrize("case", ["sec5", "custom", "ring8"])
def test_each_window_product_has_the_whole_history_bits(case, cases):
    X, U = cases[case]
    # last windows of W + 1 to 2W rows (each of the first 16, then every 7th), and histories
    # of two and three slides
    for n in {*range(2 * W + 1, 2 * W + 17), *range(2 * W + 1, 3 * W + 1, 7), 3 * W,
              3 * W + 1, 3 * W + 99, len(X)}:
        whole = X[:n] @ U.T
        for start, stop in windows(n):
            assert np.array_equal(X[start:stop] @ U.T, whole[start:stop]), (n, start, stop)


@pytest.mark.parametrize("case", ["sec5", "custom", "ring8"])
def test_column_gemv_gives_a_column_the_same_bits_at_every_batch_size(case, sec5,
                                                                      custom_scenario):
    # the maps of the lifted RK4 step over six columns: the operator and the stage maps
    rng = np.random.default_rng(1)
    if case == "ring8":
        maps = [rng.standard_normal((6, 154, 200 * j)) for j in (1, 2, 4)]
    else:
        scenario = sec5.escalated(4.0) if case == "sec5" else custom_scenario
        draws = np.stack([box_start(scenario, seed)[1] for seed in range(1, 7)])
        loop = assemble(scenario, draws=draws)
        maps = [loop.operator, *rk4_lifted_steps(loop.operator, scenario.dt, loop.bind).maps]
    for M in maps:
        v = rng.standard_normal((M.shape[2], len(M)))
        alone = np.empty((M.shape[1], len(M)))
        for b in range(len(M)):
            column = np.empty((M.shape[1], 1))  # one column's output is C-contiguous
            column_gemv(M[b:b + 1], v[:, b:b + 1], column)()
            alone[:, b] = column[:, 0]
        for B in range(2, len(M) + 1):
            out = np.empty((M.shape[1], B))
            column_gemv(M[:B], v[:, :B], out)()
            assert np.array_equal(out, alone[:, :B]), (M.shape, B)
