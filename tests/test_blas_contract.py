"""The two properties of the BLAS that nesim's bits rest on, asserted in one place.

- `numerics.column_gemv` gives a column the same bits at every batch size
  ``B``, so a seed's run is bit-identical alone and in a batch.
- `simulation.run` derives ``u`` of each block of kept states as one
  stacked ``np.matmul(U, X[..., None])`` over the batch, ``X`` holding each
  column's kept states of the block as contiguous rows: one GEMV per kept
  state. A row's ``u`` must have the bits of ``U @ x`` of its state alone,
  whatever the block's length and the batch's width, so that it depends
  neither on how `numerics.integrate` blocks the steps nor on which seeds
  share the batch.

Both hold on scipy-openblas 0.3.31.188.0, with its SkylakeX kernels on one
and two BLAS threads and with ``OPENBLAS_CORETYPE=Haswell`` on two: a GEMV
of the control rows is a dot product per output entry, however many states
are stacked. (A product over many states at once, ``X @ U.T``, is one GEMM,
whose rounding of a row depends on the kernel, the row count and the
threads' shares.) A BLAS that breaks either property fails here first, not
in every golden case.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from nesim.numerics import column_gemv, integrate, rk4_lifted_steps
from nesim.simulation import assemble
from oracles import box_start

ROWS = 400  # kept states per column


def history(scenario, seed: int) -> np.ndarray:
    """The first `ROWS` states of a one-seed box-start run of ``scenario``, every step."""
    scenario = dataclasses.replace(scenario, t_final=(ROWS - 1) * scenario.dt, decimate=1)
    x0, draw = box_start(scenario, seed)
    loop = assemble(scenario, draws=draw[None])
    rows = [x0]
    integrate(rk4_lifted_steps(loop.operator, scenario.dt, loop.bind), x0[:, None], 0.0,
              scenario.t_final, scenario.dt,
              lambda k, t, xs: rows.extend(xs[:, :, 0].copy()) if k else None)
    return np.array(rows)


@pytest.fixture(scope="module")
def cases(sec5, custom_scenario):
    """``(X, U)`` per shape: three seeds' real histories ``(3, ROWS, dim)`` of sec5 and of the
    custom factory with their control rows, and random rows at the 8-ring's size."""
    dense = sec5.escalated(4.0)
    rng = np.random.default_rng(0)
    return {"sec5": (np.stack([history(dense, seed) for seed in (1, 2, 3)]),
                     assemble(dense).control_rows),
            "custom": (np.stack([history(custom_scenario, seed) for seed in (1, 2, 3)]),
                       assemble(custom_scenario).control_rows),
            "ring8": (rng.standard_normal((3, ROWS, 154)), rng.standard_normal((8, 154)))}


@pytest.mark.parametrize("case", ["sec5", "custom", "ring8"])
def test_u_of_a_kept_state_has_its_bits_alone_in_every_block_and_batch(case, cases):
    X, U = cases[case]
    alone = np.array([[U @ x for x in column] for column in X])
    rng = np.random.default_rng(2)
    # blocks of one row, of each length to 70 (a block holds up to 64 states), of drawn
    # lengths to the whole history, and the whole history as one block
    partitions = [[1] * ROWS, *([m] * -(-ROWS // m) for m in range(2, 71)),
                  *(rng.integers(1, ROWS, size=ROWS) for _ in range(20)), [ROWS]]
    for B in range(1, len(X) + 1):
        for lengths in partitions:
            u, kept = np.empty((B, ROWS, len(U))), 0
            for m in lengths:
                at = slice(kept, min(kept + m, ROWS))
                np.matmul(U, np.ascontiguousarray(X[:B, at])[..., None], out=u[:, at, :, None])
                kept = at.stop
                if kept == ROWS:
                    break
            assert np.array_equal(u, alone[:B]), (B, list(lengths[:3]))


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
