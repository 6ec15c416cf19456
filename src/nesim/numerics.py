"""Checked dense linear algebra (LAPACK via NumPy) and a fixed-step RK4 integrator.

`integrate` is the one stepping loop for nonlinear systems. It steps a
`LiftedSteps` workspace, and nothing else, by `rk4_lifted_step`: a system
linear in a lifted state, ``xdot = A [x; 1; phi(x)]`` (the closed loop and
the generator), whose RK4 stages are one GEMV each by the maps of
`rk4_lifted_matrices`, bound once with the system's lifts and step size by
`rk4_lifted_steps`. `integrate` hands its observer the states a block of
`STEP_BLOCK` at a time, so the observer's bookkeeping is whole-array work
per block. Divergence is read, not caught: `rk4_lifted_step` does not raise,
so the observer finds a block's first non-finite state itself. No nesim path
steps an `OdeSystem` by `rk4_step`: it stays as the lifted step's per-stage
oracle and the per-step leaf that perfbench's tracer wraps.

A linear system ``xdot = A x`` steps through `rk4_linear`: there one RK4
step is exactly ``x+ = R(hA) x``, with `rk4_matrix` giving RK4's step
matrix ``R(hA)``, so ``m`` steps are ``R^m``, and one product with the
stacked powers ``R .. R^m`` writes ``m`` states (``m`` is `LINEAR_BLOCK`).

Everything here targets desk-scale problems (matrices up to ~30x30, state
vectors up to a few hundred entries). Apart from the lifted workspace, the
routines are pure functions. A workspace (`LiftedSteps`) is mutable and
belongs to one loop: each run builds its own, so concurrent runs stay
independent, and no two threads may step one loop at once. `rk4_step` and
the oracle derivatives it steps keep their buffers per call. `rk4_step`,
`rk4_linear` and `rk4_lifted_steps`, which makes the workspace, reject a step
size that is not finite and > 0 (`ValueError`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteState, NotSymmetric, SingularMatrix

# Centralized tolerances.
COND_MAX = 1e12  # 2-norm condition number above which a solve counts as singular
SYM_EPS = 1e-10  # allowed asymmetry for the symmetric eigensolver

# States `rk4_linear` writes per product with its stacked step-matrix powers. Each
# state costs one n x n product whatever the block; a longer block makes fewer calls
# but forms more powers per call, and on the check suite's traces 32 beat 16 and 64.
LINEAR_BLOCK = 32

# States `integrate` makes per block before its observer reads them. Each block costs one
# observer call, one magnitude reduction and one derivation of its kept states into the
# signals whatever its length. On sec5's 30 s run (decimate 10, one pinned core) 64 beat 8, 16
# and 32; 128 and 256 were faster than 64 in 16 and 17 of 20 alternating runs, by 2-3% in the
# median, inside the 0.37-0.46 s spread of the runs at 64
STEP_BLOCK = 64


@dataclass(frozen=True)
class OdeSystem:
    """A first-order ODE ``xdot = rhs(t, x)`` with a fixed state dimension."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by LU factorization with partial pivoting (LAPACK gesv).

    Parameters
    ----------
    A : (n, n) array_like
        Square coefficient matrix.
    b : (n,) or (n, k) array_like
        Right-hand side, one column per system.

    Returns
    -------
    x : ndarray
        Solution of the same shape as ``b``.

    Raises
    ------
    SingularMatrix
        If the 2-norm condition number of ``A`` exceeds ``COND_MAX``; an
        exactly singular or non-finite ``A`` counts as infinitely conditioned.
    """
    A = np.asarray(A, dtype=float)
    cond = np.linalg.cond(A) if np.isfinite(A).all() else np.inf
    if cond > COND_MAX:
        raise SingularMatrix(f"condition number {cond:.3e} exceeds {COND_MAX:.0e}")
    return np.linalg.solve(A, b)


def symmetric_eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK via eigvalsh).

    Raises
    ------
    NotSymmetric
        If ``max|A - A^T|`` exceeds ``SYM_EPS`` times ``max(1, max|A|)``.
    """
    A = np.asarray(A, dtype=float)
    scale = max(float(np.abs(A).max(initial=0.0)), 1.0)
    asym = float(np.abs(A - A.T).max(initial=0.0))
    if asym > SYM_EPS * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYM_EPS * scale}")
    return np.linalg.eigvalsh((A + A.T) / 2.0)


def _check_step(h: float) -> None:
    """Raise ``ValueError`` unless the step size ``h`` is finite and > 0."""
    if not 0 < h < np.inf:
        raise ValueError(f"step size must be finite and > 0, got {h!r}")


def rk4_step(sys: OdeSystem, t: float, x: np.ndarray, h: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step; the new state goes into ``out``, or a new array.

    ``x`` is one state ``(dim,)`` or a batch of independent states
    ``(dim, B)``, one per column.

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    NonFiniteState
        If the weighted stage sum ``k1 + 2 k2 + 2 k3 + k4`` holds NaN or Inf,
        in any column. The weights are positive, so any non-finite stage
        evaluation makes the sum non-finite; the sum can also overflow to Inf
        from finite stages.
    """
    _check_step(h)
    k1 = sys.rhs(t, x)
    k2 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k1)
    k3 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k2)
    k4 = sys.rhs(t + h, x + h * k3)
    incr = k1 + 2.0 * k2 + 2.0 * k3 + k4
    if not np.isfinite(incr).all():
        raise NonFiniteState(f"non-finite derivative at t={t:.6g}")
    return np.add(x, (h / 6.0) * incr, out=out)


def integrate(steps: LiftedSteps, x0: np.ndarray, n_steps: int,
              observer: Callable | None = None) -> np.ndarray:
    """Make ``n_steps`` RK4 steps in the workspace ``steps`` from ``x0``; returns the last state.

    Time starts at 0, the step size is the workspace's, ``steps.h``, and
    each step is one `rk4_lifted_step`. The steps are made in blocks of
    `STEP_BLOCK` (the last block holds what is left), each written into its
    row of one block buffer.

    ``observer(k, t, xs)`` is invoked at the initial state, as a block of one,
    and after every block: ``xs`` holds the states of steps ``k, k + 1, ..``,
    one per row, and ``t`` their times ``(k + j) h``. ``xs`` is a view of the
    block buffer, valid until the observer returns; it is the hook trajectory
    recorders attach to, and the one that reads divergence: a step does not
    raise, so any state of a block may be non-finite. The observer returns
    True to end the run after that block.

    The columns of a batched state ``(dim, B)`` are independent systems: each
    has its own GEMV and fill, so a column the caller has stopped is stepped
    on, whatever its steps hold, and moves no other column.

    Raises
    ------
    ValueError
        Before the first step, if ``n_steps`` is negative.
    """
    if n_steps < 0:
        raise ValueError(f"the step count must be >= 0, got {n_steps}")
    x = np.array(x0, dtype=float)
    block = np.empty((max(1, min(STEP_BLOCK, n_steps)),) + x.shape)
    k = 0
    done = observer is not None and observer(0, np.zeros(1), x[None])
    while k < n_steps and not done:
        first = k
        for out in block[:n_steps - k]:  # the step copies ``x`` in before it writes ``out``
            x = rk4_lifted_step(steps, x, out)
            k += 1
        done = observer is not None and observer(
            first + 1, np.arange(first + 1, k + 1) * steps.h, block[:k - first])
    return x.copy()


def kept_rows(k: int, count: int, n_steps: int, decimate: int) -> slice | list:
    """The rows of `integrate`'s block of ``count`` states from step ``k`` that a record of
    ``n_steps`` steps keeps: each ``decimate``-th step (step 0 among them) and the last."""
    rows = slice(-k % decimate, None, decimate)
    if k + count - 1 == n_steps and n_steps % decimate:
        return [*range(count)[rows], count - 1]
    return rows


@dataclass(eq=False)
class LiftedSteps:
    """A lifted system as `integrate` steps it: RK4's stage maps at step ``h``, bound once.

    The maps ``S1, S2, S3, W`` of `rk4_lifted_matrices` and the system's lift
    are bound to one lift buffer ``[L2; L1; L3; L4]`` of ``(4 width, B)``,
    whose constant rows are set once: ``state`` is the state rows of ``L1``,
    ``stages`` the zero-argument calls that fill the rest in order, flat (the
    fills of ``L1``, then each stage's GEMV and fills), ``last(out)`` the
    GEMV by ``W`` into ``out``. ``maps`` and ``buffer`` hold the maps and the
    buffer, each column's map 64-byte aligned.
    """

    h: float
    maps: tuple
    buffer: np.ndarray
    state: np.ndarray
    stages: tuple
    last: Callable


def rk4_lifted_matrices(A: np.ndarray, h: float) -> tuple:
    """RK4's stage maps ``(S1, S2, S3, W)`` at step ``h`` for ``xdot = A [x; 1; phi(x)]``.

    ``A`` is ``(B, dim, width)``, one operator per column. Every stage of
    the classical tableau (Hairer & Wanner, *Solving ODEs II*, §IV.2) is
    affine in the lifts ``L_j = [s_j; 1; phi(s_j)]`` of the stages before
    it. With ``E`` the ``(dim, width)`` block that picks ``x`` out of
    ``L1`` and the lifts stacked as ``[L2; L1; L3; L4]``::

        s2 = S1 L1        S1 = E + (h/2) A
        s3 = S2 [L2; L1]  S2 = [(h/2) A, E]
        s4 = S3 [L1; L3]  S3 = [E, h A]
        x+ = W [L2; L1; L3; L4]
                          W = [(h/3) A, E + (h/6) A, (h/3) A, (h/6) A]

    so each map reads one contiguous run of the stack and holds no zero
    block. Each map is ``(B, dim, k * width)``, in a stack whose ``[b]``
    starts on 64 bytes (`_aligned`). Each block is written straight into its
    slot, ``s A`` and then ``E +`` it in place, so no operator-sized
    temporary is made; every entry is computed from its own column's ``A_b``
    alone.
    """
    A = np.asarray(A, dtype=float)
    B, dim, width = A.shape
    E = np.eye(dim, width)
    S1, S2, S3, W = maps = tuple(_aligned((B, dim, k * width)) for k in (1, 2, 2, 4))

    def block(M: np.ndarray, j: int) -> np.ndarray:
        return M[..., j * width:(j + 1) * width]

    # exactly these scalars: h * (1 / 3), for one, rounds apart from h / 3.0
    for M, j, s in ((S1, 0, h / 2.0), (S2, 0, h / 2.0), (S3, 1, h), (W, 0, h / 3.0),
                    (W, 1, h / 6.0), (W, 2, h / 3.0), (W, 3, h / 6.0)):
        np.multiply(s, A, out=block(M, j))
    for M, j in ((S1, 0), (W, 1)):
        np.add(E, block(M, j), out=block(M, j))
    block(S2, 1)[...] = block(S3, 0)[...] = E
    return maps


def rk4_lifted_steps(A: np.ndarray, h: float, bind: Callable) -> LiftedSteps:
    """The workspace `rk4_lifted_step` steps ``xdot = A [x; 1; phi(x)]`` in, at step ``h``.

    ``A`` is ``(B, dim, width)``, one operator per column. ``bind(L)`` takes
    a lifted ``(width, B)`` array ``L`` and returns a tuple, empty when there
    are no feature rows, of zero-argument fills that overwrite its feature
    rows ``dim + 1:``, in order, from the states in its rows ``:dim`` as they
    are at each call; row ``dim`` holds the one, and column ``b`` reads only
    column ``b``. The stage maps (`rk4_lifted_matrices`), the lift buffer,
    the four lifts and the GEMVs' source and destination views are made
    here, once, so a step slices and allocates nothing but its new state. A
    column steps bit-identically however many share the batch only when
    ``dim`` is at least 2 (see `column_gemv`).

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    """
    _check_step(h)
    S1, S2, S3, W = maps = rk4_lifted_matrices(A, h)
    B, dim, width = S1.shape
    buf = _aligned((1, 4 * width, B))[0]
    buf[dim::width] = 1.0  # the constant entry of each lift; no stage writes it
    L2, L1, L3, L4 = (buf[j * width:(j + 1) * width] for j in range(4))
    stages = (*bind(L1),
              column_gemv(S1, L1, L2[:dim]), *bind(L2),
              column_gemv(S2, buf[:2 * width], L3[:dim]), *bind(L3),
              column_gemv(S3, buf[width:3 * width], L4[:dim]), *bind(L4))
    return LiftedSteps(h, maps, buf, L1[:dim], stages, column_gemv(W, buf))


def _aligned(shape: tuple) -> np.ndarray:
    """An empty float stack of ``shape`` in which each C-contiguous ``[b]`` starts on 64 bytes.

    A GEMV's time depends on where its operands start modulo 64 bytes (its
    bits do not), so the workspace fixes that start, not the heap's history.
    """
    count, size = shape[0], math.prod(shape[1:])
    per = -(-size // 8) * 8  # floats from one [b] to the next: a whole number of 64 bytes
    raw = np.empty(count * per + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + count * per].reshape(count, per)[:, :size].reshape(shape)


def column_gemv(M: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> Callable:
    """``out[:, b] = M[b] @ v[:, b]``, bound: one GEMV per column, never one GEMM over the batch.

    Returns ``gemv()``, which writes the bound ``out``, or, with no ``out``
    bound, ``gemv(out)``. One column uses ``dot`` (of a matrix and a column,
    which NumPy makes one GEMV), more a stacked ``matmul``; both are one GEMV
    per column, so a column's bits do not depend on how many share the
    batch, as long as each ``M[b]`` has at least two rows: with one row (a
    system of one state) the ``dot`` and the stacked ``matmul`` round the
    product differently, and a column of a batch can differ from its run
    alone in the last bit. The choice is made here, when the call is bound.
    ``out`` is C-contiguous for one column.
    """
    if len(M) == 1:
        return partial(M[0].dot, v) if out is None else partial(M[0].dot, v, out)
    vT = v.T[..., None]
    if out is None:
        return lambda out: np.matmul(M, vT, out=out.T[..., None])
    return partial(np.matmul, M, vT, out=out.T[..., None])


def rk4_lifted_step(steps: LiftedSteps, x: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """One RK4 step in the workspace ``steps`` (`rk4_lifted_steps`), as four GEMVs per column.

    ``x`` is ``(dim, B)``, one column per operator. It is copied into the
    state rows of ``L1`` in the workspace; each stage state is one GEMV over
    the lifts so far, written straight into the buffer and lifted there, and
    the new state is one GEMV over the whole buffer into ``out`` (a
    C-contiguous ``(dim, B)`` array), or a fresh array, which is returned.
    No stage derivative is formed. The system is autonomous, and the step
    size is the workspace's, ``steps.h``.

    A step does not raise on divergence, and it measures nothing: a
    non-finite stage reaches the new state (every entry of the buffer meets
    every row of ``W``, and ``0 * inf`` is NaN), where the caller reads it
    (`integrate`'s observer).

    Raises
    ------
    ValueError
        If ``steps`` was not built for states of the shape of ``x``.
    """
    state = steps.state
    if x.shape != state.shape:
        raise ValueError(f"the lifted workspace is built for states of shape {state.shape}, "
                         f"not {x.shape}")
    state[...] = x
    for stage in steps.stages:
        stage()
    if out is None:
        out = np.empty(state.shape)
    steps.last(out)
    return out


def rk4_matrix(A: np.ndarray, h: float) -> np.ndarray:
    """RK4's step matrix ``R(hA)`` for ``xdot = A x``, evaluated by Horner.

    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24`` is RK4's stability function
    (Hairer & Wanner, *Solving ODEs II*, §IV.2): one RK4 step of the linear
    system is exactly ``x+ = R(hA) x``. ``A`` is ``(n, n)`` or a stack
    ``(B, n, n)``; a stacked call equals the per-matrix calls bit for bit.
    """
    Z = h * np.asarray(A, dtype=float)
    eye = np.eye(Z.shape[-1])
    R = eye + Z / 4.0
    R = eye + (Z @ R) / 3.0
    R = eye + (Z @ R) / 2.0
    return eye + Z @ R


def rk4_linear(A: np.ndarray, x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """States ``x_0 .. x_n_steps`` of fixed-step RK4 on ``xdot = A x``, one row each.

    One RK4 step is ``x+ = R(hA) x`` (`rk4_matrix`), so ``x_{k+j} = R^j x_k``.
    The powers ``R, R^2, .., R^m``, ``m = min(LINEAR_BLOCK, n_steps)``, are
    formed once per call and stacked into one ``(m n, n)`` matrix, and each
    product of it with the last state kept writes the next ``m`` states: one
    GEMV per block of ``m`` steps. The states agree with stepping ``R`` once
    per step to roundoff, not bit for bit. ``A`` is ``(n, n)`` with ``x0`` of
    shape ``(n,)``, or a stack ``(B, n, n)`` with ``x0`` of shape ``(B, n)``:
    one system per row, stepped by one stacked ``matmul``, so each row gets
    its own GEMV and rows never mix, and a stacked call equals its
    per-matrix calls bit for bit. Returns ``(n_steps + 1,) + x0.shape``.

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    NonFiniteState
        If any state holds NaN or Inf.
    """
    _check_step(h)
    R = rk4_matrix(A, h)
    n = R.shape[-1]
    R = R.reshape(-1, n, n)  # a flat system is a stack of one, so both take one path
    B, m = len(R), max(1, min(LINEAR_BLOCK, n_steps))
    xs = np.empty((B, n_steps + 1, n))  # per system, its states are contiguous
    xs[:, 0] = np.reshape(x0, (B, n))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        powers = np.empty((B, m, n, n))
        powers[:, 0] = R
        for j in range(1, m):
            np.matmul(R, powers[:, j - 1], out=powers[:, j])
        powers = powers.reshape(B, m * n, n)
        for k in range(0, n_steps, m):
            j = min(m, n_steps - k)  # the last block may be shorter: the first j powers
            np.matmul(powers[:, :j * n], xs[:, k, :, None],
                      out=xs[:, k + 1:k + j + 1].reshape(B, j * n, 1))
    if not np.isfinite(xs).all():
        raise NonFiniteState(f"non-finite linear state within {n_steps} steps of h={h:.6g}")
    return xs.swapaxes(0, 1).reshape((n_steps + 1,) + np.shape(x0))
