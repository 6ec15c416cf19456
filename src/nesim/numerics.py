"""Checked dense linear algebra (LAPACK via NumPy) and a fixed-step RK4 integrator.

`integrate` is the one stepping loop for nonlinear systems; its ``step``
hook picks how one RK4 step is made:

- `rk4_lifted_step` steps a system that is linear in a lifted state,
  ``xdot = A [x; 1; phi(x)]`` (the closed loop and the generator): each
  stage is one GEMV by a matrix of `rk4_lifted_matrices`, five per step,
  inside a workspace of `rk4_lifted_steps` whose GEMVs and lifts are bound
  once;
- `rk4_step`, the default, steps any ``rhs``. No nesim path steps by it:
  it stays as the oracle the lifted step is tested against and as the
  per-step leaf that perfbench's tracer wraps.

A linear system ``xdot = A x`` steps through `rk4_linear`: there one RK4
step is exactly ``x+ = R(hA) x``, with `rk4_matrix` giving RK4's step
matrix ``R(hA)``.

Everything here targets desk-scale problems (matrices up to ~30x30, state
vectors up to a few hundred entries). Apart from the lifted workspace, the
routines are pure functions. A workspace (`LiftedSteps`) is mutable and
belongs to one loop: each run builds its own, so concurrent runs stay
independent, and no two threads may step one loop at once. `rk4_step` and
the oracle derivatives it steps keep their buffers per call. Every stepper
rejects a step size that is not finite and > 0 (`ValueError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteState, NotSymmetric, SingularMatrix

# Centralized tolerances.
COND_MAX = 1e12  # 2-norm condition number above which a solve counts as singular
SYM_EPS = 1e-10  # allowed asymmetry for the symmetric eigensolver


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


def rk4_step(sys: OdeSystem, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step.

    ``x`` is one state ``(dim,)`` or a batch of independent states
    ``(dim, B)``, one per column.

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    NonFiniteState
        If the weighted stage sum ``k1 + 2 k2 + 2 k3 + k4`` holds NaN or Inf,
        which signals closed-loop divergence to the caller; its ``columns``
        mark the non-finite columns. The weights are positive, so any
        non-finite stage evaluation makes the sum non-finite; the sum can
        also overflow to Inf from finite stages.
    """
    _check_step(h)
    k1 = sys.rhs(t, x)
    k2 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k1)
    k3 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k2)
    k4 = sys.rhs(t + h, x + h * k3)
    incr = k1 + 2.0 * k2 + 2.0 * k3 + k4
    if not np.isfinite(incr).all():
        raise NonFiniteState(f"non-finite derivative at t={t:.6g}",
                             columns=np.atleast_1d(~np.isfinite(incr).all(axis=0)))
    return x + (h / 6.0) * incr


def integrate(sys: OdeSystem, x0: np.ndarray, t0: float, t_final: float, h: float,
              observer: Callable | None = None, step: Callable | None = None) -> np.ndarray:
    """Integrate with fixed-step RK4 from ``t0`` to ``t_final``; returns the final state.

    ``step(sys, t, x, h)`` makes one step: `rk4_step` by default, or
    `rk4_lifted_step`. ``observer(step_index, t, x)`` is invoked at the
    initial state and after every step; it is the hook trajectory recorders
    attach to. Divergence surfaces as ``NonFiniteState`` from the step.

    The columns of a batched state ``(dim, B)`` are independent systems, and
    the observer may stop some of them: a boolean mask it returns stops the
    masked columns, and the others go on as ``sys.select(~mask)``. A step on
    a batched state that raises ``NonFiniteState`` stops the columns it marks
    instead of raising: the observer is told by ``observer(step_index, t,
    x, diverged=columns)``, with the state the failed step started from, and
    the other columns are stepped again from that state. The returned state
    then holds the columns still going at ``t_final``.

    Raises
    ------
    ValueError
        Before the first step, if ``h`` is not finite and > 0, or if
        ``t_final`` lies before ``t0``.
    """
    _check_step(h)
    n_steps = int(round((t_final - t0) / h))
    if n_steps < 0:
        raise ValueError(f"t_final = {t_final:g} lies before t0 = {t0:g}")
    step = rk4_step if step is None else step
    x = np.array(x0, dtype=float)
    k, t = 0, t0
    stop = None if observer is None else observer(k, t, x)
    while True:
        if stop is not None and stop.any():
            if stop.all():
                return x[:, :0]
            x, sys = x[:, ~stop], sys.select(~stop)
        if k == n_steps:
            return x
        try:
            x_next = step(sys, t, x, h)
        except NonFiniteState as exc:
            if observer is None or x.ndim == 1 or exc.columns is None:
                raise
            stop = exc.columns
            observer(k, t, x, diverged=stop)
            continue
        x, k = x_next, k + 1
        t = t0 + k * h
        stop = None if observer is None else observer(k, t, x)


@dataclass(eq=False)
class StepMagnitude:
    """What the latest lifted step saw of the state it made.

    ``size`` is ``|x+|`` entrywise, ``(dim, B)``, in the stepping
    workspace's scratch (valid until its next step), and ``top`` its largest
    entry, NaN if any entry is NaN. A workspace and the ones narrowed from it
    for fewer columns report here alike, so an observer of `integrate` reads
    the step that made the state it is shown.
    """

    size: Optional[np.ndarray] = None
    top: float = 0.0


@dataclass(frozen=True, eq=False)
class LiftedSteps:
    """A workspace for `rk4_lifted_step`: RK4's stage maps at step ``h``, bound once.

    The maps ``S1, S2, S3, W`` of `rk4_lifted_matrices` and the system's lift
    are bound to one lift buffer ``[L2; L1; L3; L4]`` of ``(4 width, B)``,
    whose constant rows are set once: ``state`` is the state rows of ``L1``,
    ``stages`` the zero-argument calls that fill the rest in order (the lift
    of ``L1``, then each stage's GEMV and lift), ``last(out)`` the GEMV by
    ``W`` into ``out``, and ``size`` the scratch for ``|x+|``.
    """

    h: float
    state: np.ndarray
    stages: tuple
    last: Callable
    size: np.ndarray
    magnitude: StepMagnitude


@dataclass(frozen=True)
class LiftedOdeSystem(OdeSystem):
    """``xdot = A_b [x_b; 1; phi(x_b)]`` for each column ``b`` of a ``(dim, B)`` state.

    ``bind(L)`` takes a lifted ``(width, B)`` array ``L`` and returns
    ``lift()``, which overwrites the feature rows ``dim + 1:`` of ``L`` from
    the states in its rows ``:dim`` as they are at each call, or None when
    there are no feature rows; row ``dim`` holds the one, and column ``b``
    reads only column ``b``. ``steps`` is the
    workspace `rk4_lifted_step` steps in (`rk4_lifted_steps`), built from
    each column's ``A_b`` for one step size; None until built.
    """

    bind: Callable = None
    steps: Optional[LiftedSteps] = None


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
    block. Each map is ``(B, dim, k * width)``; every entry is computed from
    its own column's ``A_b`` alone.
    """
    A = np.asarray(A, dtype=float)
    E = np.broadcast_to(np.eye(*A.shape[1:]), A.shape)
    half, third, sixth = (h / 2.0) * A, (h / 3.0) * A, (h / 6.0) * A
    return (E + half, np.concatenate([half, E], axis=2), np.concatenate([E, h * A], axis=2),
            np.concatenate([third, E + sixth, third, sixth], axis=2))


def rk4_lifted_steps(A: np.ndarray, h: float, bind: Callable,
                     magnitude: StepMagnitude | None = None) -> LiftedSteps:
    """The workspace `rk4_lifted_step` steps ``xdot = A [x; 1; phi(x)]`` in, at step ``h``.

    ``A`` is ``(B, dim, width)`` and ``bind`` the system's
    (`LiftedOdeSystem`). The stage maps (`rk4_lifted_matrices`), the lift
    buffer, the four lifts and the GEMVs' source and destination views are
    made here, once, so a step slices and allocates nothing but its new
    state. Steps report to ``magnitude`` (a new `StepMagnitude` by default):
    a workspace narrowed to fewer columns passes on its parent's.

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    """
    _check_step(h)
    S1, S2, S3, W = rk4_lifted_matrices(A, h)
    B, dim, width = S1.shape
    buf = np.empty((4 * width, B))
    buf[dim::width] = 1.0  # the constant entry of each lift; no stage writes it
    L2, L1, L3, L4 = (buf[j * width:(j + 1) * width] for j in range(4))
    stages = (bind(L1),
              column_gemv(S1, L1, L2[:dim]), bind(L2),
              column_gemv(S2, buf[:2 * width], L3[:dim]), bind(L3),
              column_gemv(S3, buf[width:3 * width], L4[:dim]), bind(L4))
    stages = tuple(stage for stage in stages if stage is not None)  # a lift with no features
    return LiftedSteps(h, L1[:dim], stages, column_gemv(W, buf), np.empty((dim, B)),
                       StepMagnitude() if magnitude is None else magnitude)


def column_gemv(M: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> Callable:
    """``out[:, b] = M[b] @ v[:, b]``, bound: one GEMV per column, never one GEMM over the batch.

    Returns ``gemv()``, which writes the bound ``out``, or, with no ``out``
    bound, ``gemv(out)``. One column uses ``dot`` (of a matrix and a column,
    which NumPy makes one GEMV), more a stacked ``matmul``; both are one GEMV
    per column, so a column's bits do not depend on how many share the
    batch. The choice is made here, when the call is bound. ``out`` is
    C-contiguous for one column.
    """
    if len(M) == 1:
        return partial(M[0].dot, v) if out is None else partial(M[0].dot, v, out)
    vT = v.T[..., None]
    if out is None:
        return lambda out: np.matmul(M, vT, out=out.T[..., None])
    return partial(np.matmul, M, vT, out=out.T[..., None])


def rk4_lifted_step(sys: LiftedOdeSystem, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of a `LiftedOdeSystem`, as five GEMVs per column.

    ``x`` is ``(dim, B)``, one column per operator. It is copied into the
    state rows of ``L1`` in the workspace ``sys.steps`` (`rk4_lifted_steps`);
    each stage state is one GEMV over the lifts so far, written straight
    into the buffer and lifted there, and the new state is one GEMV over the
    whole buffer into a fresh array. No stage derivative is formed. Its
    ``|x+|`` and largest entry go to ``sys.steps.magnitude``; that one
    maximum is also the finiteness test. The system is autonomous: ``t`` is
    not read.

    Raises
    ------
    ValueError
        If ``sys.steps`` was not built for the step ``h``, or for states of
        the shape of ``x``.
    NonFiniteState
        If the new state holds NaN or Inf; its ``columns`` mark the
        non-finite columns. A non-finite stage reaches the new state: every
        entry of the buffer meets every row of ``W``, and ``0 * inf`` is NaN.
        A NaN makes the maximum NaN, and NaN compares false.
    """
    steps = sys.steps
    if steps is None or steps.h != h:
        raise ValueError(f"the lifted stage maps are not built for the step h={h:.6g}")
    state = steps.state
    if x.shape != state.shape:
        raise ValueError(f"the lifted workspace is built for states of shape {state.shape}, "
                         f"not {x.shape}")
    state[...] = x
    for stage in steps.stages:
        stage()
    out = np.empty(state.shape)
    steps.last(out)
    size, magnitude = steps.size, steps.magnitude
    np.abs(out, out=size)
    magnitude.size = size
    # the largest entry; argmax finds it faster than max on a state this small, and it
    # stops at the first NaN, so the maximum is NaN whenever an entry is
    magnitude.top = top = size.item(size.argmax())
    if not top < np.inf:
        raise NonFiniteState(f"non-finite state at t={t + h:.6g}",
                             columns=~np.isfinite(out).all(axis=0))
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

    Each step is one GEMV by ``R(hA)`` (`rk4_matrix`). ``A`` is ``(n, n)`` with
    ``x0`` of shape ``(n,)``, or a stack ``(B, n, n)`` with ``x0`` of shape
    ``(B, n)``: one system per row, stepped by one stacked ``matmul``, so each
    row gets its own GEMV and rows never mix. Returns
    ``(n_steps + 1,) + x0.shape``.

    Raises
    ------
    ValueError
        If ``h`` is not finite and > 0.
    NonFiniteState
        If any state holds NaN or Inf; its ``columns`` mark the non-finite
        rows of a stacked ``x0`` (a flat state counts as one).
    """
    _check_step(h)
    R = rk4_matrix(A, h)
    xs = np.empty((n_steps + 1,) + np.shape(x0))
    xs[0] = x0
    cols = xs[..., None]  # each state as a column, so every product is matrix @ vector
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        for k in range(n_steps):
            np.matmul(R, cols[k], out=cols[k + 1])
    finite = np.isfinite(xs).reshape(n_steps + 1, -1, xs.shape[-1]).all(axis=(0, 2))
    if not finite.all():
        raise NonFiniteState(f"non-finite linear state within {n_steps} steps of h={h:.6g}",
                             columns=~finite)
    return xs
