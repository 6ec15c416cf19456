"""Checked dense linear algebra (LAPACK via NumPy) and a fixed-step RK4 integrator.

Nonlinear systems step through `rk4_step`/`integrate`. A linear system
``xdot = A x`` steps through `rk4_linear`: there one RK4 step is exactly
``x+ = R(hA) x``, with `rk4_matrix` giving RK4's step matrix ``R(hA)``.

Everything here targets desk-scale problems (matrices up to ~30x30, state
vectors up to a few hundred entries). Routines are pure functions; there is
no shared mutable state, so concurrent scenario runs may call them freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def rk4_step(sys: OdeSystem, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step.

    ``x`` is one state ``(dim,)`` or a batch of independent states
    ``(dim, B)``, one per column.

    Raises
    ------
    NonFiniteState
        If the weighted stage sum ``k1 + 2 k2 + 2 k3 + k4`` holds NaN or Inf,
        which signals closed-loop divergence to the caller; its ``columns``
        mark the non-finite columns. The weights are positive, so any
        non-finite stage evaluation makes the sum non-finite; the sum can
        also overflow to Inf from finite stages.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
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
              observer: Callable[[int, float, np.ndarray], None] | None = None) -> np.ndarray:
    """Integrate with fixed-step RK4 from ``t0`` to ``t_final``.

    ``observer(step_index, t, x)`` is invoked at the initial state and after
    every step; it is the hook trajectory recorders attach to. Returns the
    final state. Divergence surfaces as ``NonFiniteState`` from `rk4_step`.
    """
    x = np.array(x0, dtype=float)
    n_steps = int(round((t_final - t0) / h))
    t = t0
    if observer is not None:
        observer(0, t, x)
    for k in range(1, n_steps + 1):
        x = rk4_step(sys, t, x, h)
        t = t0 + k * h
        if observer is not None:
            observer(k, t, x)
    return x


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
        If ``h <= 0``.
    NonFiniteState
        If any state holds NaN or Inf; its ``columns`` mark the non-finite
        rows of a stacked ``x0`` (a flat state counts as one).
    """
    if h <= 0:
        raise ValueError("step size must be positive")
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
