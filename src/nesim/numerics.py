"""Small dense linear-algebra kernel and fixed-step RK4 integrator.

Everything here targets desk-scale problems (matrices up to ~30x30, state
vectors up to a few hundred entries). Routines are pure functions; there is
no shared mutable state, so concurrent scenario runs may call them freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFiniteState, NotSymmetric, SingularMatrix

# Centralized tolerances.
PIVOT_EPS = 1e-12   # pivot magnitude below which a solve counts as singular
SYM_EPS = 1e-10     # allowed asymmetry for the symmetric eigensolver
OFFDIAG_EPS = 1e-12  # Jacobi convergence: off-diagonal Frobenius norm
RESID_TOL = 1e-10   # documented residual guarantee of lu_solve
MAX_JACOBI_SWEEPS = 100


@dataclass(frozen=True)
class OdeSystem:
    """A first-order ODE ``xdot = rhs(t, x)`` with a fixed state dimension."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]


def lu_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` by LU factorization with partial pivoting.

    Parameters
    ----------
    A : (n, n) array_like
        Square coefficient matrix.
    b : (n,) array_like
        Right-hand side.

    Returns
    -------
    x : (n,) ndarray
        Solution with residual ``||Ax - b|| <= 1e-10 * (1 + ||b||)`` for
        well-conditioned inputs.

    Raises
    ------
    SingularMatrix
        If any pivot magnitude falls below ``PIVOT_EPS`` after row exchange.
    """
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float).ravel()
    n = A.shape[0]
    if A.shape != (n, n) or b.shape != (n,):
        raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) < PIVOT_EPS:
            raise SingularMatrix(f"pivot {abs(A[piv, col]):.3e} in column {col}")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        factors = A[col + 1:, col] / A[col, col]
        A[col + 1:, col + 1:] -= np.outer(factors, A[col, col + 1:])
        b[col + 1:] -= factors * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def symmetric_eigenvalues(A: np.ndarray, max_sweeps: int = MAX_JACOBI_SWEEPS) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by cyclic Jacobi.

    Rotations are applied in row-cyclic order until the off-diagonal
    Frobenius norm drops below ``OFFDIAG_EPS``; the matrix is scaled to unit
    maximum magnitude first, so for desk-scale inputs the threshold is
    effectively absolute while large-norm Gram matrices still converge.

    Raises
    ------
    NotSymmetric
        If ``max|A - A^T|`` exceeds ``SYM_EPS`` (relative to the scale).
    NoConvergence
        If the off-diagonal norm is still above threshold after
        ``max_sweeps`` sweeps.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = max(float(np.abs(A).max()), 1.0)
    if n and np.abs(A - A.T).max() > SYM_EPS * scale:
        raise NotSymmetric(f"asymmetry {np.abs(A - A.T).max():.3e} exceeds {SYM_EPS * scale}")
    A = (A + A.T) / (2.0 * scale)
    if n < 2:
        return A.diagonal().copy() * scale

    def offdiag(M):
        off = M - np.diag(M.diagonal())
        return float(np.sqrt((off * off).sum()))

    for _ in range(max_sweeps):
        if offdiag(A) < OFFDIAG_EPS:
            return np.sort(A.diagonal()) * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < OFFDIAG_EPS / (n * n):
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                A[[p, q], :] = rot @ A[[p, q], :]
                A[:, [p, q]] = A[:, [p, q]] @ rot.T
    if offdiag(A) < OFFDIAG_EPS:
        return np.sort(A.diagonal()) * scale
    raise NoConvergence(f"Jacobi off-diagonal norm {offdiag(A):.3e} after {max_sweeps} sweeps")


def rk4_step(sys: OdeSystem, t: float, x: np.ndarray, h: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step.

    Raises
    ------
    NonFiniteState
        If any of the four stage evaluations produces NaN or Inf, which
        signals closed-loop divergence to the caller.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    k1 = sys.rhs(t, x)
    k2 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k1)
    k3 = sys.rhs(t + h / 2.0, x + (h / 2.0) * k2)
    k4 = sys.rhs(t + h, x + h * k3)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()
            and np.isfinite(k3).all() and np.isfinite(k4).all()):
        raise NonFiniteState(f"non-finite derivative at t={t:.6g}")
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
