"""Linear internal-model synthesis.

For each agent and each level of the integrator chain, the steady-state
signal to be reproduced satisfies a known linear recurrence with marginally
stable, distinct modes. The synthesis pairs the companion realization of
that recurrence with a chosen Hurwitz/controllable pair, conjugates them
through a Sylvester equation, and extracts the read-out row that makes the
Hurwitz copy reproduce the signal when driven appropriately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpectrum, SingularMatrix, SingularT
from .numerics import OdeSystem, integrate, lu_solve

SYLVESTER_RTOL = 1e-10
HURWITZ_EPS = 1e-6
CTRB_SV_EPS = 1e-8
ROOT_REAL_EPS = 1e-8
ROOT_SEP_EPS = 1e-6


@dataclass(frozen=True)
class CompanionPair:
    """Companion realization of a scalar recurrence plus its read-out row."""

    Phi: np.ndarray
    Gamma: np.ndarray
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return self.Phi.shape[0]


@dataclass(frozen=True)
class StabilizerPair:
    """A Hurwitz matrix and an input vector forming a controllable pair."""

    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        M = np.array(self.M, dtype=float)
        N = np.array(self.N, dtype=float).ravel()
        n = M.shape[0]
        if M.shape != (n, n) or N.shape != (n,):
            raise ValueError("M must be square and N a matching vector")
        eigs = np.linalg.eigvals(M)
        if eigs.real.max() >= -HURWITZ_EPS:
            raise ValueError(f"M is not Hurwitz: max real part {eigs.real.max():.3e}")
        ctrb = np.column_stack([np.linalg.matrix_power(M, k) @ N for k in range(n)])
        sv_min = np.linalg.svd(ctrb, compute_uv=False)[-1]
        if sv_min <= CTRB_SV_EPS:
            raise ValueError(f"(M, N) not controllable: smallest singular value {sv_min:.3e}")
        M.setflags(write=False)
        N.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "N", N)

    @property
    def order(self) -> int:
        return self.M.shape[0]


def companion_from_coeffs(coeffs: np.ndarray) -> CompanionPair:
    """Companion pair for the recurrence with the given coefficients.

    ``coeffs[k]`` multiplies the k-th derivative in the recurrence for the
    n-th derivative. The associated characteristic roots must be distinct
    with zero real parts (marginally stable, non-decaying modes); anything
    else cannot be a persistent steady-state signal generator.

    Raises
    ------
    InvalidSpectrum
        If the roots have nonzero real part or are not pairwise distinct.
    """
    c = np.array(coeffs, dtype=float).ravel()
    n = c.shape[0]
    if n < 1:
        raise ValueError("need at least one coefficient")
    # characteristic polynomial lambda^n - c[n-1] lambda^(n-1) - ... - c[0]
    roots = np.roots(np.concatenate([[1.0], -c[::-1]]))
    if roots.size and np.abs(roots.real).max() > ROOT_REAL_EPS:
        raise InvalidSpectrum(f"root real part {np.abs(roots.real).max():.3e} exceeds {ROOT_REAL_EPS}")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < ROOT_SEP_EPS:
                raise InvalidSpectrum("characteristic roots are not distinct")
    Phi = np.zeros((n, n))
    if n > 1:
        Phi[:-1, 1:] = np.eye(n - 1)
    Phi[-1, :] = c
    Gamma = np.zeros((1, n))
    Gamma[0, 0] = 1.0
    Phi.setflags(write=False)
    Gamma.setflags(write=False)
    c.setflags(write=False)
    return CompanionPair(Phi=Phi, Gamma=Gamma, coeffs=c)


def default_stabilizer(n: int, preset: str | None = None) -> StabilizerPair:
    """Companion-form Hurwitz pair used when no explicit choice is configured.

    The default spectrum is ``{-1, ..., -n}``. ``preset="sec5"`` selects the
    bundled demo's matrices, which for order 3 use the spectrum
    ``{-1, -1, -3}`` instead.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if preset == "sec5" and n == 3:
        roots = [-1.0, -1.0, -3.0]
    elif preset not in (None, "sec5"):
        raise ValueError(f"unknown stabilizer preset {preset!r}")
    else:
        roots = [-float(k) for k in range(1, n + 1)]
    poly = np.poly(roots)  # leading 1, then descending coefficients
    M = np.zeros((n, n))
    if n > 1:
        M[:-1, 1:] = np.eye(n - 1)
    M[-1, :] = -poly[1:][::-1]
    N = np.zeros(n)
    N[-1] = 1.0
    return StabilizerPair(M=M, N=N)


def solve_sylvester(Phi: np.ndarray, Gamma: np.ndarray, M: np.ndarray,
                    N: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``T Phi - M T = N Gamma`` and return ``(T, Psi = Gamma T^-1)``.

    Solved by Kronecker vectorization, which is trivially fast at these
    orders (<= 5). The spectra of the companion matrix (imaginary axis) and
    the Hurwitz matrix (open left half plane) are disjoint, so a unique
    solution exists.

    Raises
    ------
    SingularT
        If the computed conjugating matrix is numerically singular.
    """
    Phi = np.asarray(Phi, dtype=float)
    M = np.asarray(M, dtype=float)
    Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
    N = np.asarray(N, dtype=float).ravel()
    n = Phi.shape[0]
    # column-major vec: (Phi^T kron I - I kron M) vec(T) = vec(N Gamma)
    lhs = np.kron(Phi.T, np.eye(n)) - np.kron(np.eye(n), M)
    rhs = (np.outer(N, Gamma.ravel())).ravel(order="F")
    T = lu_solve(lhs, rhs).reshape((n, n), order="F")
    try:
        psi = lu_solve(T.T, Gamma.ravel())
    except SingularMatrix as exc:
        raise SingularT(str(exc)) from exc
    resid = np.linalg.norm(T @ Phi - M @ T - np.outer(N, Gamma.ravel()))
    scale = 1.0 + np.linalg.norm(np.outer(N, Gamma.ravel()))
    if resid > SYLVESTER_RTOL * scale:
        raise SingularT(f"Sylvester residual {resid:.3e} exceeds tolerance")
    return T, psi


@dataclass(frozen=True)
class LevelBank:
    """Synthesis results of one chain level, stacked across agents."""

    companion: CompanionPair
    M: np.ndarray    # (n_agents, n, n)
    N: np.ndarray    # (n_agents, n)
    T: np.ndarray    # (n_agents, n, n)
    Psi: np.ndarray  # (n_agents, n)

    @property
    def order(self) -> int:
        return self.companion.order


@dataclass(frozen=True)
class InternalModelBank:
    """Per-level synthesis data for all agents (immutable).

    The compensator states themselves live in the simulation's state vector;
    the bank holds only what the control law and the drive terms need.
    """

    levels: tuple[LevelBank, ...]

    @property
    def r(self) -> int:
        return len(self.levels)


def synthesize_bank(im_polys: Sequence[np.ndarray], n_agents: int,
                    stabilizers=None, preset: str | None = None) -> InternalModelBank:
    """Build the full internal-model bank from per-level recurrence data.

    Parameters
    ----------
    im_polys : sequence of coefficient vectors
        One recurrence per chain level (shared by all agents).
    stabilizers : optional
        ``stabilizers[agent][level]`` as `StabilizerPair`; defaults come
        from `default_stabilizer` (optionally with a preset) when omitted.
    """
    levels = []
    for s, coeffs in enumerate(im_polys):
        comp = companion_from_coeffs(coeffs)
        n = comp.order
        Ms = np.empty((n_agents, n, n))
        Ns = np.empty((n_agents, n))
        Ts = np.empty((n_agents, n, n))
        Psis = np.empty((n_agents, n))
        for i in range(n_agents):
            stab = (stabilizers[i][s] if stabilizers is not None
                    else default_stabilizer(n, preset=preset))
            if stab.order != n:
                raise ValueError(f"stabilizer order {stab.order} != recurrence order {n} "
                                 f"(agent {i}, level {s + 1})")
            T, psi = solve_sylvester(comp.Phi, comp.Gamma, stab.M, stab.N)
            Ms[i], Ns[i], Ts[i], Psis[i] = stab.M, stab.N, T, psi
        levels.append(LevelBank(companion=comp, M=Ms, N=Ns, T=Ts, Psi=Psis))
    return InternalModelBank(levels=tuple(levels))


def im_rhs(stab: StabilizerPair, eta: np.ndarray, driving: float) -> np.ndarray:
    """Compensator derivative ``M eta + N * driving`` for one agent/level."""
    return stab.M @ np.asarray(eta, dtype=float) + stab.N * float(driving)


def sylvester_residual(level: LevelBank, agent: int) -> float:
    """Frobenius residual of the synthesized Sylvester identity."""
    comp = level.companion
    lhs = level.T[agent] @ comp.Phi - level.M[agent] @ level.T[agent]
    return float(np.linalg.norm(lhs - np.outer(level.N[agent], comp.Gamma.ravel())))


_FD_STENCILS = {
    0: ([0], [1.0], 0),
    1: ([-1, 1], [-0.5, 0.5], 1),
    2: ([-1, 0, 1], [1.0, -2.0, 1.0], 2),
    3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5], 3),
    4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0], 4),
}


def _derivative_stack(values: np.ndarray, h: float, depth: int, at: int) -> np.ndarray:
    """Central-difference stack of derivatives 0 .. depth-1 at index ``at``, per signal column."""
    out = np.empty((depth,) + values.shape[1:])
    for k in range(depth):
        offsets, weights, power = _FD_STENCILS[k]
        out[k] = sum(wgt * values[at + off] for off, wgt in zip(offsets, weights)) / h ** power
    return out


def verify_reproduction(level: LevelBank, ts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Worst reproduction error of sampled signals by a level's synthesized models.

    ``values`` is ``(K, N)``, one signal per agent of ``level``; returns the
    ``(N,)`` errors. Each agent's compensator state is initialized from its
    signal's finite-difference derivative stack (central stencils, so the
    start index is a few samples into the trace), propagated with the
    conjugated dynamics ``T Phi T^-1``, and read out through ``Psi``. A
    signal whose modes match the companion's spectrum reproduces to
    finite-difference accuracy; mismatched modes make the error grow, which
    is the intended negative control. The agents are integrated as one
    ``(n, N)`` state with one GEMV per column, so columns never mix.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    companion, n, agents = level.companion, level.order, len(level.T)
    if len(ts) < 2 * n + 2:
        raise ValueError("trace too short for the derivative stencils")
    if values.ndim != 2 or values.shape[1] != agents:
        raise ValueError(f"need one signal per stabilizer pair ({agents}), got {values.shape}")
    h = float(ts[1] - ts[0])
    j0 = max(_FD_STENCILS[k][0][-1] for k in range(n))
    stack = _derivative_stack(values, h, n, j0)
    theta0 = np.empty_like(stack)
    # conjugated dynamics A = T Phi T^-1, from T^T A^T = (T Phi)^T; each A_b is stored
    # column-major, as the transposed solve returns it, which sets how its GEMV rounds
    A3 = np.empty((agents, n, n)).transpose(0, 2, 1)
    for b in range(agents):
        # T in the column-major layout `solve_sylvester` returns it: the bank stores it
        # row-major, and the products below round differently in that layout
        T = np.asfortranarray(level.T[b])
        theta0[:, b] = T @ stack[:, b]
        A3[b] = lu_solve(T.T, (T @ companion.Phi).T).T
    psi3 = level.Psi.reshape(agents, 1, n)

    # read-outs psi_b . theta_b per sample; a sample past the last step keeps error 0
    reads = values[j0:].copy()

    def observer(step, t, theta):
        if step < len(reads):
            # a contiguous theta_b makes each read-out the same dot as for one column
            np.matmul(psi3, np.ascontiguousarray(theta.T)[..., None],
                      out=reads[step, :, None, None])

    def rhs(t, theta):
        out = np.empty_like(theta)
        np.matmul(A3, theta.T[..., None], out=out.T[..., None])
        return out

    integrate(OdeSystem(n, rhs), theta0, ts[j0], ts[-1], h, observer)
    return np.abs(reads - values[j0:]).max(axis=0, initial=0.0)
