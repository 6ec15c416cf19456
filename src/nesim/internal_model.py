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
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, InvalidSpectrum, SingularMatrix, SingularT
from .numerics import lu_solve, rk4_linear

SYLVESTER_RTOL = 1e-10
HURWITZ_EPS = 1e-6
CTRB_SV_EPS = 1e-8
ROOT_REAL_EPS = 1e-8
ROOT_SEP_EPS = 1e-6
_READ_CHUNK = 1024  # compensator steps read out at a time by `verify_reproduction`


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

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(M, N, Psi, owner)``: every level's and agent's blocks, placed over ``eta``.

        ``eta`` stacks ``eta_1 (N*n_1) .. eta_r (N*n_r)``, agent-major within a
        level, and entry k belongs to compensator ``owner[k] = s*N + i`` (level
        s, agent i). With one drive per compensator, ordered like the owners,
        ``d eta = M eta + N * drive[owner]`` and the read-outs are ``Psi eta``.
        """
        n = len(self.levels[0].M)
        owner = np.repeat(np.arange(self.r * n), np.repeat([lv.order for lv in self.levels], n))
        dim = len(owner)
        M, N, Psi = np.zeros((dim, dim)), np.empty(dim), np.zeros((self.r * n, dim))
        pos = 0
        for s, level in enumerate(self.levels):
            for i in range(n):
                blk = slice(pos, pos + level.order)
                M[blk, blk], N[blk], Psi[s * n + i, blk] = level.M[i], level.N[i], level.Psi[i]
                pos += level.order
        for a in (M, N, Psi, owner):
            a.setflags(write=False)
        return M, N, Psi, owner


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

    Within a level, one Sylvester solve serves every agent whose pair holds
    the same bytes: the default pair is built once per level and shared.
    """
    levels = []
    for s, coeffs in enumerate(im_polys):
        comp = companion_from_coeffs(coeffs)
        n = comp.order
        Ms = np.empty((n_agents, n, n))
        Ns = np.empty((n_agents, n))
        Ts = np.empty((n_agents, n, n))
        Psis = np.empty((n_agents, n))
        default = None if stabilizers is not None else default_stabilizer(n, preset=preset)
        solved = {}  # (T, Psi) by the bytes of the pair they solve
        for i in range(n_agents):
            stab = default if default is not None else stabilizers[i][s]
            if stab.order != n:
                raise ValueError(f"stabilizer order {stab.order} != recurrence order {n} "
                                 f"(agent {i}, level {s + 1})")
            key = (stab.M.tobytes(), stab.N.tobytes())
            if key not in solved:
                solved[key] = solve_sylvester(comp.Phi, comp.Gamma, stab.M, stab.N)
            Ms[i], Ns[i] = stab.M, stab.N
            Ts[i], Psis[i] = solved[key]
        levels.append(LevelBank(companion=comp, M=Ms, N=Ns, T=Ts, Psi=Psis))
    return InternalModelBank(levels=tuple(levels))


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


def verify_reproduction(level: LevelBank, ts: np.ndarray, values: np.ndarray,
                        stack: np.ndarray | None = None) -> np.ndarray:
    """Worst reproduction error of sampled signals by a level's synthesized models.

    ``values`` is ``(K, N)``, one signal per agent of ``level``; returns the
    ``(N,)`` errors. Each agent's compensator state is initialized from a
    derivative stack of its signal, propagated with the conjugated dynamics
    ``T Phi T^-1``, and read out through ``Psi``. ``stack``, when given, is
    the exact ``(order, N)`` stack at ``ts[0]`` (value, first, ..., last
    derivative; `plant.SteadyState.derivative_stack`), and the compensators
    start at the first sample. Otherwise the stack is taken by central
    finite differences of ``values``, so the start is a few samples into the
    trace; a recurrence deeper than the stencils reach raises
    `InvalidParameter`. A signal whose modes match the companion's spectrum
    reproduces to the accuracy of its seed (roundoff for an exact stack, the
    stencils' accuracy otherwise); mismatched modes make the error grow,
    which is the intended negative control. The dynamics are linear, so every
    agent steps by its own RK4 step matrix ``R(hA)`` through
    `numerics.rk4_linear` (columns never mix); the states are read out a
    chunk of steps at a time and not kept.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    companion, n, agents = level.companion, level.order, len(level.T)
    if len(ts) < 2 * n + 2:
        raise ValueError("trace too short for the derivative stencils")
    if values.ndim != 2 or values.shape[1] != agents:
        raise ValueError(f"need one signal per stabilizer pair ({agents}), got {values.shape}")
    h = float(ts[1] - ts[0])
    if stack is None:
        if n > len(_FD_STENCILS):
            raise InvalidParameter(f"recurrence order {n} > {len(_FD_STENCILS)}, the most a "
                                   f"central-difference seed reaches")
        j0 = max(_FD_STENCILS[k][0][-1] for k in range(n))
        stack = _derivative_stack(values, h, n, j0)
    else:
        j0, stack = 0, np.asarray(stack, dtype=float)
        if stack.shape != (n, agents):
            raise ValueError(f"the seed stack must be ({n}, {agents}), got {stack.shape}")
    theta = np.empty((agents, n))
    A = np.empty((agents, n, n))
    for b in range(agents):
        T = level.T[b]
        theta[b] = T @ stack[:, b]
        A[b] = lu_solve(T.T, (T @ companion.Phi).T).T  # A = T Phi T^-1 from T^T A^T = (T Phi)^T

    # read-outs psi_b . theta_b per sample, elementwise so that a batch rounds as its columns
    reads = np.empty_like(values[j0:])
    last = len(reads) - 1  # >= 1, as the trace is long enough for the stencils
    for start in range(0, last, _READ_CHUNK):
        block = rk4_linear(A, theta, h, min(_READ_CHUNK, last - start))  # rows start .. start+steps
        reads[start:start + len(block)] = sum(level.Psi[:, j] * block[..., j] for j in range(n))
        theta = block[-1]
    return np.abs(reads - values[j0:]).max(axis=0, initial=0.0)
