"""Monotone game definitions, pseudo-gradient maps, and an NE oracle.

Two game kinds are supported. ``QuadraticAggregativeGame`` has per-player
costs of the form ``(y_i - h1_i)^2 + y_i * (h2_i * sum(y) + h3_i)``, whose
pseudo-gradient is affine, so constants and the equilibrium are exact.
``CustomGame`` wraps arbitrary smooth cost callables and falls back to
central finite differences (documented accuracy ~1e-5) and sampled constant
estimation over a configurable box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import NoConvergence, NotStronglyMonotone
from .numerics import lu_solve, symmetric_eigenvalues

NE_RESID_TOL = 1e-10
FD_REL_STEP = 1e-6
MAX_NE_ITERS = 100_000


@dataclass(frozen=True)
class GradientConstants:
    """Strong-monotonicity and Lipschitz constants of the gradient maps."""

    strong_mono: float
    lipschitz: float

    def __post_init__(self):
        if self.strong_mono > self.lipschitz:
            raise ValueError("strong monotonicity constant cannot exceed Lipschitz constant")


@dataclass(frozen=True)
class QuadraticAggregativeGame:
    """Aggregative game with quadratic costs, scalar strategy per player."""

    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray

    def __post_init__(self):
        for name in ("h1", "h2", "h3"):
            v = np.array(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if not (self.h1.shape == self.h2.shape == self.h3.shape) or self.h1.ndim != 1:
            raise ValueError("h1, h2, h3 must be 1-d arrays of equal length")
        if self.n < 2:
            raise ValueError("need at least 2 players")

    @property
    def n(self) -> int:
        return self.h1.shape[0]

    def cost(self, i: int, profile: np.ndarray) -> float:
        y = np.asarray(profile, dtype=float)
        return float((y[i] - self.h1[i]) ** 2 + y[i] * (self.h2[i] * y.sum() + self.h3[i]))

    def jacobian(self) -> np.ndarray:
        """Constant Jacobian of the pseudo-gradient map."""
        n = self.n
        return 2.0 * np.eye(n) + np.diag(self.h2) @ np.ones((n, n)) + np.diag(self.h2)

    def gradient_constant(self) -> np.ndarray:
        """Constant part of the affine pseudo-gradient."""
        return -2.0 * self.h1 + self.h3


@dataclass(frozen=True)
class CustomGame:
    """Game defined by per-player cost callables ``cost_i(y_i, profile)``.

    The callable must treat ``y_i`` as player i's strategy (the i-th entry
    of ``profile`` is ignored in its favor), so that estimate vectors can be
    evaluated as well as true profiles. Gradients come from central finite
    differences; constants are sampled over ``sample_box`` and are therefore
    local to that box.
    """

    costs: Sequence[Callable[[float, np.ndarray], float]]
    sample_box: np.ndarray = field(default=None)  # (n, 2) lo/hi per player

    def __post_init__(self):
        if len(self.costs) < 2:
            raise ValueError("need at least 2 players")
        box = self.sample_box
        if box is None:
            box = np.tile([-10.0, 10.0], (len(self.costs), 1))
        box = np.array(box, dtype=float)
        if box.shape != (len(self.costs), 2):
            raise ValueError("sample_box must have shape (n, 2)")
        box.setflags(write=False)
        object.__setattr__(self, "sample_box", box)
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def n(self) -> int:
        return len(self.costs)

    def cost(self, i: int, profile: np.ndarray) -> float:
        y = np.asarray(profile, dtype=float)
        return float(self.costs[i](float(y[i]), y))


GameSpec = Union[QuadraticAggregativeGame, CustomGame]


def partial_gradient(game: GameSpec, i: int, profile: np.ndarray) -> float:
    """Derivative of player i's cost with respect to its own strategy.

    Closed form for the quadratic kind; central finite difference with step
    ``1e-6 * (1 + |y_i|)`` otherwise.
    """
    y = np.asarray(profile, dtype=float)
    if isinstance(game, QuadraticAggregativeGame):
        return float(2.0 * (y[i] - game.h1[i]) + game.h2[i] * y.sum()
                     + game.h2[i] * y[i] + game.h3[i])
    step = FD_REL_STEP * (1.0 + abs(float(y[i])))
    return (game.cost(i, _with(y, i, y[i] + step)) - game.cost(i, _with(y, i, y[i] - step))) / (2.0 * step)


def _with(y: np.ndarray, i: int, value: float) -> np.ndarray:
    out = y.copy()
    out[i] = value
    return out


def pseudo_gradient(game: GameSpec, profile: np.ndarray) -> np.ndarray:
    """Stack of every player's own-cost partial derivative at one profile."""
    y = np.asarray(profile, dtype=float)
    if isinstance(game, QuadraticAggregativeGame):
        return 2.0 * (y - game.h1) + game.h2 * y.sum() + game.h2 * y + game.h3
    return np.array([partial_gradient(game, i, y) for i in range(game.n)])


def extended_pseudo_gradient(game: GameSpec, estimates: np.ndarray) -> np.ndarray:
    """Pseudo-gradient under partial-decision information.

    Row i of ``estimates`` is agent i's local copy of the full strategy
    profile (own strategy on the diagonal); entry i of the result is player
    i's partial derivative evaluated on its own row.
    """
    P = np.asarray(estimates, dtype=float)
    n = game.n
    if P.shape != (n, n):
        raise ValueError(f"estimates must be ({n}, {n})")
    if isinstance(game, QuadraticAggregativeGame):
        own = P.diagonal()
        return 2.0 * (own - game.h1) + game.h2 * P.sum(axis=1) + game.h2 * own + game.h3
    return np.array([partial_gradient(game, i, P[i]) for i in range(n)])


def _spectral_norm(M: np.ndarray) -> float:
    eigs = symmetric_eigenvalues(M.T @ M)
    return float(np.sqrt(max(eigs[-1], 0.0)))


def estimate_constants(game: GameSpec, n_samples: int = 10_000, seed: int = 0) -> GradientConstants:
    """Strong-monotonicity and Lipschitz constants of the gradient maps.

    Exact for the quadratic kind (from the constant Jacobians of both the
    plain and the extended map). For custom games the constants are sampled
    over ``game.sample_box`` with safety factors 0.8 (monotonicity) and 1.2
    (Lipschitz), and are valid only on that box.

    Raises
    ------
    NotStronglyMonotone
        If the estimated strong-monotonicity constant is not positive.
    """
    n = game.n
    if isinstance(game, QuadraticAggregativeGame):
        G = game.jacobian()
        l_mono = float(symmetric_eigenvalues((G + G.T) / 2.0)[0])
        # Rows of the extended map's Jacobian live in disjoint blocks, so its
        # spectral norm is the largest row norm of G.
        ext_norm = float(np.sqrt((G * G).sum(axis=1).max()))
        l_lip = max(_spectral_norm(G), ext_norm)
    else:
        rng = np.random.default_rng(seed)
        lo, hi = game.sample_box[:, 0], game.sample_box[:, 1]
        mono, lip = np.inf, 0.0
        for _ in range(n_samples):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            dxy = x - y
            norm2 = float(dxy @ dxy)
            if norm2 < 1e-16:
                continue
            dF = pseudo_gradient(game, x) - pseudo_gradient(game, y)
            mono = min(mono, float(dxy @ dF) / norm2)
            lip = max(lip, float(np.linalg.norm(dF)) / np.sqrt(norm2))
            # extended map sampled on random estimate matrices over the same box
            Px = rng.uniform(lo, hi, size=(n, n))
            Py = rng.uniform(lo, hi, size=(n, n))
            dP = (Px - Py).ravel()
            dPn = float(np.linalg.norm(dP))
            if dPn > 1e-8:
                dFe = extended_pseudo_gradient(game, Px) - extended_pseudo_gradient(game, Py)
                lip = max(lip, float(np.linalg.norm(dFe)) / dPn)
        l_mono = 0.8 * mono
        l_lip = 1.2 * lip
    if l_mono <= 0:
        raise NotStronglyMonotone(f"estimated strong-monotonicity constant {l_mono:.3e} <= 0")
    return GradientConstants(strong_mono=l_mono, lipschitz=max(l_lip, l_mono))


def solve_ne(game: GameSpec, tol: float = NE_RESID_TOL,
             constants: GradientConstants | None = None) -> np.ndarray:
    """Nash equilibrium of a strongly monotone game.

    The quadratic kind reduces to one linear solve. Custom games run damped
    Newton on the finite-difference pseudo-gradient with a forward-step
    fallback; their achievable residual is limited by finite-difference
    noise (~1e-8 per unit cost scale), so pass a realistic ``tol``. The
    fallback step comes from the game's constants: pass ``constants`` when
    they are already known, otherwise `estimate_constants` samples them.

    Raises
    ------
    NoConvergence
        After ``MAX_NE_ITERS`` iterations without reaching ``tol``.
    """
    if isinstance(game, QuadraticAggregativeGame):
        return lu_solve(game.jacobian(), -game.gradient_constant())

    if constants is None:
        constants = estimate_constants(game)
    n = game.n
    p = game.sample_box.mean(axis=1)
    step_fwd = constants.strong_mono / constants.lipschitz ** 2
    best = np.inf
    stalled = 0
    for _ in range(MAX_NE_ITERS):
        F = pseudo_gradient(game, p)
        resid = float(np.linalg.norm(F))
        if resid <= tol:
            return p
        # a long run without measurable progress means the finite-difference
        # noise floor sits above tol; fail early instead of grinding
        if resid < best * (1.0 - 1e-12):
            best, stalled = resid, 0
        else:
            stalled += 1
            if stalled > 50:
                break
        J = np.empty((n, n))
        for j in range(n):
            dj = FD_REL_STEP * (1.0 + abs(p[j]))
            J[:, j] = (pseudo_gradient(game, _with(p, j, p[j] + dj))
                       - pseudo_gradient(game, _with(p, j, p[j] - dj))) / (2.0 * dj)
        newton_ok = False
        try:
            delta = lu_solve(J, -F)
            alpha = 1.0
            while alpha > 1e-4:
                trial = p + alpha * delta
                if np.linalg.norm(pseudo_gradient(game, trial)) < resid:
                    p = trial
                    newton_ok = True
                    break
                alpha /= 2.0
        except SingularMatrix:
            pass
        if not newton_ok:
            p = p - step_fwd * F
    raise NoConvergence(f"NE solve stalled at residual {np.linalg.norm(pseudo_gradient(game, p)):.3e}")
