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
from itertools import cycle
from typing import Callable, Sequence, Union

import numpy as np

from .errors import NoConvergence, NotStronglyMonotone, SingularMatrix
from .numerics import lu_solve, symmetric_eigenvalues

NE_RESID_TOL = 1e-10
FD_REL_STEP = 1e-6
MAX_NE_ITERS = 100_000
# Bound on the temporaries of one chunk of `estimate_constants` samples for a
# custom game: the draws, their mapped values, the block and profile stacks and the
# cost calls' strategies as Python floats. A memory bound: the draw stream does not
# depend on it.
SAMPLE_CHUNK_BYTES = 2 ** 20


@dataclass(frozen=True)
class GradientConstants:
    """Strong-monotonicity and Lipschitz constants of the gradient maps."""

    strong_mono: float
    lipschitz: float

    def __post_init__(self):
        object.__setattr__(self, "strong_mono", float(self.strong_mono))
        object.__setattr__(self, "lipschitz", float(self.lipschitz))
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
        if not all(np.isfinite(getattr(self, name)).all() for name in ("h1", "h2", "h3")):
            raise ValueError("h1, h2, h3 must be finite")
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
    evaluated as well as true profiles. Each call, `cost` included, gets a
    fresh ``profile`` array of its own, which the callable may modify, and
    the calls come in a fixed order for a given scenario and seed. The
    callable must be a deterministic function of its arguments: the closed
    loop makes up to ``8 n`` calls per RK4 step per distinct estimate block
    of a batch (`generator.partials_bind`): two per player and stage whose
    own strategy is not NaN (`row_partial`). `estimate_constants` makes
    ``8 n`` per sample. Gradients come from central finite differences;
    constants are sampled over ``sample_box``, whose rows must be finite
    with ``lo < hi``, and are therefore local to that box.
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
        if not (np.isfinite(box).all() and (box[:, 0] < box[:, 1]).all()):
            raise ValueError(f"sample_box rows must be finite with lo < hi, got {box.tolist()}")
        box.setflags(write=False)
        object.__setattr__(self, "sample_box", box)
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def n(self) -> int:
        return len(self.costs)

    def cost(self, i: int, profile: np.ndarray) -> float:
        y = np.array(profile, dtype=float)  # the callable's own copy
        return float(self.costs[i](float(y[i]), y))


GameSpec = Union[QuadraticAggregativeGame, CustomGame]


def partial_gradient(game: GameSpec, i: int, profile: np.ndarray) -> float:
    """Derivative of player i's cost with respect to its own strategy.

    Entry i of `pseudo_gradient`, bit for bit where ``profile[i]`` is not NaN: closed
    form for the quadratic kind, player i's `row_partial` alone (two cost calls) otherwise.
    """
    if isinstance(game, QuadraticAggregativeGame):
        return float(pseudo_gradient(game, profile)[i])
    return row_partial(game.costs[i], i, np.broadcast_to(np.asarray(profile, dtype=float), game.n))


def row_partial(cost: Callable[[float, np.ndarray], float], i: int, row: np.ndarray) -> float:
    """Player i's central difference along its own strategy on the profile ``row``.

    The stencil of `_stencil_sides` and `_stencil_quotient` at one row; the
    upward call comes first. Each cost call gets a fresh copy of ``row``, so a
    callable that writes into its profile affects nothing else. A NaN own
    strategy makes the step NaN, so the partial is NaN whatever the costs
    return: it is returned without a call. `_central_partials` runs the same
    stencil on a stack of blocks.
    """
    y = row.item(i)  # float(row[i]), without the NumPy scalar
    if y != y:
        return y
    step, y_up, y_dn = _stencil_sides(y)
    up, dn = row.copy(), row.copy()
    up[i], dn[i] = y_up, y_dn
    return _stencil_quotient(float(cost(y_up, up)), float(cost(y_dn, dn)), step)


def _stencil_sides(y):
    """The stencil's step ``FD_REL_STEP * (1 + |y|)`` at own strategy ``y``, then ``y +- step``.

    ``y`` is a float or an array; each entry gets the bits the float would.
    """
    step = FD_REL_STEP * (1.0 + abs(y))
    return step, y + step, y - step


def _stencil_quotient(up, dn, step):
    """The central difference of the upward and downward costs ``up``, ``dn`` at ``step``."""
    return (up - dn) / (2.0 * step)


def _central_partials(costs, blocks: np.ndarray) -> np.ndarray:
    """`row_partial` of every player on its own row of each block of a ``(K, n, n)`` stack.

    Entry ``(k, i)`` of the ``(K, n)`` result is player i's partial on row i
    of block k, with `row_partial`'s bits where its strategy is not NaN. The
    ``2 K n`` profiles are one fresh ``(K, 2n, n)`` stack, row ``2i`` (upward)
    and ``2i + 1`` (downward) of block k being its row i with the diagonal
    entry moved; the steps and quotients are whole arrays, and only the cost
    calls loop. The calls run block by block, player by player, upward first,
    each on its own row of the stack, which no other call sees. Deterministic
    callables give equal blocks equal partials: `generator.partials_bind`
    relies on that to run one stencil per distinct block of a batch.
    """
    K, n = blocks.shape[:2]
    # the arithmetic is silent on overflow and inf - inf, as it is on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        step, y_up, y_dn = _stencil_sides(blocks.diagonal(axis1=1, axis2=2))
        sides = np.stack((y_up, y_dn), axis=-1).reshape(K, 2 * n)
    profiles = np.repeat(blocks, 2, axis=1)
    own = np.arange(2 * n)
    profiles.reshape(K, 2 * n * n)[:, own * n + own // 2] = sides  # row j, column j // 2
    calls = zip(sides.ravel().tolist(), profiles.reshape(2 * K * n, n),
                cycle([cost for cost in costs for _ in range(2)]))
    values = np.fromiter((float(cost(y, row)) for y, row, cost in calls), float,
                         2 * K * n).reshape(K, n, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        return _stencil_quotient(values[..., 0], values[..., 1], step)


def pseudo_gradient(game: GameSpec, profile: np.ndarray) -> np.ndarray:
    """Stack of every player's own-cost partial derivative at one profile.

    The extended pseudo-gradient with every agent's estimate at ``profile``.
    """
    return extended_pseudo_gradient(game, np.broadcast_to(np.asarray(profile, dtype=float),
                                                          (game.n, game.n)))


def extended_pseudo_gradient(game: GameSpec, estimates: np.ndarray) -> np.ndarray:
    """Pseudo-gradient under partial-decision information.

    Row i of ``estimates`` is agent i's local copy of the full strategy
    profile (own strategy on the diagonal); entry i of the result is player
    i's partial derivative evaluated on its own row. A stack ``(..., n, n)``
    of estimate matrices gives the stack ``(..., n)`` of their gradients.
    """
    P = np.asarray(estimates, dtype=float)
    n = game.n
    if P.shape[-2:] != (n, n):
        raise ValueError(f"estimates must be ({n}, {n}) or a stack of them")
    if isinstance(game, QuadraticAggregativeGame):
        own = P.diagonal(axis1=-2, axis2=-1)
        return 2.0 * (own - game.h1) + game.h2 * P.sum(axis=-1) + game.h2 * own + game.h3
    return _central_partials(game.costs, P.reshape(-1, n, n)).reshape(P.shape[:-1])


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
        l_lip = max(float(np.linalg.norm(G, 2)), ext_norm)
    else:
        mono, lip = _sampled_constants(game, n_samples, seed)
        l_mono = 0.8 * mono
        l_lip = 1.2 * lip
    if l_mono <= 0:
        raise NotStronglyMonotone(f"estimated strong-monotonicity constant {l_mono:.3e} <= 0")
    return GradientConstants(strong_mono=l_mono, lipschitz=max(l_lip, l_mono))


def _sampled_constants(game: CustomGame, n_samples: int, seed: int) -> tuple[float, float]:
    """Sampled ``(monotonicity, Lipschitz)`` bounds of a custom game, before safety factors.

    Each sample draws ``x, y ~ U(box)`` and two ``(n, n)`` estimate matrices
    ``Px, Py ~ U(box)`` for the extended map, row by row, whether or not it
    is skipped. A sample with ``|x - y|^2 < 1e-16`` is skipped: it makes no
    cost call and counts toward neither bound. ``Px, Py`` count toward the
    Lipschitz bound when ``|Px - Py| > 1e-8``. The draws come in chunks of
    whole-array uniforms, ``lo + (hi - lo) * u`` as `Generator.uniform`
    computes them, ``2n + 2`` rows of ``n`` per sample in the stream order
    of one sample at a time, so they do not depend on the chunk size. All
    the gradients of a chunk come from one `_central_partials` call on the
    stack of blocks ``x, y, Px, Py`` of its samples that are not skipped.
    """
    n = game.n
    rng = np.random.default_rng(seed)
    lo, hi = game.sample_box[:, 0], game.sample_box[:, 1]
    # per sample: about eight times its 2n(n + 1) draws, its (4, 2n, n) profile stack,
    # and for each of its 8n cost calls 64 bytes: its strategy as a Python float in a
    # list (32 bytes with the slot) and its entries in the stencil's arrays
    chunk = max(1, SAMPLE_CHUNK_BYTES // (8 * 8 * 2 * n * (n + 1) + 8 * 8 * n * n
                                          + 8 * n * 2 * 32))
    mono, lip = np.inf, 0.0
    for done in range(0, n_samples, chunk):
        m = min(chunk, n_samples - done)
        draws = lo + (hi - lo) * rng.random((m, 2 * n + 2, n))
        d = draws[:, 0] - draws[:, 1]
        norm2 = np.vecdot(d, d)
        kept = norm2 >= 1e-16
        draws, d, norm2 = draws[kept], d[kept], norm2[kept]
        k = len(draws)
        blocks = np.empty((k, 4, n, n))  # x, y, Px, Py
        blocks[:, :2] = draws[:, :2, None]
        blocks[:, 2:] = draws[:, 2:].reshape(k, 2, n, n)
        F = _central_partials(game.costs, blocks.reshape(4 * k, n, n)).reshape(k, 4, n)
        dF, dFe = F[:, 0] - F[:, 1], F[:, 2] - F[:, 3]
        dP = (blocks[:, 2] - blocks[:, 3]).reshape(k, n * n)
        dPn = np.sqrt(np.vecdot(dP, dP))
        wide = dPn > 1e-8
        # fmin/fmax pass over a NaN ratio (a cost that is NaN somewhere in the box)
        mono = np.fmin.reduce(np.vecdot(d, dF) / norm2, initial=mono)
        lip = np.fmax.reduce(np.concatenate([
            np.sqrt(np.vecdot(dF, dF)) / np.sqrt(norm2),
            np.sqrt(np.vecdot(dFe[wide], dFe[wide])) / dPn[wide]]), initial=lip)
    return float(mono), float(lip)


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
        # column j from the pseudo-gradients at p +- dj e_j, all 2n of them in one
        # stack of broadcast profiles: up_0, dn_0, up_1, ...
        dj, p_up, p_dn = _stencil_sides(p)
        shifted, cols = np.repeat(p[None], 2 * n, axis=0), np.arange(n)
        shifted[2 * cols, cols], shifted[2 * cols + 1, cols] = p_up, p_dn
        Fs = _central_partials(game.costs, np.broadcast_to(shifted[:, None], (2 * n, n, n)))
        J = _stencil_quotient(Fs[0::2], Fs[1::2], dj[:, None]).T
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
