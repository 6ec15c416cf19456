"""Independent oracles: custom-game finite differences and constants, the closed loop.

The first are written out sample by sample, the way the definitions read, so
that the whole-array code in `nesim.game` is checked against something other
than itself. `composed_rhs` composes the closed-loop derivative block by
block and agent by agent from the definitions, never from the rows the
operator places: the generator from its stacked Kronecker form, the control
law from the backstepping recursion plus the top read-out, the plant from
its ``f0``/``f_levels`` (`plant_rhs`) and each compensator from its own
``M``, ``N`` and ``Psi``.

No nesim path steps by `nesim.numerics.rk4_step` any more: it stays in the
library only as the per-stage RK4 the lifted step is held against and as
the per-step leaf that perfbench's tracer wraps.
"""

from __future__ import annotations

import numpy as np

from nesim.controller import backstepping_feedback
from nesim.errors import NonFiniteState
from nesim.game import CustomGame, GradientConstants, extended_pseudo_gradient
from nesim.graph import laplacian


def central_partial(cost, i: int, row: np.ndarray) -> float:
    """Player i's central difference on ``row``, each side on a fresh copy."""
    y = float(row[i])
    step = 1e-6 * (1.0 + abs(y))
    up, dn = np.array(row, dtype=float), np.array(row, dtype=float)
    up[i] = y + step
    dn[i] = y - step
    return (float(cost(y + step, up)) - float(cost(y - step, dn))) / (2.0 * step)


def central_partials(costs, blocks: np.ndarray) -> np.ndarray:
    """Entry ``(k, i)``: player i's central difference on row i of block k."""
    return np.array([[central_partial(costs[i], i, block[i]) for i in range(len(costs))]
                     for block in blocks]).reshape(len(blocks), len(costs))


def reference_constants(game: CustomGame, n_samples: int, seed: int) -> GradientConstants:
    """The sampled constants: `reference_bounds` with safety factors 0.8 and 1.2."""
    mono, lip = reference_bounds(game, n_samples, seed)
    return GradientConstants(strong_mono=0.8 * mono, lipschitz=max(1.2 * lip, 0.8 * mono))


def reference_bounds(game: CustomGame, n_samples: int, seed: int) -> tuple[float, float]:
    """Sampled monotonicity and Lipschitz bounds, one sample and one
    `Generator.uniform` call at a time.

    Each sample draws ``x`` and ``y``; unless ``|x - y|^2 < 1e-16`` it also
    draws the estimate matrices ``Px`` and ``Py``, which bound the extended
    map when ``|Px - Py| > 1e-8``.
    """
    n = game.n
    rng = np.random.default_rng(seed)
    lo, hi = game.sample_box[:, 0], game.sample_box[:, 1]

    def gradient(profile):
        return central_partials(game.costs, np.tile(profile, (1, n, 1)))[0]

    def extended(P):
        return central_partials(game.costs, P[None])[0]

    mono, lip = np.inf, 0.0
    for _ in range(n_samples):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        dxy = x - y
        norm2 = float(dxy @ dxy)
        if norm2 < 1e-16:
            continue
        dF = gradient(x) - gradient(y)
        mono = min(mono, float(dxy @ dF) / norm2)
        lip = max(lip, float(np.linalg.norm(dF) / np.sqrt(norm2)))
        Px = rng.uniform(lo, hi, size=(n, n))
        Py = rng.uniform(lo, hi, size=(n, n))
        dPn = float(np.linalg.norm((Px - Py).ravel()))
        if dPn > 1e-8:
            lip = max(lip, float(np.linalg.norm(extended(Px) - extended(Py))) / dPn)
    return mono, lip


def unpack(loop, state):
    """One column's flat state as ``(P, v, z, x, eta)``: named, reshaped views."""
    n, lay = loop.layout.n_agents, loop.layout
    return (state[lay.P].reshape(n, n), state[lay.v], state[lay.z].reshape(n, lay.n_z),
            state[lay.x].reshape(lay.r, n),
            [state[blk].reshape(n, order) for blk, order in zip(lay.eta, lay.im_orders)])


def kronecker_generator(game, graph, gamma1: float, gamma2: float):
    """``generator(P)``: ``-gamma1 Rsel^T F(P) - gamma1 gamma2 (L kron I) vec P``, stacked.

    ``Rsel`` puts player i's extended partial ``F(P)_i`` on agent i's own
    entry of ``vec P``. ``F`` is the quadratic game's closed form or, for a
    custom game, `central_partials` on each own row. ``P`` is ``(n, n)`` or
    its flat ``vec P``; the result is flat.
    """
    n = game.n
    Rsel = np.zeros((n, n * n))
    Rsel[np.arange(n), np.arange(n) * (n + 1)] = 1.0
    Lbig = np.kron(laplacian(graph), np.eye(n))

    def generator(P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float).reshape(n, n)
        if isinstance(game, CustomGame):
            F = central_partials(game.costs, P[None])[0]
        else:
            F = extended_pseudo_gradient(game, P)
        return -gamma1 * Rsel.T @ F - gamma1 * gamma2 * Lbig @ P.ravel()

    return generator


def backstepping_control(gains, bank, p, x, eta, ablate: bool = False) -> np.ndarray:
    """``u``: the backstepping fold of the error coordinates plus the top read-out.

    Each read-out ``Psi_s eta_s`` is summed per agent from its own level's
    ``Psi``; ablated, none is read.
    """
    reads = [np.zeros(len(p)) if ablate else (level.Psi * e).sum(axis=1)
             for level, e in zip(bank.levels, eta)]
    x_bar = np.vstack([x[0] - p] + [x[s] - reads[s - 1] for s in range(1, len(x))])
    return backstepping_feedback(gains, x_bar) + reads[-1]


def plant_rhs(model, z, x, u, v, w) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative ``(dz, dx)`` of the stacked plant under input ``u`` and draw ``w``.

    ``z`` is ``(N, n_z)`` and ``x`` the chain ``(r, N)``: the model's
    ``f0``/``f_levels``, the chain shifts and ``u`` on the top level.
    """
    z, x = np.asarray(z, dtype=float), np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dz = model.f0(z, x[0], v, w)
    dx = np.empty_like(x)
    for s in range(1, model.r + 1):
        drift = model.f_levels[s - 1](z, x[:s], v, w)
        dx[s - 1] = drift + (x[s] if s < model.r else u)
    if not (np.isfinite(dz).all() and np.isfinite(dx).all()):
        raise NonFiniteState("plant derivative is not finite")
    return dz, dx


def composed_rhs(loop, state, column: int = 0):
    """Closed-loop derivative and input of one column's flat state, composed per block and agent."""
    sc = loop.scenario
    P, v, z, x, eta = unpack(loop, state)
    dP = kronecker_generator(sc.game, sc.graph, sc.gains.gamma1, loop.gamma2)(P)
    u = backstepping_control(sc.controller_gains, loop.bank, P.diagonal(), x, eta, loop.ablate)
    dz, dx = plant_rhs(sc.plant, z, x, u, v, loop.draws[column])
    drives = list(x[1:]) + [u]  # level s is driven by x_{s+1}, the top level by u
    deta = [np.array([level.M[i] @ eta[s][i] + level.N[i] * drives[s][i] for i in range(sc.n)])
            for s, level in enumerate(loop.bank.levels)]
    flat = np.concatenate([dP, sc.exo.S @ v, dz.ravel(), dx.ravel()]
                          + [d.ravel() for d in deta])
    return flat, u
