"""Independent oracles: custom-game finite differences and constants, the closed loop.

The first are written out sample by sample, the way the definitions read, so
that the whole-array code in `nesim.game` is checked against something other
than itself. `composed_rhs` composes the closed-loop derivative block by
block, not from the assembled operator. Its generator and control law are
`generator_rhs` and `control_law`, which evaluate the same rows the operator
places, so it checks the placement and the wiring between blocks; the rows
themselves are checked against the stacked Kronecker form, the backstepping
recursion and the Sylvester identity in the block tests.
"""

from __future__ import annotations

import numpy as np

from nesim.controller import control_law
from nesim.game import CustomGame, GradientConstants
from nesim.generator import GeneratorGains, generator_rhs
from nesim.plant import PlantState, exo_rhs, plant_rhs


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


def composed_rhs(loop, state, column: int = 0):
    """Closed-loop derivative and input of one column's flat state, composed per block and agent."""
    sc = loop.scenario
    P, v, z, x, eta = loop.unpack(state)
    plant = PlantState(z=z, x=x)
    dP = generator_rhs(sc.game, sc.graph, GeneratorGains(sc.gains.gamma1, loop.gamma2), P)
    u = control_law(sc.controller_gains, loop.bank, plant, eta, P.diagonal(), ablate=loop.ablate)
    dz, dx = plant_rhs(sc.plant, plant, u, v, loop.draws[column])
    drives = list(x[1:]) + [u]  # level s is driven by x_{s+1}, the top level by u
    deta = [np.array([level.M[i] @ eta[s][i] + level.N[i] * drives[s][i] for i in range(sc.n)])
            for s, level in enumerate(loop.bank.levels)]
    flat = np.concatenate([dP.ravel(), exo_rhs(sc.exo, v), dz.ravel(), dx.ravel()]
                          + [d.ravel() for d in deta])
    return flat, u
