"""Independent oracles: custom-game finite differences and constants, the
check suite's monotonicity sampling, RK4 step by step on any system and on
a linear one, graph connectivity by breadth-first search, the closed loop,
and `run`'s draw of a box start, its bookkeeping one lifted step at a time
and its signals derived from a column's whole history.

The first are written out sample by sample or step by step, the way the
definitions read, so that the whole-array code in `nesim` is checked against
something other than itself. `composed_rhs` composes the closed-loop derivative block by
block and agent by agent from the definitions, never from the rows the
operator places: the generator from its stacked Kronecker form, the control
law from the backstepping recursion (`backstepping_feedback`) plus the top
read-out, the plant from its ``f0``/``f_levels`` (`plant_rhs`) and each
compensator from its own ``M``, ``N`` and ``Psi``.

No nesim path steps by `nesim.numerics.rk4_step` any more: it stays in the
library only as the per-stage RK4 the lifted step is held against, stepped
here by `rk4_states`, and as the per-step leaf that perfbench's tracer wraps.
"""

from __future__ import annotations

import numpy as np

from nesim.errors import NonFiniteState
from nesim.game import CustomGame, GradientConstants, extended_pseudo_gradient, pseudo_gradient
from nesim.graph import laplacian
from nesim.numerics import rk4_lifted_step, rk4_lifted_steps, rk4_matrix, rk4_step
from nesim.plant import sample_uncertainty


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

    Each sample draws ``x``, ``y`` and the estimate matrices ``Px`` and
    ``Py``; unless ``|x - y|^2 < 1e-16`` it bounds the plain map, and the
    extended map when ``|Px - Py| > 1e-8``.
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
        Px = rng.uniform(lo, hi, size=(n, n))
        Py = rng.uniform(lo, hi, size=(n, n))
        dxy = x - y
        norm2 = float(dxy @ dxy)
        if norm2 < 1e-16:
            continue
        dF = gradient(x) - gradient(y)
        mono = min(mono, float(dxy @ dF) / norm2)
        lip = max(lip, float(np.linalg.norm(dF) / np.sqrt(norm2)))
        dPn = float(np.linalg.norm((Px - Py).ravel()))
        if dPn > 1e-8:
            lip = max(lip, float(np.linalg.norm(extended(Px) - extended(Py))) / dPn)
    return mono, lip


def monotonicity_margin(game, strong_mono: float, rng: np.random.Generator) -> float:
    """`nesim check`'s sampled monotonicity margin, one pair at a time.

    For each of 1000 pairs it draws ``a``, then ``b``; unless ``|a - b|^2 <
    1e-12`` it takes ``(a - b) . (F(a) - F(b)) - m |a - b|^2`` with
    `pseudo_gradient` at ``a``, then at ``b``, and ``m`` the constant shrunk
    by 1e-9. Returns the least of them.
    """
    worst = np.inf
    for _ in range(1000):
        a = rng.uniform(-5, 5, size=game.n)
        b = rng.uniform(-5, 5, size=game.n)
        d = a - b
        dd = float(d @ d)
        if dd < 1e-12:
            continue
        gap = float(d @ (pseudo_gradient(game, a) - pseudo_gradient(game, b)))
        worst = min(worst, gap - strong_mono * dd * (1 - 1e-9))
    return worst


def rk4_states(sys, x0: np.ndarray, h: float, n_steps: int):
    """Yield the states ``x_0 .. x_n_steps`` of fixed-step RK4 on ``sys``, an `OdeSystem`.

    One `rk4_step` per step, at times ``k h``; a step that raises
    (`NonFiniteState`) ends the iteration there.
    """
    x = np.array(x0, dtype=float)
    yield x
    for k in range(n_steps):
        x = rk4_step(sys, k * h, x, h)
        yield x


def rk4_linear_stepwise(A: np.ndarray, x0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """States ``x_0 .. x_n_steps`` of RK4 on ``xdot = A x``: ``R(hA)`` applied once per step.

    ``A`` is ``(n, n)`` with ``x0`` ``(n,)`` or a stack ``(B, n, n)`` with ``x0``
    ``(B, n)``; returns ``(n_steps + 1,) + x0.shape``.
    """
    R = rk4_matrix(A, h)
    xs = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        xs.append(np.einsum("...ij,...j->...i", R, xs[-1]))
    return np.array(xs)


def box_start(scenario, seed):
    """The flat initial state and the draw of a one-seed box start, drawn as `run` draws them."""
    assert scenario.p0 is None
    rng = np.random.default_rng(seed)
    draw = sample_uncertainty(scenario.w_box, rng)
    lay, box = scenario.layout(), scenario.exo.v0_box
    v0 = rng.uniform(box[:, 0], box[:, 1])
    rest = rng.uniform(-scenario.R, scenario.R, size=lay.dim - lay.z.start)
    return np.concatenate([np.zeros(lay.v.start), v0, rest]), draw


def stepwise_run(loop, x0: np.ndarray, h: float, n_steps: int, dec: int,
                 abort_norm: float | None = None) -> list[dict]:
    """`simulation.run`'s stop rules, applied after each lifted step of ``loop``.

    ``x0`` is ``(dim, B)``. Each step is one `rk4_lifted_step` in a workspace
    built here on the loop's own ``bind``, so its generic plant fill reads
    ``loop.parked``.
    After step ``k``, column by column: a live column with a NaN or Inf entry
    diverged at ``k h`` and keeps neither this step's peak nor its sample;
    else its largest ``|value|`` joins its peak and it keeps the state when
    ``k`` is a multiple of ``dec`` or the last step; then it stops if that
    ``|value|`` passes ``abort_norm``. A stopped column is marked in
    ``loop.parked``: it is stepped on, the generic plant fill skips it, and
    nothing reads it. The run ends at ``n_steps`` or when every column has stopped.

    Returns per column ``{"kept": (K, dim), "tops": [max |x_k|, ..],
    "max_state_norm", "diverged_t", "aborted"}``, ``tops`` over the steps it
    ran, its last step included, and the signals `whole_history_signals`
    derives from ``kept``.
    """
    abort = np.inf if abort_norm is None else abort_norm
    steps = rk4_lifted_steps(loop.operator, h, loop.bind)
    parked = loop.parked
    parked[:] = False
    cols = [{"kept": [x0[:, b].copy()], "steps": [0], "tops": [], "max_state_norm": 0.0,
             "diverged_t": None, "aborted": False} for b in range(x0.shape[1])]
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            if parked.all():
                break
            x = rk4_lifted_step(steps, x)
            for b, col in enumerate(cols):
                if parked[b]:
                    continue
                top = np.abs(x[:, b]).max()
                col["tops"].append(top)
                if not top < np.inf:
                    col["diverged_t"] = k * h
                    parked[b] = True
                    continue
                col["max_state_norm"] = max(col["max_state_norm"], top)
                if k % dec == 0 or k == n_steps:
                    col["kept"].append(x[:, b].copy())
                    col["steps"].append(k)
                if top > abort:
                    col["aborted"] = parked[b] = True
    for col in cols:
        col["kept"] = np.array(col["kept"])
        col.update(whole_history_signals(loop, col["kept"], np.array(col["steps"]) * h))
    return cols


def whole_history_signals(loop, kept: np.ndarray, t: np.ndarray) -> dict:
    """A trajectory's signals, each from one column's whole history of kept states.

    ``kept`` is ``(K, dim)`` and ``t`` its times. ``u`` is the definition,
    ``U @ x`` of each kept state ``x`` on its own, and ``ne_dist`` one norm
    of every row's estimates less the stacked equilibrium: the bits
    `simulation.run`'s per-block derivation must give.
    """
    scenario = loop.scenario
    lay, n = scenario.layout(), scenario.n
    y, p = kept[:, lay.x.start:lay.x.start + n].copy(), kept[:, lay.p_diag]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged column's huge states
        return {"t": t, "y": y, "p": p, "e": y - p,
                "u": np.array([loop.control_rows @ x for x in kept]), "v": kept[:, lay.v].copy(),
                "ne_dist": np.linalg.norm(kept[:, lay.P]
                                          - np.tile(scenario.synthesized().p_star, n), axis=1)}


def bfs_connected(g) -> bool:
    """Breadth-first search over positive-weight edges reaches every node.

    The combinatorial connectivity that the spectral rule ``lambda2 > 0`` is
    held against.
    """
    n = g.n
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(g.weights[i] > 0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def unpack(loop, state):
    """One column's flat state as ``(P, v, z, x, eta)``: named, reshaped views."""
    n, lay = loop.scenario.n, loop.scenario.layout()
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


def backstepping_feedback(gains, x_bar: np.ndarray) -> np.ndarray:
    """Transformed-coordinate feedback via the recursive gain construction.

    The independent route `control_rows` is held against: fold the
    transformed chain states ``x_bar`` ``(r, N)`` one level at a time and
    feed back the top fold, with the gains ``k`` ``(N, r)`` of ``gains``.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    r = x_bar.shape[0]
    xhat = x_bar[0]
    for s in range(1, r):
        xhat = x_bar[s] + gains.k[:, s - 1] * xhat
    return -gains.k[:, r - 1] * xhat


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
    synthesis = sc.synthesized()
    P, v, z, x, eta = unpack(loop, state)
    dP = kronecker_generator(sc.game, sc.graph, sc.gains.gamma1, synthesis.gamma2)(P)
    u = backstepping_control(sc.controller_gains, synthesis.bank, P.diagonal(), x, eta,
                             loop.ablate)
    dz, dx = plant_rhs(sc.plant, z, x, u, v, loop.draws[column])
    drives = list(x[1:]) + [u]  # level s is driven by x_{s+1}, the top level by u
    deta = [np.array([level.M[i] @ eta[s][i] + level.N[i] * drives[s][i] for i in range(sc.n)])
            for s, level in enumerate(synthesis.bank.levels)]
    flat = np.concatenate([dP, sc.exo.S @ v, dz.ravel(), dx.ravel()]
                          + [d.ravel() for d in deta])
    return flat, u
