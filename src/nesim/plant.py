"""Lower-triangular uncertain agent dynamics, exosystem, steady-state chain.

All plant callables are vectorized across the agent axis: states carry a
leading agent dimension and the uncertainty vector ``w`` is shared (each
callable slices out its per-agent parameters). The built-in example plant
has relative degree 2, one zero-dynamics state per agent, and six uncertain
parameters per agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvalidParameter, require
from .numerics import rk4_linear

ORIGIN_EQ_TOL = 1e-12
V_FD_STEP = 1e-5
# samples per `steady_drift` pass: the broadcast draws, the lifted states and J stay small
STEADY_DRIFT_CHUNK = 128


def checked_box(name: str, box, rows: int) -> np.ndarray:
    """``box`` as a read-only ``(rows, 2)`` finite float array with lo <= hi in every row.

    Any other box is a `ValueError` naming the scenario-file field ``name``.
    """
    box = np.array(box, dtype=float)
    require(name, box.shape, box.shape == (rows, 2), f"of shape ({rows}, 2)")
    require(name, box.tolist(), np.isfinite(box).all(), "finite")
    bad = np.flatnonzero(~(box[:, 0] <= box[:, 1]))  # NaN bounds are not ordered either
    require(name, f"row {bad[0]} = {box[bad[0]].tolist()}" if bad.size else None,
            bad.size == 0, "lo <= hi in every row")
    box.setflags(write=False)
    return box


@dataclass(frozen=True)
class Exosystem:
    """Autonomous disturbance generator ``vdot = S v`` with initial-set box.

    Checked here, named as in the scenario file: ``exosystem.S`` and ``plant.v0_box``.
    """

    S: np.ndarray
    v0_box: np.ndarray  # (n_v, 2) lo/hi per coordinate

    def __post_init__(self):
        S = np.array(self.S, dtype=float)
        require("exosystem.S", S.shape, S.ndim == 2 and S.shape[0] == S.shape[1], "square")
        require("exosystem.S", S.tolist(), np.isfinite(S).all(), "finite")
        S.setflags(write=False)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "v0_box", checked_box("plant.v0_box", self.v0_box, self.n_v))

    @property
    def n_v(self) -> int:
        return self.S.shape[0]


def exo_trajectory(exo: Exosystem, v0: np.ndarray, t_final: float, h: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Sampled disturbance trajectory on a uniform grid (RK4): times (K,), states (K, n_v).

    The exosystem is linear, so each RK4 step is one GEMV by ``R(hS)``.
    """
    n_steps = int(round(t_final / h))
    return np.arange(n_steps + 1) * h, rk4_linear(exo.S, np.asarray(v0, dtype=float), h, n_steps)


def sample_uncertainty(box: np.ndarray, seed) -> np.ndarray:
    """One uniform draw ``(n_w,)`` from the box; identical seeds give identical draws."""
    box = np.array(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or box.shape[0] == 0:
        raise ValueError("box must be (n_w, 2) with n_w >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.uniform(box[:, 0], box[:, 1])


@dataclass(frozen=True)
class PlantModel:
    """Lower-triangular dynamics shared by all agents.

    ``f0(z, x1, v, w)`` drives the zero-dynamics block; ``f_levels[s-1]``
    is the drift of the s-th integrator (its arguments are ``z`` and the
    states ``x_1 .. x_s``). ``steady_zero(s, v, w)`` is the zero-dynamics
    steady-state map on a stack of disturbance states: ``v`` of shape
    ``(..., n_v)`` gives ``(..., N, n_z)``, each row from its own state
    alone, so one call covers one state or a whole trace. ``im_polys``
    holds the recurrence coefficients of the steady-state signals per level
    (level r's entry describes the feedforward input). ``f0`` and
    ``f_levels`` take one state. ``steady_poly``, when provided, returns exact
    constant/linear/quadratic-in-v representations of those signals and
    unlocks machine-precision diagnostics. ``split``, when provided, returns
    the drift with a stack of draws ``w`` folded in as one linear map per
    draw over the state and a few features of it (see `drift_split`); it
    must agree with ``f0``/``f_levels``.
    """

    n_agents: int
    r: int
    n_z: int
    n_w: int
    f0: Callable
    f_levels: Sequence[Callable]
    steady_zero: Callable
    im_polys: Sequence[np.ndarray]
    steady_poly: Callable | None = None
    split: Callable | None = None  # optional: (B, n_w) draws -> (J, features), see `drift_split`
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("relative degree must be >= 1")
        if len(self.f_levels) != self.r:
            raise ValueError("need one drift callable per integrator level")
        if len(self.im_polys) != self.r:
            raise ValueError("need recurrence coefficients for every level")
        object.__setattr__(self, "f_levels", tuple(self.f_levels))
        object.__setattr__(self, "im_polys",
                           tuple(np.array(c, dtype=float) for c in self.im_polys))


@dataclass(frozen=True)
class PlantFeatures:
    """The features ``phi`` of the plant drift: ``count`` rows, written by a bound fill.

    ``bind(zx, v, out)`` takes views ``zx`` of shape ``(n_zx, B)``, ``v`` of
    shape ``(n_v, B)`` and ``out``, the ``(count, B)`` feature rows, and
    returns ``fill()``: each call overwrites ``out`` from what ``zx`` and
    ``v`` hold at that moment. Column ``b`` reads only column ``b`` (and
    draw ``b``). Binding once lets a stepper refill the same rows every
    stage without slicing them again.
    """

    count: int
    bind: Callable


def drift_split(model: PlantModel, w: np.ndarray, n_v: int) -> tuple[np.ndarray, PlantFeatures]:
    """The plant drift for a stack of draws as ``J_b @ [zx, v, phi(zx, v)]``.

    ``w`` is ``(B, n_w)``, one draw per row; the batch is the trailing axis
    of the states. The drift is the stack of ``f0`` and ``f_levels`` (the
    chain shifts and the input are not part of it) over the flat state
    ``zx = [z, x]`` (``z`` agent-major, ``x`` level-major). It is linear in
    ``zx``, the leading ``v_cols`` disturbance coordinates and the features
    ``phi`` (see `PlantFeatures`), so ``J`` is ``(B, n_zx, n_zx + v_cols +
    count)``: per draw, one row per ``zx`` entry and the coefficients of
    ``zx``, of those disturbance coordinates and of the features, in that
    order, ``0 <= v_cols <= n_v``. A ``split`` hook supplies both, checked
    here: a hook that breaks this, or whose ``bind`` returns no fill, is a
    `ConfigError`. Any other model gets ``f0`` (raveled) and ``f_levels`` as
    features, ``1 + r`` calls per column and fill with the column's draw,
    against an identity block of ``J``. Either fill fills every column at every call.
    """
    W = np.asarray(w, dtype=float)
    if W.ndim != 2:
        # a flat draw would broadcast (n, 1) coefficients against (n,) states
        raise ValueError(f"drift_split expects a (B, n_w) stack of draws, got shape {W.shape}")
    n, r, n_z = model.n_agents, model.r, model.n_z
    dim = n * n_z + r * n
    if model.split is not None:
        result = model.split(W)
        pair = isinstance(result, tuple) and len(result) == 2
        J, features = result if pair else (result, None)
        valid = (isinstance(J, np.ndarray) and isinstance(features, PlantFeatures)
                 and J.ndim == 3 and J.shape[:2] == (len(W), dim))
        v_cols = J.shape[2] - dim - features.count if valid else -1
        if not 0 <= v_cols <= n_v:
            got = f"shape {J.shape}" if isinstance(J, np.ndarray) else f"type {type(J).__name__}"
            raise ConfigError(
                f"plant split hook returned J of {got} and a "
                f"{type(features).__name__}; the hook takes a (B, n_w) stack of draws and "
                f"returns J of shape (B, {dim}, {dim} + v_cols + count), 0 <= v_cols <= "
                f"{n_v}, the coefficients of zx, of the leading v_cols disturbance "
                f"coordinates and of the features, and PlantFeatures(count, bind), where "
                f"bind(zx, v, out) returns fill(), which writes the (count, B) features that "
                f"zx and v give into out")

        def checked_bind(zx, v, out):
            if callable(fill := features.bind(zx, v, out)):
                return fill
            raise ConfigError(  # a hook written for the former fill(zx, v, out)
                f"plant split hook: PlantFeatures(count, bind) needs bind(zx, v, out) to "
                f"return fill(), which writes the (count, B) features that zx and v give "
                f"into out; it returned {type(fill).__name__}")
        return J, PlantFeatures(features.count, checked_bind)

    f0, f_levels = model.f0, model.f_levels

    def bind(zx, v, out):
        # per column: f0's views, its draw and rows, and one (f, xs, dx) per level; a 1-D
        # column reshapes without a copy, so the views see what zx holds at each fill
        columns = []
        for col, vc, wv, dcol in zip(zx.T, v.T, W, out.T):
            z, x = col[:n * n_z].reshape(n, n_z), col[n * n_z:].reshape(r, n)
            levels = tuple((f, x[:s + 1], dcol[n * n_z + s * n:n * n_z + (s + 1) * n])
                           for s, f in enumerate(f_levels))
            columns.append((z, x[0], vc, wv, dcol[:n * n_z], levels))

        def fill():
            for z, x1, vc, wv, dz, levels in columns:
                dz[:] = np.asanyarray(f0(z, x1, vc, wv)).ravel()  # np.ravel, without its dispatch
                for f, xs, dx in levels:
                    dx[:] = f(z, xs, vc, wv)

        return fill

    J = np.zeros((len(W), dim, 2 * dim))
    J[:, np.arange(dim), dim + np.arange(dim)] = 1.0
    return J, PlantFeatures(dim, bind)


# ---------------------------------------------------------------------------
# Exact polynomial-in-v signal representation (constant + linear + quadratic)


@dataclass(frozen=True)
class VPoly:
    """Per-agent scalar signals ``c0_i + c1_i . v + v^T C2_i v``.

    Closed under time differentiation along ``vdot = S v``, which is what
    makes steady-state derivative stacks exact for polynomial plants.
    """

    c0: np.ndarray        # (N,)
    c1: np.ndarray        # (N, n_v)
    c2: np.ndarray        # (N, n_v, n_v), symmetric in the last two axes

    @classmethod
    def affine(cls, c0: np.ndarray, c1: np.ndarray) -> "VPoly":
        c0 = np.asarray(c0, dtype=float)
        c1 = np.asarray(c1, dtype=float)
        return cls(c0, c1, np.zeros((c0.shape[0], c1.shape[1], c1.shape[1])))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Signals at one state ``(n_v,)``, giving ``(N,)``, or at a stack ``(..., n_v)``."""
        v = np.asarray(v, dtype=float)
        return (self.c0 + np.matmul(self.c1, v[..., None])[..., 0]
                + np.einsum("ijk,...j,...k->...i", self.c2, v, v))

    def time_derivative(self, S: np.ndarray) -> "VPoly":
        """Derivative along the exosystem flow, again a `VPoly`."""
        c1 = self.c1 @ S
        c2 = np.einsum("jl,ilk->ijk", S.T, self.c2) + np.einsum("ijl,lk->ijk", self.c2, S)
        return VPoly(np.zeros_like(self.c0), c1, c2)

    def stack(self, S: np.ndarray, depth: int, v: np.ndarray) -> np.ndarray:
        """Derivative stack ``(depth, N)``: value, 1st, ... (depth-1)-th derivative."""
        out = np.empty((depth, self.c0.shape[0]))
        poly = self
        for k in range(depth):
            out[k] = poly(v)
            if k + 1 < depth:
                poly = poly.time_derivative(S)
        return out

    @staticmethod
    def product_affine(a: "VPoly", b: "VPoly") -> "VPoly":
        """Product of two affine signals (quadratic result)."""
        if np.abs(a.c2).max() > 0 or np.abs(b.c2).max() > 0:
            raise ValueError("product only supported for affine factors")
        c0 = a.c0 * b.c0
        c1 = a.c0[:, None] * b.c1 + b.c0[:, None] * a.c1
        outer = np.einsum("ij,ik->ijk", a.c1, b.c1)
        c2 = (outer + outer.transpose(0, 2, 1)) / 2.0
        return VPoly(c0, c1, c2)

    def scaled(self, factor: np.ndarray) -> "VPoly":
        f = np.asarray(factor, dtype=float)
        return VPoly(self.c0 * f, self.c1 * f[:, None], self.c2 * f[:, None, None])

    def plus(self, other: "VPoly") -> "VPoly":
        return VPoly(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)


# ---------------------------------------------------------------------------
# Steady-state signal chain


class SteadyState:
    """Steady-state signals of all agents for a fixed equilibrium and draw.

    ``x_star(1)`` is the (possibly still moving) reference itself; higher
    levels and the feedforward input are functions of the disturbance state
    only. Models that provide ``steady_poly`` get exact evaluation and
    derivative stacks; otherwise the chain is built by the generic recursion
    with central differences in ``v`` (step ``V_FD_STEP``).
    """

    def __init__(self, model: PlantModel, p_star: np.ndarray, exo: Exosystem, w: np.ndarray):
        self.model = model
        self.p_star = np.asarray(p_star, dtype=float)
        self.exo = exo
        self.w = np.asarray(w, dtype=float)
        self._polys = None
        if model.steady_poly is not None:
            self._polys = model.steady_poly(self.p_star, self.w, exo.S)

    def z_star(self, v: np.ndarray) -> np.ndarray:
        """Zero-dynamics steady state: ``(N, n_z)`` at one ``v``, ``(K, N, n_z)`` on a stack.

        One call of the model's ``steady_zero`` covers the whole stack. A result
        of any other shape is a `ConfigError`, so a hook written for one state
        fails here rather than broadcasting into a wrong residual.
        """
        v = np.asarray(v, dtype=float)
        model = self.model
        z = np.asarray(model.steady_zero(self.p_star, v, self.w))
        want = v.shape[:-1] + (model.n_agents, model.n_z)
        if z.shape != want:
            raise ConfigError(f"plant.steady_zero returned shape {z.shape} for v of shape "
                              f"{v.shape}; it must map (..., n_v) to (..., N, n_z), "
                              f"here {want}")
        return z

    def x_star(self, s: int, v: np.ndarray) -> np.ndarray:
        """Level-s steady-state signal, ``s`` in ``1 .. r+1`` (r+1 = input).

        ``v`` is one disturbance state ``(n_v,)``, giving ``(N,)``, or a stack
        ``(K, n_v)``, giving ``(K, N)``. The polynomial chain evaluates a stack
        as a whole array; the generic chain row by row, because the model's
        callables take one state.
        """
        v = np.asarray(v, dtype=float)
        if s == 1:
            return np.broadcast_to(self.p_star, v.shape[:-1] + self.p_star.shape).copy()
        if self._polys is not None:
            return self._polys[s - 2](v)
        level = self._generic_level(s)
        return level(v) if v.ndim == 1 else _per_row(level, v)

    def derivative_stack(self, s: int, v: np.ndarray, depth: int) -> np.ndarray:
        """Exact time-derivative stack of the level-s signal (needs polys)."""
        if self._polys is None:
            raise NotImplementedError("model provides no polynomial steady-state form")
        return self._polys[s - 2].stack(self.exo.S, depth, np.asarray(v, dtype=float))

    def _generic_level(self, s: int) -> Callable:
        model, w, p_star = self.model, self.w, self.p_star

        if s == 2:
            def level2(v):
                return -model.f_levels[0](self.z_star(v), p_star[None, :], v, w)
            return level2

        prev = self._generic_level(s - 1)

        def level(v):
            v = np.asarray(v, dtype=float)
            sv = self.exo.S @ v
            # (d prev / dv) S v by central differences in each v coordinate
            total = np.zeros(p_star.shape[0])
            for j in range(v.shape[0]):
                dv = np.zeros(v.shape[0])
                dv[j] = V_FD_STEP
                total += (prev(v + dv) - prev(v - dv)) / (2.0 * V_FD_STEP) * sv[j]
            stars = np.vstack([p_star[None, :]]
                              + [self.x_star(k, v)[None, :] for k in range(2, s)])
            drift = model.f_levels[s - 2](self.z_star(v), stars, v, w)
            return total - drift

        return level


def _per_row(fn, *stacks) -> np.ndarray:
    """``fn`` of each row of the stacks, stacked: the model's callables take one sample.

    The results fill one array as they come, so a long trace never holds a
    list of small arrays.
    """
    out = np.empty(0)
    for k, row in enumerate(zip(*stacks)):
        value = fn(*row)
        if k == 0:
            out = np.empty((len(stacks[0]),) + np.shape(value))
        out[k] = value
    return out


def steady_state_chain(model: PlantModel, p_star: np.ndarray, exo: Exosystem,
                       w: np.ndarray) -> SteadyState:
    """Build the steady-state signal chain for a fixed equilibrium and draw."""
    return SteadyState(model, p_star, exo, w)


# ---------------------------------------------------------------------------
# Built-in example plant


def example_plant(g: np.ndarray) -> PlantModel:
    """Relative-degree-2 benchmark plant with six uncertain parameters per agent.

    Per agent (parameters ``g1 .. g6``, effective value = nominal + the
    matching slice of ``w``):

    - zero dynamics   ``zdot  = g1*z + x1 + g2*v1``
    - first level     ``x1dot = g3*z*x1 + g4*v2 + x2``
    - second level    ``x2dot = g5*z^2*x1 + g6*x1*x2 + u``

    ``g1 < 0`` is required (stable zero dynamics).

    Parameters
    ----------
    g : (N, 6) array_like
        Nominal parameter rows per agent.
    """
    g = np.atleast_2d(np.array(g, dtype=float))
    if g.shape[1] != 6:
        raise InvalidParameter(f"expected 6 parameters per agent, got {g.shape[1]}")
    if (g[:, 0] >= 0).any():
        raise InvalidParameter("g1 must be negative for every agent")
    n = g.shape[0]

    def geff(w):
        return g + np.asarray(w, dtype=float).reshape(n, 6)

    def f0(z, x1, v, w):
        ge = geff(w)
        return (ge[:, 0] * z[:, 0] + x1 + ge[:, 1] * v[0])[:, None]

    def f1(z, xs, v, w):
        ge = geff(w)
        return ge[:, 2] * z[:, 0] * xs[0] + ge[:, 3] * v[1]

    def f2(z, xs, v, w):
        ge = geff(w)
        return ge[:, 4] * z[:, 0] ** 2 * xs[0] + ge[:, 5] * xs[0] * xs[1]

    def bind(zx, v, out):
        # phi = [z x1, z (z x1), x2 x1], one block of N rows each, whatever the draw
        zc, x1, x2 = zx[:n], zx[n:2 * n], zx[2 * n:]
        zx1, zzx1, x2x1 = out[:n], out[n:2 * n], out[2 * n:]
        multiply = np.multiply

        def fill():
            multiply(zc, x1, zx1)
            multiply(zc, zx1, zzx1)
            multiply(x2, x1, x2x1)

        return fill

    features = PlantFeatures(3 * n, bind)

    def split(w):
        # per draw, columns: z, x1, x2, v1, v2, then phi; rows: zdot, x1dot, x2dot (N each)
        ge = g + np.asarray(w, dtype=float).reshape(-1, n, 6)  # (B, N, 6)
        J = np.zeros((len(ge), 3 * n, 6 * n + 2))
        agents = np.arange(n)
        phi = 3 * n + 2 + agents
        J[:, agents, agents] = ge[:, :, 0]
        J[:, agents, n + agents] = 1.0
        J[:, agents, 3 * n] = ge[:, :, 1]
        J[:, n + agents, 3 * n + 1] = ge[:, :, 3]
        J[:, n + agents, phi] = ge[:, :, 2]
        J[:, 2 * n + agents, phi + n] = ge[:, :, 4]
        J[:, 2 * n + agents, phi + 2 * n] = ge[:, :, 5]
        return J, features

    def steady_zero(s, v, w):
        ge = geff(w)
        g1, g2 = ge[:, 0], ge[:, 1]
        den = g1 ** 2 + 1.0
        v1, v2 = v[..., 0, None], v[..., 1, None]  # (..., 1): one row of agents per state
        return (-g1 * g2 * v1 / den - g2 * v2 / den - np.asarray(s, dtype=float) / g1)[..., None]

    def steady_poly(p_star, w, S):
        ge = geff(w)
        g1, g2, g3, g4, g5, g6 = (ge[:, k] for k in range(6))
        den = g1 ** 2 + 1.0
        z_lin = np.stack([-g1 * g2 / den, -g2 / den], axis=1)
        z_poly = VPoly.affine(-p_star / g1, z_lin)
        e2 = np.zeros((n, 2))
        e2[:, 1] = 1.0
        x2_poly = z_poly.scaled(-g3 * p_star).plus(VPoly.affine(np.zeros(n), -g4[:, None] * e2))
        u_poly = (x2_poly.time_derivative(S)
                  .plus(VPoly.product_affine(z_poly, z_poly).scaled(-g5 * p_star))
                  .plus(x2_poly.scaled(-g6 * p_star)))
        return [x2_poly, u_poly]

    return PlantModel(
        n_agents=n, r=2, n_z=1, n_w=6 * n,
        f0=f0, f_levels=(f1, f2), steady_zero=steady_zero,
        im_polys=(np.array([0.0, -1.0, 0.0]), np.array([0.0, -4.0, 0.0, -5.0, 0.0])),
        steady_poly=steady_poly, split=split, params={"g": g},
    )


def check_origin_equilibrium(model: PlantModel, w_samples: Sequence[np.ndarray],
                             n_v: int) -> float:
    """Largest drift magnitude at the origin over the given parameter draws.

    Raises
    ------
    InvalidParameter
        If the origin is not an equilibrium of the unforced plant for some
        draw (violates the model's admissibility requirement).
    """
    n, worst = model.n_agents, 0.0
    z0, x0, v0 = np.zeros((n, model.n_z)), np.zeros((model.r, n)), np.zeros(n_v)
    for w in w_samples:
        worst = max(worst, float(np.abs(model.f0(z0, x0[0], v0, w)).max()))
        for s in range(1, model.r + 1):
            worst = max(worst, float(np.abs(model.f_levels[s - 1](z0, x0[:s], v0, w)).max()))
    if worst > ORIGIN_EQ_TOL:
        raise InvalidParameter(f"origin drift {worst:.3e} exceeds {ORIGIN_EQ_TOL:.1e}")
    return worst


def steady_drift(steady: SteadyState, vs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The plant drift ``(K, n_zx)`` at each sample's starred state, through `drift_split`.

    Sample ``k``'s state is ``zx = [z*, p*, x_2*, .., x_r*]`` at ``vs[k]``, with
    ``zs[k]`` its zero-dynamics map (`SteadyState.z_star`); its drift rows are
    ordered as ``zx`` (``f0``, then ``f_levels``). For a model with ``split``
    this is the drift the closed loop integrates, as whole arrays; any other
    model's ``f0`` and ``f_levels`` are called once per sample. The one draw
    is broadcast over chunks of at most ``STEADY_DRIFT_CHUNK`` samples, and
    each sample gets its own GEMV, as in the closed loop (`column_gemv`).
    """
    model, K = steady.model, len(vs)
    n, z_rows = model.n_agents, model.n_agents * model.n_z
    out = np.empty((K, z_rows + model.r * n))
    for start in range(0, K, STEADY_DRIFT_CHUNK):
        rows = slice(start, min(K, start + STEADY_DRIFT_CHUNK))
        v = vs[rows].T
        J, features = drift_split(model, np.broadcast_to(steady.w, (v.shape[1], model.n_w)),
                                  steady.exo.n_v)
        n_zx, width = J.shape[1:]
        v_cols = width - n_zx - features.count
        lifted = np.empty((width, v.shape[1]))  # per sample: [z*, p*, x_2* .. x_r*, leading v, phi]
        lifted[:z_rows] = zs[rows].reshape(-1, z_rows).T
        for s in range(1, model.r + 1):
            lifted[z_rows + (s - 1) * n:z_rows + s * n] = steady.x_star(s, vs[rows]).T
        lifted[n_zx:n_zx + v_cols] = v[:v_cols]
        features.bind(lifted[:n_zx], v, lifted[n_zx + v_cols:])()
        np.matmul(J, lifted.T[..., None], out=out[rows, :, None])
    return out


def check_steady_zero_pde(steady: SteadyState, ts: np.ndarray, vs: np.ndarray,
                          zs: np.ndarray, drift: np.ndarray) -> float:
    """Residual of the zero-dynamics steady-state map along a disturbance run.

    With the output argument frozen at ``steady.p_star``, the time derivative
    of the map along the exosystem flow (central differences in t) must equal
    the zero-dynamics drift evaluated on the map. Returns the worst residual.
    ``ts, vs`` is the run as `exo_trajectory` returns it, on a uniform grid,
    ``zs`` is the map on every sample, ``steady.z_star(vs)``, and ``drift`` is
    ``steady_drift(steady, vs[1:-1], zs[1:-1])``.
    """
    h = float(ts[1] - ts[0])
    num = (zs[2:] - zs[:-2]) / (2.0 * h)
    ana = drift[:, :steady.model.n_agents * steady.model.n_z].reshape(num.shape)
    return float(np.abs(num - ana).max(initial=0.0))


def check_steady_chain_consistency(steady: SteadyState, ts: np.ndarray, vs: np.ndarray,
                                   zs: np.ndarray, drift: np.ndarray) -> float:
    """Time-consistency of the steady-state chain along a disturbance run.

    For each level ``s >= 2``, the finite-difference time derivative of the
    level-s signal must match ``x_star(s+1) + drift_s`` evaluated on the
    starred states. Returns the worst mismatch across levels and time.
    ``ts, vs, zs, drift`` are as in `check_steady_zero_pde`.
    """
    model = steady.model
    if model.r == 1:
        return 0.0  # no level s >= 2
    h = float(ts[1] - ts[0])
    n = model.n_agents
    level_drifts = drift[:, n * model.n_z:].reshape(len(drift), model.r, n)
    signals = [steady.x_star(s, vs) for s in range(2, model.r + 2)]  # levels 2 .. r+1, (K, N)
    worst = 0.0
    for s, (sig, nxt) in enumerate(zip(signals, signals[1:]), start=2):
        num = (sig[2:] - sig[:-2]) / (2.0 * h)
        worst = float(np.maximum(worst, np.abs(num - (nxt[1:-1] + level_drifts[:, s - 1]))
                                 .max(initial=0.0)))
    return worst
