"""Command-line interface.

Subcommands: ``simulate`` (closed loop, CSV/SVG export), ``synthesize``
(print the internal-model synthesis), ``solve-ne`` (equilibrium oracle and
generator gain bound), ``check`` (invariant suite against a scenario).

Exit codes: 0 success, 1 configuration, synthesis or output-file error,
2 closed-loop divergence, 3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import config as cfg
from .controller import escalate_gains
from .errors import InvalidParameter, NesimError
from .game import extended_pseudo_gradient, pseudo_gradient, partial_gradient
from .internal_model import sylvester_residual, verify_reproduction
from .plant import (check_steady_chain_consistency, check_steady_zero_pde, exo_trajectory,
                    sample_uncertainty, steady_drift, steady_state_chain)
from .simulation import format_summary, metrics, run, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3

# Bytes a sweep batch holds: as many seeds as fit at `Scenario.seed_bytes` each, at least one
SWEEP_BYTES = 32 * 2 ** 20


def _resolve_config(path_arg: str) -> Path:
    """Filesystem path first; a bare name (``sec5``, ``sec5.scenario``) may be a bundled one."""
    path = Path(path_arg)
    if path.exists():
        return path
    name = path.name if path.name.endswith(".scenario") else path.name + ".scenario"
    bundled = resources.files("nesim").joinpath("data", name)
    if path_arg == path.name and bundled.is_file():
        return Path(str(bundled))
    raise cfg.ConfigError(f"no such config file: {path_arg}")


def _load(args) -> tuple:
    scenario, norm = cfg.load_scenario(_resolve_config(args.config))
    overrides = {key: getattr(args, key) for key in ("t_final", "dt", "seed", "decimate")
                 if getattr(args, key, None) is not None}
    try:
        return dataclasses.replace(scenario, **overrides), norm
    except ValueError as exc:
        raise cfg.ConfigError(str(exc)) from exc


def _resolve_gains(scenario, quiet: bool = False):
    """``(scenario, passing)``: the scenario when it sets its gains, else escalation's.

    ``passing`` is escalation's passing run, the returned scenario's own run, or None.
    """
    if scenario.controller_k is not None:
        return scenario, None
    result = escalate_gains(scenario)
    if not quiet:
        print(f"gain escalation: passed at round {result.rounds} "
              f"(multiplier {result.multiplier:g}, box radius R={scenario.R:g})")
    return result.scenario, result.trajectory


def _monotonicity_margin(game, strong_mono: float, rng: np.random.Generator) -> float:
    """Least ``d . (F(a) - F(b)) - m |d|^2``, ``d = a - b``, over 1000 random pairs.

    ``F`` is the pseudo-gradient and ``m`` is ``strong_mono`` shrunk by 1e-9.
    The pairs are one draw from ``[-5, 5]``, the same stream as a draw per
    profile; a pair closer than 1e-6 is skipped. The kept pairs' gradients
    are one stack of profiles in the order ``a0, b0, a1, ..`` (so a custom
    game's costs are called in that order), and each product is one dot
    product, as a pair alone takes it.
    """
    ab = rng.uniform(-5, 5, size=(1000, 2, game.n))
    d = ab[:, 0] - ab[:, 1]
    dd = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    kept = dd >= 1e-12
    ab, d, dd = ab[kept], d[kept], dd[kept]
    grads = extended_pseudo_gradient(game, np.broadcast_to(ab[..., None, :],
                                                           ab.shape + (game.n,)))
    gaps = np.matmul(d[:, None, :], (grads[:, 0] - grads[:, 1])[:, :, None])[:, 0, 0]
    return float(np.min(gaps - strong_mono * dd * (1 - 1e-9), initial=np.inf))


def _fmt_matrix(M: np.ndarray) -> str:
    return "\n".join("    [" + ", ".join(format(x, ".10g") for x in row) + "]"
                     for row in np.atleast_2d(M))


def cmd_simulate(args) -> int:
    scenario, _ = _load(args)
    seeds = [scenario.seed]
    if args.sweep:
        key, _, count = args.sweep.partition("=")
        # ASCII digits only: str.isdigit also takes digits int() rejects, such as "²"
        if key != "seeds" or not (count.isascii() and count.isdigit()) or int(count) < 1:
            raise cfg.ConfigError("--sweep expects seeds=K with K >= 1")
        seeds = [scenario.seed + k for k in range(int(count))]
    scenario, passing = _resolve_gains(scenario)
    ablate = args.ablate_internal_model
    reused = {} if passing is None or ablate else {passing.seed: passing}
    worst_exit = EXIT_OK
    # the other seeds are integrated together, in batches that fit SWEEP_BYTES
    batch = max(1, SWEEP_BYTES // scenario.seed_bytes())
    for start in range(0, len(seeds), batch):
        chunk = seeds[start:start + batch]
        fresh = [seed for seed in chunk if seed not in reused]
        trajs = dict(reused)
        if fresh:
            trajs.update(zip(fresh, run(scenario, ablate=ablate, seed=fresh)))
        out = Path(args.out)
        for seed in chunk:
            traj = trajs[seed]
            out_path = out if len(seeds) == 1 else out.with_name(f"{out.stem}_s{seed}{out.suffix}")
            write_csv(traj, out_path)
            if args.svg:
                write_svg(traj, args.svg if len(seeds) == 1
                          else Path(args.svg).with_name(f"{Path(args.svg).stem}_s{seed}.svg"))
            print(f"# seed {seed} -> {out_path}")
            print(format_summary(metrics(traj)))
            if traj.diverged:
                print(f"DIVERGED at t = {traj.diverged_t:.6g}", file=sys.stderr)
                worst_exit = EXIT_DIVERGED
    return worst_exit


def cmd_synthesize(args) -> int:
    scenario, _ = _load(args)
    for s, level in enumerate(scenario.synthesized().bank.levels, start=1):
        print(f"level {s}: recurrence coefficients = "
              f"[{', '.join(format(c, 'g') for c in level.companion.coeffs)}]")
        for i in range(scenario.n):
            print(f"  agent {i + 1}:")
            print(f"  M =\n{_fmt_matrix(level.M[i])}")
            print(f"  N = [{', '.join(format(x, 'g') for x in level.N[i])}]")
            print(f"  T =\n{_fmt_matrix(level.T[i])}")
            print(f"  Psi = [{', '.join(format(x, '.10g') for x in level.Psi[i])}]")
            print(f"  sylvester residual = {sylvester_residual(level, i):.3e}")
    return EXIT_OK


def cmd_solve_ne(args) -> int:
    scenario, _ = _load(args)
    synthesis = scenario.synthesized()
    constants, p_star = synthesis.constants, synthesis.p_star
    resid = float(np.linalg.norm(pseudo_gradient(scenario.game, p_star)))
    print(f"equilibrium = [{', '.join(format(x, '.12g') for x in p_star)}]")
    print(f"gradient residual = {resid:.3e}")
    print(f"strong monotonicity = {constants.strong_mono:.6g}")
    print(f"lipschitz = {constants.lipschitz:.6g}")
    print(f"min_gamma2 = {synthesis.min_gamma2:.6g}")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class Check:
    """A line of `nesim check`: ``passed`` compares ``value`` with ``tol``; a NaN fails."""
    name: str
    passed: bool
    value: float
    tol: float
    detail: str  # the text after PASS or FAIL


def _check(name: str, value, op, tol, detail: str) -> Check:
    """``op(value, float(tol))``; ``tol`` is a number or the text the line prints."""
    return Check(name, bool(op(value, float(tol))), float(value), float(tol),
                 detail.format(value=value, tol=tol))


def check_rows(scenario) -> list[Check]:
    """`nesim check`'s lines on ``scenario``; each value keeps NaN (`np.max`, not `max`).

    The stages run in a fixed order, which fixes the draws and which error is raised first:
    the seed's stream (gradients, then monotonicity), its draw and steady-state chain, the
    ``seed + 1`` start, the 5 s and 20 s traces, gain escalation, the dt/2 run.
    """
    rng = np.random.default_rng(scenario.seed)
    game, n = scenario.game, scenario.n
    synthesis = scenario.synthesized()
    # gradients against a five-point, fourth-order difference of the cost, at a step
    # far from the central difference a custom game's gradient uses
    devs = []
    for _ in range(50):
        profile = rng.uniform(-5, 5, size=n)
        i = int(rng.integers(n))
        step = 1e-3 * (1.0 + abs(profile[i]))
        shifted = profile + np.outer([1.0, -1.0, 2.0, -2.0], step * np.eye(n)[i])
        up1, dn1, up2, dn2 = (game.cost(i, row) for row in shifted)
        fd = (8.0 * (up1 - dn1) - (up2 - dn2)) / (12.0 * step)
        ana = partial_gradient(game, i, profile)
        devs.append(abs(fd - ana) / (1.0 + abs(ana)))
    margin = _monotonicity_margin(game, synthesis.constants.strong_mono, rng)
    pairs = [(level, i) for level in synthesis.bank.levels for i in range(n)]
    psi = [np.abs(lv.Psi[i] @ lv.T[i] - lv.companion.Gamma.ravel()).max() for lv, i in pairs]
    rows = [_check("gradient_fd_agreement", np.max(devs), operator.lt, "1e-5",
                   "max rel dev {value:.2e} (tol {tol})"),
            _check("monotonicity_sampling", margin, operator.ge, 0.0, "worst margin {value:.2e}"),
            _check("sylvester_residual", np.max([sylvester_residual(lv, i) for lv, i in pairs]),
                   operator.le, "1e-10", "max residual {value:.2e} (tol {tol})"),
            _check("psi_readout_identity", np.max(psi), operator.le, "1e-10",
                   "max |Psi T - Gamma| {value:.2e} (tol {tol})")]

    w = sample_uncertainty(scenario.w_box, scenario.seed)  # the scenario seed's draw
    steady = steady_state_chain(scenario.plant, synthesis.p_star, scenario.exo, w)
    v0 = np.random.default_rng(scenario.seed + 1).uniform(*scenario.exo.v0_box.T)
    ts, vs = exo_trajectory(scenario.exo, v0, t_final=5.0, h=1e-3)
    # the zero-dynamics map in one hook call over the whole trace and the drift once per
    # inner sample, read by both
    zs = steady.z_star(vs)
    drift = steady_drift(steady, vs[1:-1], zs[1:-1])
    rows += [_check("steady_zero_pde", check_steady_zero_pde(steady, ts, vs, zs, drift),
                    operator.le, "1e-6", "max residual {value:.2e} (tol {tol})"),
             _check("steady_chain_consistency",
                    check_steady_chain_consistency(steady, ts, vs, zs, drift),
                    operator.le, "1e-6", "max mismatch {value:.2e} (tol {tol})")]
    del zs, drift  # not held through the runs below, which set the peak memory

    # reproduction per level, all agents in one batched run, each compensator seeded from
    # the exact derivative stack (`steady_poly`), else a central-difference one, whose top
    # level's wider stencils set the wider tolerance and the trace step
    ts, vs = exo_trajectory(scenario.exo, v0, t_final=20.0, h=2e-3)
    for s, level in enumerate(synthesis.bank.levels):
        seed = (None if scenario.plant.steady_poly is None
                else steady.derivative_stack(s + 2, vs[0], level.order))
        try:
            error = verify_reproduction(level, ts, steady.x_star(s + 2, vs), seed).max()
        except InvalidParameter as exc:  # a recurrence too deep for the stencils
            raise cfg.ConfigError(f"plant.im_polys[{s}] (level {s + 1}): {exc}; give the "
                                  f"plant a steady_poly for exact stacks") from exc
        rows.append(_check(f"im_reproduction_level{s + 1}", error, operator.le,
                           "1e-05" if s == 0 else "0.001", "max error {value:.2e} (tol {tol})"))

    scenario, traj_a = _resolve_gains(scenario, quiet=True)
    traj_a = run(scenario) if traj_a is None else traj_a
    traj_b = run(dataclasses.replace(scenario, dt=scenario.dt / 2.0))
    diverged = traj_a.diverged or traj_b.diverged
    dev = np.nan if diverged else np.abs(traj_a.y[-1] - traj_b.y[-1]).max()
    rows.append(_check("step_halving", dev, operator.lt, "1e-6", "closed loop diverged"
                       if diverged else "output change {value:.2e} (tol {tol})"))
    if not diverged:
        rows.append(_check("exosystem_bounded", np.abs(traj_a.v).max(), operator.le,
                           10.0 * (1.0 + float(np.linalg.norm(traj_a.v[0]))),
                           "max |v| {value:.3g} (limit {tol:.3g})"))
    return rows


def cmd_check(args) -> int:
    scenario, _ = _load(args)
    rows = check_rows(scenario)
    gamma2, bound = scenario.gains.gamma2, scenario.synthesized().min_gamma2  # kept by escalation
    if gamma2 is None:
        print("note: gamma2 resolved automatically from the guarantee bound")
    elif gamma2 < bound:
        print(f"warning: gamma2 = {gamma2:g} is below the "
              f"guarantee bound {bound:.4g} (sufficient, not necessary)")
    width = max(len(row.name) for row in rows)
    for row in rows:
        print(f"{row.name:<{width}}  {'PASS' if row.passed else 'FAIL'}  {row.detail}")
    return EXIT_OK if all(row.passed for row in rows) else EXIT_CHECK_FAILED


def write_svg(traj, path) -> None:
    """Minimal two-panel SVG: tracking errors on top, log distance below."""
    width, height, margin = 800, 520, 45
    panel_h = (height - 3 * margin) // 2
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#7f7f7f"]

    def scale(vals, lo, hi, out_lo, out_hi):
        span = hi - lo if hi > lo else 1.0
        return out_lo + (np.asarray(vals) - lo) / span * (out_hi - out_lo)

    def polyline(xs, ys, color):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'

    t = traj.t
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']

    e_lo, e_hi = float(traj.e.min()), float(traj.e.max())
    top = (margin, margin + panel_h)
    xs = scale(t, t[0], t[-1], margin, width - margin)
    for i in range(traj.e.shape[1]):
        ys = scale(traj.e[:, i], e_lo, e_hi, top[1], top[0])
        parts.append(polyline(xs, ys, colors[i % len(colors)]))
    parts.append(f'<rect x="{margin}" y="{top[0]}" width="{width - 2 * margin}" '
                 f'height="{panel_h}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{margin}" y="{top[0] - 8}" font-size="13">tracking errors '
                 f'e_i(t) in [{e_lo:.3g}, {e_hi:.3g}], t in [{t[0]:g}, {t[-1]:g}]</text>')

    logd = np.log10(np.maximum(traj.ne_dist, 1e-300))
    d_lo, d_hi = float(logd.min()), float(logd.max())
    bot = (2 * margin + panel_h, 2 * margin + 2 * panel_h)
    ys = scale(logd, d_lo, d_hi, bot[1], bot[0])
    parts.append(polyline(xs, ys, "#111111"))
    parts.append(f'<rect x="{margin}" y="{bot[0]}" width="{width - 2 * margin}" '
                 f'height="{panel_h}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{margin}" y="{bot[0] - 8}" font-size="13">log10 distance of '
                 f'estimates to equilibrium in [{d_lo:.3g}, {d_hi:.3g}]</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nesim",
                                     description="Nash equilibrium seeking for dynamic "
                                                 "multi-agent systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="scenario file path or bundled name (e.g. sec5)")
        p.add_argument("--t-final", type=float, default=None, dest="t_final")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dump-normalized", action="store_true", dest="dump_normalized",
                       help="print the normalized config and exit")

    sim = sub.add_parser("simulate", help="run the closed loop and export CSV")
    common(sim)
    sim.add_argument("--out", default="trajectory.csv")
    sim.add_argument("--svg", default=None, help="also write a line-chart SVG")
    sim.add_argument("--decimate", type=int, default=None)
    sim.add_argument("--ablate-internal-model", action="store_true",
                     dest="ablate_internal_model",
                     help="zero the compensator read-outs in the control law")
    sim.add_argument("--sweep", default=None, metavar="seeds=K",
                     help="run K consecutive seeds, one CSV each")
    sim.set_defaults(fn=cmd_simulate)

    syn = sub.add_parser("synthesize", help="print internal-model synthesis results")
    common(syn)
    syn.set_defaults(fn=cmd_synthesize)

    ne = sub.add_parser("solve-ne", help="print the equilibrium and gain bound")
    common(ne)
    ne.set_defaults(fn=cmd_solve_ne)

    chk = sub.add_parser("check", help="run the invariant suite")
    common(chk)
    chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.dump_normalized:
            _, norm = cfg.load_scenario(_resolve_config(args.config))
            print(cfg.dump_normalized(norm))
            return EXIT_OK
        return args.fn(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NesimError, OSError) as exc:  # OSError: an --out or --svg file not writable
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
