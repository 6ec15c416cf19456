"""Command-line interface.

Subcommands: ``simulate`` (closed loop, CSV/SVG export), ``synthesize``
(print the internal-model synthesis), ``solve-ne`` (equilibrium oracle and
generator gain bound), ``check`` (invariant suite against a scenario).

Exit codes: 0 success, 1 configuration or synthesis error, 2 closed-loop
divergence, 3 invariant-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import config as cfg
from .controller import ControllerGains, escalate_gains
from .errors import NesimError
from .game import pseudo_gradient, partial_gradient
from .generator import min_gamma2
from .internal_model import sylvester_residual, verify_reproduction
from .plant import check_steady_chain_consistency, check_steady_zero_pde, exo_trajectory
from .simulation import assemble, format_summary, metrics, run, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3

# Seeds per batched sweep run, bounded in count and in kept-state bytes. On sec5
# (30 s, one core, one BLAS thread) the time per seed falls from 0.56 s at 8 seeds
# per batch to 0.37 s at 16 and 0.34 s at 32. Each seed's kept states take 1.5 MB
# at decimate 10 and 15 MB at decimate 1; a batch keeps at most SWEEP_KEPT_BYTES.
SWEEP_BATCH = 16
SWEEP_KEPT_BYTES = 32 * 2 ** 20


def _resolve_config(path_arg: str) -> Path:
    """Filesystem path first; fall back to a bundled scenario name."""
    path = Path(path_arg)
    if path.exists():
        return path
    name = path.name if path.name.endswith(".scenario") else path.name + ".scenario"
    bundled = resources.files("nesim").joinpath("data", name)
    if bundled.is_file():
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
    """``(gains, gamma1, passing)``: configured gains, or the escalation search.

    ``passing`` is escalation's passing run, the scenario's own run with
    those gains (same seed, horizon, step and decimation), or None.
    """
    if scenario.controller_k is not None:
        return ControllerGains(scenario.controller_k), scenario.gains.gamma1, None
    start = ControllerGains.uniform(scenario.n, scenario.plant.r)
    result = escalate_gains(scenario, start)
    if not quiet:
        print(f"gain escalation: passed at round {result.rounds} "
              f"(multiplier {result.multiplier:g}, box radius R={scenario.R:g})")
    return result.gains, result.gamma1, result.trajectory


def _fmt_matrix(M: np.ndarray) -> str:
    return "\n".join("    [" + ", ".join(format(x, ".10g") for x in row) + "]"
                     for row in np.atleast_2d(M))


def cmd_simulate(args) -> int:
    scenario, _ = _load(args)
    seeds = [scenario.seed]
    if args.sweep:
        key, _, count = args.sweep.partition("=")
        if key != "seeds" or not count.isdigit() or int(count) < 1:
            raise cfg.ConfigError("--sweep expects seeds=K with K >= 1")
        seeds = [scenario.seed + k for k in range(int(count))]
    gains, gamma1, passing = _resolve_gains(scenario)
    ablate = args.ablate_internal_model
    reused = {} if passing is None or ablate else {passing.seed: passing}
    worst_exit = EXIT_OK
    # the other seeds are integrated together, in batches bounded in count and kept bytes
    batch = max(1, min(SWEEP_BATCH, SWEEP_KEPT_BYTES // scenario.kept_state_bytes()))
    for start in range(0, len(seeds), batch):
        chunk = seeds[start:start + batch]
        fresh = [seed for seed in chunk if seed not in reused]
        trajs = dict(reused)
        if fresh:
            trajs.update(zip(fresh, run(scenario, gains=gains, gamma1=gamma1, ablate=ablate,
                                        seed=fresh)))
        for seed in chunk:
            traj = trajs[seed]
            out_path = Path(args.out)
            if len(seeds) > 1:
                out_path = out_path.with_name(f"{out_path.stem}_s{seed}{out_path.suffix}")
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
    bound = min_gamma2(constants, scenario.graph)
    print(f"equilibrium = [{', '.join(format(x, '.12g') for x in p_star)}]")
    print(f"gradient residual = {resid:.3e}")
    print(f"strong monotonicity = {constants.strong_mono:.6g}")
    print(f"lipschitz = {constants.lipschitz:.6g}")
    print(f"min_gamma2 = {bound:.6g}")
    return EXIT_OK


def cmd_check(args) -> int:
    scenario, _ = _load(args)
    rng = np.random.default_rng(scenario.seed)
    results = []  # (name, passed, detail)

    def add(name, passed, detail):
        results.append((name, bool(passed), detail))

    game = scenario.game
    n = scenario.n
    synthesis = scenario.synthesized()
    constants, p_star, bank = synthesis.constants, synthesis.p_star, synthesis.bank
    # gradients against a five-point, fourth-order difference of the cost, at a step
    # far from the central difference a custom game's gradient uses
    worst = 0.0
    for _ in range(50):
        profile = rng.uniform(-5, 5, size=n)
        i = int(rng.integers(n))
        step = 1e-3 * (1.0 + abs(profile[i]))
        shifted = profile + np.outer([1.0, -1.0, 2.0, -2.0], step * np.eye(n)[i])
        up1, dn1, up2, dn2 = (game.cost(i, row) for row in shifted)
        fd = (8.0 * (up1 - dn1) - (up2 - dn2)) / (12.0 * step)
        ana = partial_gradient(game, i, profile)
        worst = max(worst, abs(fd - ana) / (1.0 + abs(ana)))
    add("gradient_fd_agreement", worst < 1e-5, f"max rel dev {worst:.2e} (tol 1e-5)")

    worst = np.inf
    for _ in range(1000):
        a = rng.uniform(-5, 5, size=n)
        b = rng.uniform(-5, 5, size=n)
        d = a - b
        dd = float(d @ d)
        if dd < 1e-12:
            continue
        gap = float(d @ (pseudo_gradient(game, a) - pseudo_gradient(game, b)))
        worst = min(worst, gap - constants.strong_mono * dd * (1 - 1e-9))
    add("monotonicity_sampling", worst >= 0, f"worst margin {worst:.2e}")

    worst = max(sylvester_residual(level, i)
                for level in bank.levels for i in range(n))
    add("sylvester_residual", worst <= 1e-10, f"max residual {worst:.2e} (tol 1e-10)")

    worst = max(float(np.abs(level.Psi[i] @ level.T[i] - level.companion.Gamma.ravel()).max())
                for level in bank.levels for i in range(n))
    add("psi_readout_identity", worst <= 1e-10, f"max |Psi T - Gamma| {worst:.2e} (tol 1e-10)")

    loop = assemble(scenario)
    v0 = np.random.default_rng(scenario.seed + 1).uniform(
        scenario.exo.v0_box[:, 0], scenario.exo.v0_box[:, 1])
    exo_ts, exo_vs = exo_trajectory(scenario.exo, v0, t_final=5.0, h=1e-3)  # for both checks
    pde = check_steady_zero_pde(scenario.plant, loop.w, p_star, exo_ts, exo_vs)
    add("steady_zero_pde", pde <= 1e-6, f"max residual {pde:.2e} (tol 1e-6)")

    cons = check_steady_chain_consistency(loop.steady, exo_ts, exo_vs)
    add("steady_chain_consistency", cons <= 1e-6, f"max mismatch {cons:.2e} (tol 1e-6)")

    # internal-model reproduction per level, every agent in one batched run; the
    # top level needs higher-order finite-difference stacks, so its tolerance is
    # wider and the trace step balances truncation against rounding in the stencils
    ts, vs = exo_trajectory(scenario.exo, v0, t_final=20.0, h=2e-3)
    tols = {0: 1e-5}
    for s, level in enumerate(bank.levels):
        worst = float(verify_reproduction(level, ts, loop.steady.x_star(s + 2, vs)).max())
        tol = tols.get(s, 1e-3)
        add(f"im_reproduction_level{s + 1}", worst <= tol,
            f"max error {worst:.2e} (tol {tol:g})")

    gains, gamma1, traj_a = _resolve_gains(scenario, quiet=True)
    if traj_a is None:
        traj_a = run(scenario, gains=gains, gamma1=gamma1)
    traj_b = run(dataclasses.replace(scenario, dt=scenario.dt / 2.0), gains=gains, gamma1=gamma1)
    if traj_a.diverged or traj_b.diverged:
        add("step_halving", False, "closed loop diverged")
    else:
        dev = float(np.abs(traj_a.y[-1] - traj_b.y[-1]).max())
        add("step_halving", dev < 1e-6, f"output change {dev:.2e} (tol 1e-6)")
        vmax = float(np.abs(traj_a.v).max())
        vref = 10.0 * (1.0 + float(np.linalg.norm(traj_a.v[0])))
        add("exosystem_bounded", vmax <= vref, f"max |v| {vmax:.3g} (limit {vref:.3g})")

    if scenario.gamma2_auto:
        print("note: gamma2 resolved automatically from the guarantee bound")
    else:
        bound = min_gamma2(constants, scenario.graph)
        if scenario.gains.gamma2 < bound:
            print(f"warning: gamma2 = {scenario.gains.gamma2:g} is below the "
                  f"guarantee bound {bound:.4g} (sufficient, not necessary)")

    width = max(len(name) for name, _, _ in results)
    all_pass = True
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        all_pass &= passed
        print(f"{name:<{width}}  {status}  {detail}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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
    except NesimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
