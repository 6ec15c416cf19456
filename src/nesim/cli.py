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
from .game import estimate_constants, pseudo_gradient, solve_ne, partial_gradient
from .generator import min_gamma2
from .internal_model import synthesize_bank, sylvester_residual, verify_reproduction, default_stabilizer
from .plant import check_steady_chain_consistency, check_steady_zero_pde, exo_trajectory, steady_state_chain
from .simulation import assemble, format_summary, metrics, run, write_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_CHECK_FAILED = 3


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
    overrides = {}
    if getattr(args, "t_final", None) is not None:
        overrides["t_final"] = args.t_final
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "decimate", None) is not None:
        overrides["decimate"] = args.decimate
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario, norm


def _resolve_gains(scenario, quiet: bool = False):
    """Configured gains, or the escalation search when set to auto."""
    if scenario.controller_k is not None:
        return ControllerGains(scenario.controller_k), scenario.gains.gamma1
    start = ControllerGains.uniform(scenario.n, scenario.plant.r)
    result = escalate_gains(scenario, start, factor=scenario.escalation.factor,
                            max_rounds=scenario.escalation.max_rounds)
    if not quiet:
        print(f"gain escalation: passed at round {result.rounds} "
              f"(multiplier {result.multiplier:g}, box radius R={scenario.R:g})")
    return result.gains, result.gamma1


def _fmt_matrix(M: np.ndarray) -> str:
    return "\n".join("    [" + ", ".join(format(x, ".10g") for x in row) + "]"
                     for row in np.atleast_2d(M))


def cmd_simulate(args) -> int:
    scenario, _ = _load(args)
    gains, gamma1 = _resolve_gains(scenario)
    seeds = [scenario.seed]
    if args.sweep:
        key, _, count = args.sweep.partition("=")
        if key != "seeds" or not count.isdigit():
            raise cfg.ConfigError("--sweep expects seeds=K")
        seeds = [scenario.seed + k for k in range(int(count))]
    worst_exit = EXIT_OK
    for seed in seeds:
        traj = run(scenario, gains=gains, gamma1=gamma1,
                   ablate=args.ablate_internal_model, seed=seed)
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
    bank = synthesize_bank(scenario.plant.im_polys, scenario.n,
                           stabilizers=scenario.im_stabilizers,
                           preset=scenario.im_preset)
    for s, level in enumerate(bank.levels, start=1):
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
    constants = estimate_constants(scenario.game)
    p_star = solve_ne(scenario.game, constants=constants)
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
    # analytic vs finite-difference gradients
    worst = 0.0
    for _ in range(50):
        profile = rng.uniform(-5, 5, size=n)
        i = int(rng.integers(n))
        step = 1e-6 * (1.0 + abs(profile[i]))
        up, dn = profile.copy(), profile.copy()
        up[i] += step
        dn[i] -= step
        fd = (game.cost(i, up) - game.cost(i, dn)) / (2 * step)
        ana = partial_gradient(game, i, profile)
        worst = max(worst, abs(fd - ana) / (1.0 + abs(ana)))
    add("gradient_fd_agreement", worst < 1e-5, f"max rel dev {worst:.2e} (tol 1e-5)")

    constants = estimate_constants(game)
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

    bank = synthesize_bank(scenario.plant.im_polys, n,
                           stabilizers=scenario.im_stabilizers, preset=scenario.im_preset)
    worst = max(sylvester_residual(level, i)
                for level in bank.levels for i in range(n))
    add("sylvester_residual", worst <= 1e-10, f"max residual {worst:.2e} (tol 1e-10)")

    worst = max(float(np.abs(level.Psi[i] @ level.T[i] - level.companion.Gamma.ravel()).max())
                for level in bank.levels for i in range(n))
    add("psi_readout_identity", worst <= 1e-10, f"max |Psi T - Gamma| {worst:.2e} (tol 1e-10)")

    p_star = solve_ne(game, constants=constants)
    loop = assemble(scenario, rng=np.random.default_rng(scenario.seed))
    v0 = np.random.default_rng(scenario.seed + 1).uniform(
        scenario.exo.v0_box[:, 0], scenario.exo.v0_box[:, 1])
    pde = check_steady_zero_pde(scenario.plant, scenario.exo, loop.w,
                                s_values=p_star, v0=v0)
    add("steady_zero_pde", pde <= 1e-6, f"max residual {pde:.2e} (tol 1e-6)")

    steady = steady_state_chain(scenario.plant, p_star, scenario.exo, loop.w)
    cons = check_steady_chain_consistency(steady, v0)
    add("steady_chain_consistency", cons <= 1e-6, f"max mismatch {cons:.2e} (tol 1e-6)")

    # internal-model reproduction per level; the top level needs higher-order
    # finite-difference stacks, so its tolerance is wider and the trace step
    # balances truncation against rounding in the stencils
    ts, vs = exo_trajectory(scenario.exo, v0, t_final=20.0, h=2e-3)
    tols = {0: 1e-5}
    for s, level in enumerate(bank.levels):
        signal = np.array([steady.x_star(s + 2, v) for v in vs])
        worst = 0.0
        for i in range(n):
            stab_i = default_stabilizer(level.order, preset=scenario.im_preset) \
                if scenario.im_stabilizers is None else scenario.im_stabilizers[i][s]
            err = verify_reproduction(level.companion, stab_i, level.Psi[i], ts, signal[:, i])
            worst = max(worst, err)
        tol = tols.get(s, 1e-3)
        add(f"im_reproduction_level{s + 1}", worst <= tol,
            f"max error {worst:.2e} (tol {tol:g})")

    gains, gamma1 = (ControllerGains(scenario.controller_k), scenario.gains.gamma1) \
        if scenario.controller_k is not None else _resolve_gains(scenario, quiet=True)
    traj_a = run(scenario, gains=gains, gamma1=gamma1)
    traj_b = run(scenario, gains=gains, gamma1=gamma1, dt=scenario.dt / 2.0)
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
