"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even when green). The expensive closed-loop artifacts are shared between
criteria through module-scoped fixtures; the reported runtimes cover the
work each criterion pays for.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from nesim.controller import ControllerGains, control_rows, escalate_gains, psi_readouts
from nesim.game import extended_pseudo_gradient, partial_gradient, pseudo_gradient, solve_ne
from nesim.generator import GeneratorGains, generator_rows, run_generator
from nesim.graph import laplacian
from nesim.internal_model import synthesize_bank, sylvester_residual
from nesim.numerics import OdeSystem, integrate
from nesim.simulation import run, write_csv
from oracles import backstepping_feedback

SEEDS = (1, 2, 3, 4, 5)


def report(name: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def escalated(sec5, timings):
    t0 = time.perf_counter()
    result = escalate_gains(sec5)
    timings["escalation"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def seeded_runs(sec5, escalated, timings):
    t0 = time.perf_counter()
    # escalation's passing round is seed 1's run at the escalated gains: a passing run
    # equals a plain one, and a batch column its run alone; the other seeds in one batch
    assert escalated.trajectory.seed == SEEDS[0] == 1
    rest = run(escalated.scenario, seed=SEEDS[1:])
    trajs = dict(zip(SEEDS, [escalated.trajectory, *rest]))
    timings["closed_loop"] = time.perf_counter() - t0
    return trajs


def test_criterion_1_synthesis_regression(sec5):
    t0 = time.perf_counter()
    bank = synthesize_bank(sec5.plant.im_polys, sec5.n, preset=sec5.im_preset)
    expected = {0: np.array([3.0, 6.0, 5.0]),
                1: np.array([120.0, 270.0, 225.0, 80.0, 15.0])}
    psi_dev = max(np.abs(level.Psi[i] - expected[s]).max()
                  for s, level in enumerate(bank.levels) for i in range(sec5.n))
    resid = max(sylvester_residual(level, i)
                for level in bank.levels for i in range(sec5.n))
    elapsed = time.perf_counter() - t0
    report("1 synthesis-regression",
           psi_dev < 1e-8 and resid <= 1e-10 and elapsed < 1.0,
           f"max Psi deviation {psi_dev:.2e} (tol 1e-8), residual {resid:.2e} "
           f"(tol 1e-10), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_2_generator_decay(sec5):
    t0 = time.perf_counter()
    # gamma2 is 1.25 times its guarantee bound, from the scenario's synthesis
    t_final = 20.0 / sec5.gains.gamma1
    traj = run_generator(dataclasses.replace(sec5, t_final=t_final))
    slope = traj.log_dist_slope(t_final / 2.0, t_final)
    elapsed = time.perf_counter() - t0
    report("2 generator-decay",
           traj.dist[-1] < 1e-6 and slope <= -0.05 and elapsed < 5.0,
           f"final distance {traj.dist[-1]:.2e} (tol 1e-6), "
           f"slope {slope:.3f} (<= -0.05), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_3_closed_loop_tracking(sec5, escalated, seeded_runs, timings):
    worst_e = max(float(np.abs(traj.e[-1]).max()) for traj in seeded_runs.values())
    worst_y = max(float(np.abs(traj.y[-1] - traj.p_star).max())
                  for traj in seeded_runs.values())
    diverged = any(traj.diverged for traj in seeded_runs.values())
    elapsed = timings["escalation"] + timings["closed_loop"]
    report("3 closed-loop-tracking",
           (not diverged) and worst_e < 1e-2 and worst_y < 2e-2 and elapsed < 60.0,
           f"{len(SEEDS)} seeds, max final |e| {worst_e:.2e} (tol 1e-2), "
           f"max final |y - equilibrium| {worst_y:.2e} (tol 2e-2), escalated "
           f"x{escalated.multiplier:g} in {escalated.rounds} rounds, "
           f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_4_internal_model_ablation(sec5, escalated):
    errors = {}
    for seed, traj in zip(SEEDS, run(escalated.scenario, seed=SEEDS, ablate=True)):
        assert np.abs(traj.v[0]).max() > 0  # draws guarantee a live disturbance
        errors[seed] = np.inf if traj.diverged else float(np.abs(traj.e[-1]).max())
    exceed = sum(1 for e in errors.values() if e > 1e-1)
    detail = ", ".join(f"seed {s}: {e:.3f}" for s, e in errors.items())
    report("4 internal-model-ablation", exceed >= 4,
           f"{exceed}/{len(SEEDS)} seeds above 1e-1 ({detail})")


def test_criterion_5_oracle_equivalences(sec5):
    game, n = sec5.game, sec5.n
    p_star = solve_ne(game)
    ne_resid = float(np.linalg.norm(pseudo_gradient(game, p_star)))

    rng = np.random.default_rng(100)
    grad_dev = 0.0
    for _ in range(50):
        y = rng.uniform(-5, 5, n)
        i = int(rng.integers(n))
        step = 1e-6 * (1 + abs(y[i]))
        up, dn = y.copy(), y.copy()
        up[i] += step
        dn[i] -= step
        fd = (game.cost(i, up) - game.cost(i, dn)) / (2 * step)
        ana = partial_gradient(game, i, y)
        grad_dev = max(grad_dev, abs(fd - ana) / (1 + abs(ana)))

    gains = GeneratorGains(1.7, 9.0)
    Rsel = np.zeros((n, n * n))
    for i in range(n):
        Rsel[i, i * n + i] = 1.0
    Lbig = np.kron(laplacian(sec5.graph), np.eye(n))
    rows = generator_rows(game, sec5.graph, gains.gamma1, gains.gamma2)  # over [vec P; 1]
    gen_dev = 0.0
    for _ in range(100):
        P = rng.normal(size=(n, n))
        per_agent = rows @ np.append(P.ravel(), 1.0)
        stacked = (-gains.gamma1 * Rsel.T @ extended_pseudo_gradient(game, P)
                   - gains.gamma1 * gains.gamma2 * Lbig @ P.ravel())
        gen_dev = max(gen_dev, float(np.abs(per_agent - stacked).max()))

    bank = synthesize_bank(sec5.plant.im_polys, n, preset=sec5.im_preset)
    ctrl_dev = 0.0
    for _ in range(100):
        kmat = ControllerGains(rng.uniform(0.5, 6.0, size=(n, 2)))
        rng.normal(size=(n, 1))  # a zero-dynamics state, which u does not read
        x = rng.normal(size=(2, n))
        eta = [rng.normal(size=(n, level.order)) for level in bank.levels]
        p = rng.normal(size=n)
        reads = psi_readouts(bank, eta)
        u = control_rows(kmat, bank) @ np.concatenate([p, x.ravel()] + [e.ravel() for e in eta])
        x_bar = np.vstack([x[0] - p, x[1] - reads[0]])
        ctrl_dev = max(ctrl_dev, float(np.abs(
            (u - reads[1]) - backstepping_feedback(kmat, x_bar)).max()))

    report("5 oracle-equivalences",
           ne_resid <= 1e-10 and grad_dev < 1e-5 and gen_dev < 1e-12 and ctrl_dev < 1e-12,
           f"equilibrium residual {ne_resid:.2e} (tol 1e-10), gradient dev "
           f"{grad_dev:.2e} (tol 1e-5), generator forms dev {gen_dev:.2e} "
           f"(tol 1e-12), controller forms dev {ctrl_dev:.2e} (tol 1e-12)")


def test_criterion_6_numerical_hygiene(sec5, escalated, seeded_runs, tmp_path):
    sys = OdeSystem(1, lambda t, x: -x)

    def global_error(h):
        return abs(integrate(sys, np.array([1.0]), 0.0, 1.0, h)[0] - np.exp(-1.0))

    ratio = global_error(0.02) / global_error(0.01)

    base = seeded_runs[1]
    halved = run(dataclasses.replace(escalated.scenario, dt=sec5.dt / 2.0), seed=1)
    step_dev = float(np.abs(base.y[-1] - halved.y[-1]).max())

    rerun = run(escalated.scenario, seed=1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(base, a)
    write_csv(rerun, b)
    identical = a.read_bytes() == b.read_bytes()

    report("6 numerical-hygiene",
           (16 * 0.8 <= ratio <= 16 * 1.2) and step_dev < 1e-6 and identical,
           f"order ratio {ratio:.2f} (16 +- 20%), step-halving output change "
           f"{step_dev:.2e} (tol 1e-6), identical-seed CSV bit-identical: {identical}")
