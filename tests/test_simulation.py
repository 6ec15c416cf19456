from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from factories import build_game, build_plant
from nesim.controller import ControllerGains, control_law
from nesim.game import QuadraticAggregativeGame
from nesim.generator import GeneratorGains, generator_rhs
from nesim.graph import CommGraph
from nesim.internal_model import StabilizerPair, im_rhs
from nesim.plant import Exosystem, PlantState, example_plant, exo_rhs, plant_rhs
from nesim.simulation import (ClosedLoopTrajectory, EscalationSpec, Scenario, assemble,
                              closed_loop_passes, metrics, run, write_csv)


def test_state_dimension(sec5_loop):
    # 16 generator + 2 disturbance + 4 * (1 + 2 + 3 + 5) plant/compensator
    assert sec5_loop.dimension == 62


def test_rhs_is_deterministic(sec5_loop):
    rng = np.random.default_rng(20)
    state = rng.normal(size=sec5_loop.dimension)
    a = sec5_loop.rhs(0.0, state)
    b = sec5_loop.rhs(0.0, state)
    assert np.array_equal(a, b)


def composed_rhs(loop, state):
    """Closed-loop derivative and input from the public per-block functions."""
    sc = loop.scenario
    P, v, z, x, eta = loop.unpack(state)
    plant = PlantState(z=z, x=x)
    dP = generator_rhs(sc.game, sc.graph, GeneratorGains(loop.gamma1, loop.gamma2), P)
    u = control_law(loop.gains, loop.bank, plant, eta, P.diagonal(), ablate=loop.ablate)
    dz, dx = plant_rhs(sc.plant, plant, u, v, loop.w, check_finite=False)
    drives = list(x[1:]) + [u]  # level s is driven by x_{s+1}, the top level by u
    deta = [np.array([im_rhs(StabilizerPair(level.M[i], level.N[i]), eta[s][i], drives[s][i])
                      for i in range(sc.n)])
            for s, level in enumerate(loop.bank.levels)]
    flat = np.concatenate([dP.ravel(), exo_rhs(sc.exo, v), dz.ravel(), dx.ravel()]
                          + [d.ravel() for d in deta])
    return flat, u


def custom_scenario():
    """The test-factory finite-difference game with the generic custom plant."""
    return Scenario(
        game=build_game([1.0, 2.0, 3.0], 0.5), graph=CommGraph.ring(3),
        plant=build_plant(3), exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                            v0_box=np.array([[0.5, 1.0], [0.0, 0.0]])),
        w_box=np.tile([-0.1, 0.1], (3, 1)), gains=GeneratorGains(1.0, 1.0),
        gamma2_auto=True, controller_k=np.full((3, 1), 8.0), seed=2, R=0.5)


@pytest.mark.parametrize("case", ["sec5", "sec5_ablated", "custom"])
def test_rhs_matches_composed_blocks(case, sec5, stable_gains):
    if case == "custom":
        loop = assemble(custom_scenario())
    else:
        loop = assemble(sec5, gains=stable_gains, ablate=case == "sec5_ablated",
                        rng=np.random.default_rng(sec5.seed))
    rng = np.random.default_rng(21)
    for _ in range(5):
        state = rng.normal(size=loop.dimension)
        ref, u_ref = composed_rhs(loop, state)
        fused = loop.rhs(0.0, state)
        assert np.abs(fused - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(loop.control(state) - u_ref).max() <= 1e-12 * np.abs(u_ref).max()


def test_disconnected_graph_rejected(sec5):
    with pytest.raises(ValueError, match="connected"):
        dataclasses.replace(sec5, graph=CommGraph.from_edges(4, [(0, 1), (2, 3)]))


def test_closed_loop_tracks_reference(sec5, stable_gains):
    traj = run(sec5, gains=stable_gains, t_final=10.0)
    assert not traj.diverged
    assert np.abs(traj.e[-1]).max() < 1e-2


def test_manifold_start_stays_on_manifold(sec5, stable_gains):
    traj = run(sec5, gains=stable_gains, t_final=5.0, init_mode="manifold")
    assert np.abs(traj.e).max() <= 1e-6


def test_divergence_is_reported_not_raised(sec5):
    weak = ControllerGains.uniform(4, 2, 4.0)
    traj = run(sec5, gains=weak, t_final=10.0)
    assert traj.diverged
    assert traj.diverged_t is not None
    assert len(traj.t) >= 1  # partial trajectory retained for debugging


def test_escalation_predicate(sec5, stable_gains):
    short = dataclasses.replace(sec5, t_final=10.0)
    assert closed_loop_passes(short, stable_gains, 1.0)
    assert not closed_loop_passes(short, ControllerGains.uniform(4, 2, 4.0), 1.0)


def test_zero_disturbance_decoupled_game_reaches_targets():
    h1 = np.array([2.0, 4.0, 3.0, 5.0])
    game = QuadraticAggregativeGame(h1=h1, h2=np.zeros(4), h3=np.zeros(4))
    g = np.array([[-1.0, 1.0, 0.5, 2.0, 0.3, 0.3]] * 4)
    scenario = Scenario(
        game=game, graph=CommGraph.ring(4), plant=example_plant(g),
        exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                      v0_box=np.zeros((2, 2))),
        w_box=np.zeros((24, 2)),
        gains=GeneratorGains(1.0, 1.0),
        gamma2_auto=True, controller_k=np.tile([16.0, 16.0], (4, 1)),
        escalation=EscalationSpec(), im_preset="sec5",
        t_final=20.0, dt=2e-3, seed=3, R=1.0, decimate=10,
    )
    traj = run(scenario)
    assert not traj.diverged
    assert np.abs(traj.y[-1] - h1).max() < 1e-2


def test_triangle_inequality_on_final_errors(sec5, stable_gains):
    traj = run(sec5, gains=stable_gains, t_final=10.0)
    lhs = np.abs(traj.y[-1] - traj.p_star)
    rhs = np.abs(traj.e[-1]) + np.abs(traj.p[-1] - traj.p_star)
    assert np.all(lhs <= rhs + 1e-12)


def test_seed_determinism_bit_identical_csv(sec5, stable_gains, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run(sec5, gains=stable_gains, t_final=2.0), a)
    write_csv(run(sec5, gains=stable_gains, t_final=2.0), b)
    assert a.read_bytes() == b.read_bytes()


def test_step_halving_consistency_short(sec5, stable_gains):
    a = run(sec5, gains=stable_gains, t_final=5.0)
    b = run(sec5, gains=stable_gains, t_final=5.0, dt=sec5.dt / 2)
    assert np.abs(a.y[-1] - b.y[-1]).max() < 1e-6


def synthetic_trajectory(dist):
    t = np.linspace(0, 10, len(dist))
    n = 4
    zeros = np.zeros((len(t), n))
    return ClosedLoopTrajectory(t=t, y=zeros, p=zeros, e=zeros, u=zeros,
                                ne_dist=np.asarray(dist, dtype=float),
                                p_star=np.zeros(n), v=np.zeros((len(t), 2)),
                                max_state_norm=0.0)


class TestMetrics:
    def test_constant_zero_gives_sentinel_slope(self):
        m = metrics(synthetic_trajectory(np.zeros(101)))
        assert m["final_tracking_max"] == 0.0
        assert np.isnan(m["ne_log_slope"])

    def test_exponential_slope_recovered(self):
        t = np.linspace(0, 10, 101)
        m = metrics(synthetic_trajectory(np.exp(-2.0 * t)))
        assert m["ne_log_slope"] == pytest.approx(-2.0, abs=1e-6)

    def test_closed_loop_slope_negative(self, sec5, stable_gains):
        traj = run(sec5, gains=stable_gains, t_final=10.0)
        assert metrics(traj)["ne_log_slope"] < 0


def test_csv_schema(sec5, stable_gains, tmp_path):
    path = tmp_path / "traj.csv"
    write_csv(run(sec5, gains=stable_gains, t_final=1.0), path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t" and header[-1] == "ne_dist"
    assert len(header) == 2 + 5 * 4
    assert header[1:5] == ["p_star_1", "p_star_2", "p_star_3", "p_star_4"]
