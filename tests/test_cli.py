from __future__ import annotations

import dataclasses
import json
import operator
import tracemalloc

import numpy as np
import pytest

from nesim import cli, numerics
from nesim.cli import main
from nesim.config import dump_normalized, load_scenario, normalize
from nesim.controller import ControllerGains
from nesim.errors import ConfigError
from nesim.game import CustomGame
from nesim.generator import GeneratorGains
from nesim.graph import CommGraph
from nesim.internal_model import StabilizerPair, default_stabilizer, verify_reproduction
from nesim.plant import Exosystem, exo_trajectory, steady_state_chain
from nesim.simulation import EscalationSpec, Scenario, run, write_csv
from factories import build_game, build_plant, ring_config
from oracles import monotonicity_margin


MISSING = object()  # a patch value that removes the key


def rewrite(path, **patch):
    """Set each value of the scenario file ``path`` named by its dotted path, such as ``sim.dt``."""
    cfg = json.loads(path.read_text())
    for dotted, value in patch.items():
        *parents, key = dotted.split(".")
        node = cfg
        for name in parents:
            node = node[name]
        if value is MISSING:
            del node[key]
        else:
            node[key] = value
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def fast_cfg(sec5_norm, tmp_path):
    """Bundled scenario with explicit stabilizing gains and a short horizon.

    Each keyword names a value by its dotted path, such as ``sim.dt`` (see `rewrite`).
    """
    def make(**patch):
        cfg = json.loads(json.dumps(sec5_norm))
        cfg["controller"]["k"] = [[16.0, 16.0]] * 4
        cfg["sim"]["t_final"] = 2.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return rewrite(path, **patch)
    return make


def test_dump_normalized_round_trip(sec5_path, sec5_norm, capsys):
    assert main(["simulate", "--config", str(sec5_path), "--dump-normalized"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert normalize(echoed) == sec5_norm
    scenario, norm2 = load_scenario(echoed)
    assert norm2 == sec5_norm
    assert scenario.seed == sec5_norm["sim"]["seed"]


def test_omitted_run_and_escalation_settings_take_the_class_defaults(sec5_norm):
    # the scenario file's defaults are the field defaults of Scenario and EscalationSpec
    scenario, norm = load_scenario({key: sec5_norm[key] for key in ("game", "graph", "plant")})
    fields = {f.name: f.default for f in dataclasses.fields(Scenario)}
    for key in ("t_final", "dt", "seed", "R", "decimate"):
        assert getattr(scenario, key) == norm["sim"][key] == fields[key]
        assert type(norm["sim"][key]) is type(fields[key])
    assert set(norm["sim"]) == {"t_final", "dt", "seed", "R", "decimate"}
    assert scenario.escalation == EscalationSpec()
    assert norm["controller"] == {"k": "auto", "escalation": dataclasses.asdict(EscalationSpec())}


def test_im_polys_override_keeps_plant_hooks(sec5_norm):
    cfg = json.loads(json.dumps(sec5_norm))
    cfg["plant"]["im_polys"] = [[0.0, -1.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]]
    plant = load_scenario(cfg)[0].plant
    assert plant.split is not None and plant.steady_poly is not None
    assert np.array_equal(plant.params["g"], np.array(cfg["plant"]["g"]))
    cfg["plant"]["im_polys"] = [[0.0, -1.0, 0.0]]
    with pytest.raises(ConfigError, match="plant.im_polys"):
        load_scenario(cfg)


def test_bundled_name_resolution(capsys):
    assert main(["solve-ne", "--config", "sec5"]) == 0
    out = capsys.readouterr().out
    assert "equilibrium = [-0.25, 0.75, 0.25, 1.25]" in out
    assert "min_gamma2 = 24" in out


@pytest.mark.parametrize("form", ["absolute", "relative"])
def test_missing_config_path_with_a_directory_part_is_a_config_error(form, tmp_path,
                                                                   monkeypatch, capsys):
    # a bundled name is looked up only bare: a path with a directory part names a file
    monkeypatch.chdir(tmp_path)
    arg = str(tmp_path / "no" / "such" / "sec5") if form == "absolute" else "./typo/sec5.scenario"
    assert main(["solve-ne", "--config", arg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: no such config file: {arg}\n"


def test_synthesize_prints_readout_rows(sec5_path, capsys):
    assert main(["synthesize", "--config", str(sec5_path)]) == 0
    out = capsys.readouterr().out
    assert "Psi = [3, 6, 5]" in out
    assert "Psi = [120, 270, 225, 80, 15]" in out
    assert "sylvester residual" in out


def test_simulate_writes_csv(fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "run.csv"
    svg = tmp_path / "run.svg"
    code = main(["simulate", "--config", str(fast_cfg()), "--out", str(out_csv),
                 "--svg", str(svg)])
    assert code == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[0] == "t" and header.split(",")[-1] == "ne_dist"
    assert svg.read_text().startswith("<svg")
    assert "final_tracking_max" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_is_one_error_line(flag, fast_cfg, tmp_path, capsys):
    # explicit gains, so the run reaches the write; --svg writes its CSV first
    missing = str(tmp_path / "missing" / "run")
    out = missing if flag == "--out" else str(tmp_path / "run.csv")
    svg = ["--svg", missing] if flag == "--svg" else []
    code = main(["simulate", "--config", str(fast_cfg()), "--t-final", "0.5", "--out", out, *svg])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and missing in err
    assert "Traceback" not in err


def test_simulate_sweep_writes_per_seed_files(fast_cfg, tmp_path, count_calls):
    chains = count_calls(steady_state_chain)
    out_csv = tmp_path / "sweep.csv"
    code = main(["simulate", "--config", str(fast_cfg()), "--out", str(out_csv),
                 "--sweep", "seeds=2", "--t-final", "1.0"])
    assert code == 0
    assert (tmp_path / "sweep_s1.csv").exists()
    assert (tmp_path / "sweep_s2.csv").exists()
    assert chains == []  # the steady-state chain is for the check suite only


def test_divergence_exit_code(fast_cfg, tmp_path, capsys):
    cfg = fast_cfg(**{"controller.k": [[4.0, 4.0]] * 4, "sim.t_final": 10.0})
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
    assert code == 2


@pytest.mark.parametrize("sweep", [[], ["--sweep", "seeds=3"]], ids=["alone", "sweep"])
def test_a_cost_that_rejects_nan_leaves_a_diverging_run_exit_2(sweep, nan_rejecting_sec5,
                                                               monkeypatch, tmp_path, capsys):
    # seed 1 diverges at k = 4, alone or in a sweep with seeds 2 (diverges) and 3 (runs on);
    # its NaN estimates reach no cost, which would raise
    scenario, _ = nan_rejecting_sec5
    monkeypatch.setattr(cli, "_load", lambda args: (scenario, None))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", "sec5", "--out", str(out), *sweep]) == 2
    err = capsys.readouterr().err
    assert "DIVERGED at t = 1.343" in err and "Traceback" not in err
    written = [out] if not sweep else [tmp_path / f"run_s{seed}.csv" for seed in (1, 2, 3)]
    assert sorted(tmp_path.iterdir()) == sorted(written)


def test_disconnected_graph_exit_code(fast_cfg, capsys):
    cfg = fast_cfg(**{"graph.edges": [[0, 1, 1.0], [2, 3, 1.0]]})
    assert main(["solve-ne", "--config", str(cfg)]) == 1
    assert "connected" in capsys.readouterr().err


def test_unstable_plant_exit_code(fast_cfg, capsys):
    bad_g = [[1.0, 1.0, 0.5, 2.0, 0.3, 0.3]] + [[-1.0, 1.0, 0.5, 2.0, 0.3, 0.3]] * 3
    cfg = fast_cfg(**{"plant.g": bad_g})
    assert main(["synthesize", "--config", str(cfg)]) == 1
    assert "g1" in capsys.readouterr().err


def test_non_monotone_game_exit_code(fast_cfg, capsys):
    cfg = fast_cfg(**{"game.h2": [-2.0, -2.0, -2.0, -2.0]})
    assert main(["solve-ne", "--config", str(cfg)]) == 1
    assert "monoton" in capsys.readouterr().err


def test_unknown_key_rejected(fast_cfg, capsys):
    path = fast_cfg()
    cfg = json.loads(path.read_text())
    cfg["sim"]["tfinal"] = 1.0
    path.write_text(json.dumps(cfg))
    assert main(["solve-ne", "--config", str(path)]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_check_passes_on_bundled_scenario(fast_cfg, capsys, count_calls):
    traces = count_calls(exo_trajectory)
    cfg = fast_cfg(**{"sim.t_final": 6.0})
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "sylvester_residual" in out and "FAIL" not in out
    assert "steady_zero_pde" in out and "steady_chain_consistency" in out
    # one 5 s trace shared by both steady-state checks, then the 20 s reproduction trace
    assert [kw["t_final"] if "t_final" in kw else args[2] for args, kw in traces] == [5.0, 20.0]


def test_check_suite_does_not_integrate(count_calls, capsys):
    # the suite's linear ODEs step by RK4's step matrix R(hA); `run` hands `integrate` the
    # closed loop's lifted workspace, and any other `integrate` call means a check went back
    # to stepping its linear ODE one RHS closure at a time
    calls = count_calls(numerics.integrate)
    assert main(["check", "--config", "sec5", "--t-final", "2"]) == 0
    assert calls and [args for args, _ in calls
                      if not isinstance(args[0], numerics.LiftedSteps)] == []
    assert "FAIL" not in capsys.readouterr().out


def _check_scenario(monkeypatch, scenario) -> int:
    """``nesim check``'s exit code on ``scenario``, given as the loaded scenario file."""
    monkeypatch.setattr(cli, "_load", lambda args: (scenario, None))
    return main(["check", "--config", "sec5"])


def test_check_evaluates_each_zero_steady_state_once(stable, monkeypatch, count_calls, capsys):
    calls = []

    def steady_zero(s, v, w):
        calls.append(v)
        return stable.plant.steady_zero(s, v, w)

    plant = dataclasses.replace(stable.plant, steady_zero=steady_zero)
    seeds = count_calls(verify_reproduction)
    assert _check_scenario(monkeypatch, dataclasses.replace(stable, plant=plant, t_final=1.0)) == 0
    assert "FAIL" not in capsys.readouterr().out
    # both steady-state lines read one call over the 5001 rows of the 5 s trace at h = 1e-3;
    # the chain's signals come from `steady_poly`, and so do the reproduction seeds
    [vs] = calls
    assert vs.shape == (5001, stable.exo.n_v)
    assert np.array_equal(vs, exo_trajectory(stable.exo, vs[0], t_final=5.0, h=1e-3)[1])
    assert [args[3].shape for args, _ in seeds] == [(3, stable.n), (5, stable.n)]


def test_check_refuses_a_zero_map_written_for_one_state(stable, monkeypatch, capsys):
    # a hook that returns one state's (N, 1) whatever `v` holds would broadcast against the
    # trace's (K, N, 1); `z_star` names the hook and its contract instead
    plant = dataclasses.replace(stable.plant,
                                steady_zero=lambda s, v, w: np.zeros((stable.n, 1)))
    assert _check_scenario(monkeypatch, dataclasses.replace(stable, plant=plant)) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("config error: plant.steady_zero returned shape (4, 1)")
    assert "(..., n_v) to (..., N, n_z)" in line


@pytest.mark.parametrize("split", [True, False], ids=["split_hook", "no_split"])
def test_check_evaluates_the_steady_drift_once(stable, monkeypatch, split):
    # with `split`, the steady-state lines read the drift as whole arrays and `check_rows`
    # calls no f0/f_levels; without it, `drift_split`'s generic features call f0 and each
    # f_levels entry once per inner sample of the 5 s trace, for both lines together (the
    # closed-loop runs, which also evaluate the drift through them, are not counted)
    calls, counting = {"f0": 0, "f1": 0, "f2": 0}, [True]

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += counting[0]
            return fn(*args)
        return wrapper

    def uncounted_run(*args, **kwargs):
        counting[0] = False
        try:
            return run(*args, **kwargs)
        finally:
            counting[0] = True

    f1, f2 = stable.plant.f_levels
    plant = dataclasses.replace(stable.plant, f0=counted("f0", stable.plant.f0),
                                f_levels=(counted("f1", f1), counted("f2", f2)),
                                split=stable.plant.split if split else None)
    if not split:
        monkeypatch.setattr(cli, "run", uncounted_run)
    rows = cli.check_rows(dataclasses.replace(stable, plant=plant, t_final=0.2))
    assert all(row.passed for row in rows)
    assert calls == dict.fromkeys(calls, 0 if split else 4999)


def test_check_seeds_a_generic_plants_reproduction_from_stencils(custom_scenario, monkeypatch,
                                                                  count_calls, capsys):
    # a plant without `steady_poly` has no exact derivative stack
    assert custom_scenario.plant.steady_poly is None
    seeds = count_calls(verify_reproduction)
    assert _check_scenario(monkeypatch, dataclasses.replace(custom_scenario, t_final=0.5)) == 0
    assert "im_reproduction_level1    PASS" in capsys.readouterr().out
    assert [args[3] for args, _ in seeds] == [None]


# each line's comparison: `<` for these two, `>= 0` for the monotonicity margin, else `<=`
CHECK_OPS = {"gradient_fd_agreement": operator.lt, "monotonicity_sampling": operator.ge,
             "step_halving": operator.lt}


def test_check_rows_pin_each_comparison(stable, monkeypatch):
    make, passed_at_tol = cli._check, {}

    def also_at_tol(name, value, op, tol, detail):
        passed_at_tol[name] = make(name, float(tol), op, tol, detail).passed
        return make(name, value, op, tol, detail)

    monkeypatch.setattr(cli, "_check", also_at_tol)
    rows = cli.check_rows(dataclasses.replace(stable, t_final=1.0))
    assert [row.name for row in rows] == [
        "gradient_fd_agreement", "monotonicity_sampling", "sylvester_residual",
        "psi_readout_identity", "steady_zero_pde", "steady_chain_consistency",
        "im_reproduction_level1", "im_reproduction_level2", "step_halving", "exosystem_bounded"]
    for row in rows:
        assert row.passed == CHECK_OPS.get(row.name, operator.le)(row.value, row.tol), row
    # a value at its tolerance fails a `<` line and passes a `<=` line (and `>= 0`)
    assert passed_at_tol == {row.name: CHECK_OPS.get(row.name) is not operator.lt
                             for row in rows}


def ring2_scenario(game: CustomGame) -> Scenario:
    """``game`` on a 2-ring of the relative-degree-one test plants, 0.5 s at explicit gains."""
    return Scenario(game=game, graph=CommGraph.ring(2), plant=build_plant(2),
                    exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                  v0_box=np.array([[0.5, 1.0], [0.0, 0.0]])),
                    w_box=np.tile([-0.1, 0.1], (2, 1)), gains=GeneratorGains(1.0, None),
                    controller_k=np.full((2, 1), 8.0), seed=2, R=0.5, t_final=0.5)


def test_nan_gradient_deviation_fails_its_line(monkeypatch, capsys):
    # the costs are NaN for y_i > 4, outside the sample box, so the game loads; the
    # suite samples profiles in [-5, 5] and meets some NaN deviations
    quadratic = build_game([1.0, 2.0], 0.5, box=(-3.0, 3.0))

    def nan_above_4(cost):
        return lambda yi, profile: np.nan if yi > 4.0 else cost(yi, profile)

    game = CustomGame([nan_above_4(c) for c in quadratic.costs], quadratic.sample_box)
    assert _check_scenario(monkeypatch, ring2_scenario(game)) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "gradient_fd_agreement     FAIL  max rel dev nan (tol 1e-5)" in lines


def test_a_game_monotone_only_on_its_sample_box_fails_monotonicity_sampling(monkeypatch,
                                                                            capsys):
    # J_i = (y_i - h_i)^2 + y_i (y_1 + y_2) / 2 - y_i^4 / 20: the pseudo-gradient's Jacobian
    # has diagonal 3 - 0.6 y_i^2, so the game is strongly monotone on its sample box
    # [-1.5, 1.5] (which `estimate_constants` samples, else `NotStronglyMonotone`) and not
    # on the suite's [-5, 5]. Plain float costs keep the 10 000 sampled pairs quick
    h = (0.5, 1.0)

    def cost(i):
        return lambda yi, profile: ((yi - h[i]) ** 2 + 0.5 * yi * (yi + float(profile[1 - i]))
                                    - 0.05 * yi ** 4)

    game = CustomGame([cost(0), cost(1)], np.tile([-1.5, 1.5], (2, 1)))
    assert _check_scenario(monkeypatch, ring2_scenario(game)) == 3
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    failing = [parts[0] for parts in lines if len(parts) > 1 and parts[1] == "FAIL"]
    assert failing == ["monotonicity_sampling"]


@pytest.mark.parametrize("kind", ["sec5", "custom"])
def test_monotonicity_sampling_matches_the_per_pair_loop(kind, sec5, custom_scenario):
    scenario = sec5 if kind == "sec5" else custom_scenario
    calls = []

    def recorded(i, cost):
        def call(yi, profile):
            calls.append((i, yi, profile.tobytes()))
            return cost(yi, profile)
        return call

    game = scenario.game
    if kind == "custom":  # the test factory's game, its cost calls recorded
        game = CustomGame([recorded(i, c) for i, c in enumerate(game.costs)], game.sample_box)
    strong_mono = scenario.synthesized().constants.strong_mono
    want = monotonicity_margin(game, strong_mono, np.random.default_rng(7))
    oracle_calls = calls[:]
    calls.clear()
    got = cli._monotonicity_margin(game, strong_mono, np.random.default_rng(7))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # the same cost calls, on the same profiles, in the same order
    assert calls == oracle_calls
    assert len(calls) == (0 if kind == "sec5" else 1000 * 2 * game.n * 2)


def test_check_catches_wrong_recurrence(fast_cfg, capsys):
    # frequencies {0, 2, 3} cannot reproduce the plant's {0, 1, 2} signals
    cfg = fast_cfg(**{"plant.im_polys": [[0.0, -1.0, 0.0], [0.0, -36.0, 0.0, -13.0, 0.0]],
                      "sim.t_final": 6.0})
    assert main(["check", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "im_reproduction_level2" in out and "FAIL" in out


SEC5_G = [[-1.0, 1.0, 0.5, 2.0, 0.3, 0.3], [-1.2, 0.8, 0.4, 2.2, 0.25, 0.35],
          [-0.9, 1.1, 0.6, 1.8, 0.35, 0.25], [-1.1, 0.9, 0.5, 2.0, 0.3, 0.3]]


def offset_plant(part: str) -> dict:
    """sec5's plant section, built by `factories.build_plant_with_offset_steady_state`."""
    return {"kind": "custom", "factory": "factories:build_plant_with_offset_steady_state",
            "args": {"g": SEC5_G, "part": part, "offset": 0.01},
            "w_box": [[-0.05, 0.05]] * 24, "v0_box": [[0.6, 1.4], [-0.4, 0.4]]}


def stabilizers(level1: StabilizerPair, level2: StabilizerPair) -> dict:
    """An explicit ``internal_model`` section giving each of sec5's agents these two pairs."""
    return {"explicit": [[{"M": pair.M.tolist(), "N": pair.N.tolist()}
                          for pair in (level1, level2)]] * 4}


SEC5_PAIRS = [default_stabilizer(order, preset="sec5") for order in (3, 5)]


def relative_degree_one(factory: str, **args) -> dict:
    """A patch giving sec5's game a `factories.build_plant`-style plant, one level, k = 16."""
    return {"plant": {"kind": "custom", "factory": f"factories:{factory}",
                      "args": {"n_agents": 4, **args}, "w_box": [[-0.05, 0.05]] * 4,
                      "v0_box": [[0.6, 1.4], [-0.4, 0.4]]},
            "internal_model": MISSING, "controller.k": [[16.0]] * 4}


# a real fault per line, each through `nesim check` at explicit gains for 1 s
@pytest.mark.parametrize("patch, argv, failing", [
    # level 2's input vector N scaled by 1e7: T grows to 1.3e5, and T Phi - M T = N Gamma holds
    # only to 1.6e-9; `solve_sylvester` raises `SingularT` only above 1e-10 (1 + |N Gamma|) = 1e-3
    ({"internal_model": stabilizers(SEC5_PAIRS[0],
                                    StabilizerPair(SEC5_PAIRS[1].M, 1e7 * SEC5_PAIRS[1].N))},
     [], {"sylvester_residual"}),
    # two level-1 modes 1e-7 apart: the pair is just controllable (least singular value of its
    # controllability matrix 2.8e-8, `StabilizerPair` refuses 1e-8) and cond T is 1.1e8
    # (`lu_solve` refuses 1e12), so Psi = Gamma T^-1 solves only to 3.7e-10, and the
    # conjugated T Phi T^-1 the reproduction check steps grows (error 3.5e6). |Psi| is 1e7,
    # so R = 1e-6 keeps the first read-outs, and the closed loop, bounded
    ({"internal_model": stabilizers(StabilizerPair(np.diag([-1.0, -1.0 - 1e-7, -3.0]),
                                                   np.ones(3)), SEC5_PAIRS[1]),
      "sim.R": 1e-6}, [], {"psi_readout_identity", "im_reproduction_level1"}),
    # x4 gains at 5 dt: |h lambda| = 2.46 is inside RK4's region but inaccurate (2.1e-6)
    ({"gains.gamma1": 4.0}, ["--dt", "5e-3"], {"step_halving"}),
    # a level-1 recurrence of frequencies {0, sqrt 2}, not the signals' {0, 1} (2.8)
    ({"plant.im_polys": [[0.0, -2.0, 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]]}, [],
     {"im_reproduction_level1"}),
    # x_2* off by 0.01: the level-2 drift on it misses its derivative by g6 p* 0.01 (4.4e-3)
    ({"plant": offset_plant("steady_poly")}, [], {"steady_chain_consistency"}),
    # z* off by 0.01 fails its own line, and the chain's too: the level-2 drift reads z*, so
    # the chain check evaluates it on the wrong zero-dynamics state
    ({"plant": offset_plant("steady_zero")}, [], {"steady_zero_pde", "steady_chain_consistency"}),
    # z* off by 0.01 on a relative-degree-1 plant whose level-1 drift reads no z: no chain
    # level for the chain line, and a reproduction signal that does not read z*
    (relative_degree_one("build_plant_with_offset_zero_map", offset=0.01), [],
     {"steady_zero_pde"}),
    # an unstable exosystem, its modes growing as e^{3.5 t}: max |v| passes the limit only from
    # sigma = 3.5 (21.2 against 23.8 at 3.0). The steady-state and reproduction lines read the
    # same v over 5 s and 20 s and fail first (already at sigma 0.5), so they fail with it
    ({"gains.gamma1": 4.0, "exosystem.S": [[3.5, 1.0], [-1.0, 3.5]]}, [],
     {"exosystem_bounded", "steady_zero_pde", "steady_chain_consistency",
      "im_reproduction_level1", "im_reproduction_level2"}),
    # alone, a growing mode fails this line only where no steady-state signal reads it, for
    # the steady-state and reproduction lines read v over 5 s and 20 s: here a third mode,
    # e^{3.5 t}, beside the sinusoid v1 that a relative-degree-1 plant reads and tracks
    (relative_degree_one("build_plant")
     | {"plant.v0_box": [[0.6, 1.4], [-0.4, 0.4], [0.5, 1.0]],
        "exosystem.S": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 3.5]]},
     [], {"exosystem_bounded"}),
], ids=["sylvester_residual", "psi_readout_identity", "step_halving",
        "im_reproduction_level1", "steady_poly", "steady_zero", "steady_zero_alone",
        "exosystem_bounded", "exosystem_bounded_alone"])
def test_a_real_fault_fails_its_check_line(patch, argv, failing, fast_cfg, capsys):
    assert main(["check", "--config", str(fast_cfg(**patch)), "--t-final", "1", *argv]) == 3
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    statuses = {parts[0]: parts[1] for parts in lines
                if len(parts) > 1 and parts[1] in ("PASS", "FAIL")}
    levels = 1 if patch.get("internal_model") is MISSING else 2  # one on relative degree 1
    assert len(statuses) == 8 + levels
    assert {name for name, status in statuses.items() if status == "FAIL"} == failing


def test_bad_recurrence_spectrum_exit_code(fast_cfg, capsys):
    # a root at +1 violates the marginally-stable distinct-roots requirement
    cfg = fast_cfg(**{"plant.im_polys": [[1.0], [0.0]]})
    assert main(["synthesize", "--config", str(cfg)]) == 1
    assert "InvalidSpectrum" in capsys.readouterr().err


def test_scalar_recurrence_synthesis(fast_cfg, capsys):
    cfg = fast_cfg(**{"plant.im_polys": [[0.0], [0.0]]})
    assert main(["synthesize", "--config", str(cfg)]) == 0
    assert "Psi = [1]" in capsys.readouterr().out


def test_check_warns_below_gain_bound(fast_cfg, capsys):
    cfg = fast_cfg(**{"gains.gamma2": 20.0, "sim.t_final": 6.0})
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "warning" in out and "below the" in out


@pytest.mark.parametrize("patch, argv", [
    ({}, ["--decimate", "0"]), ({}, ["--dt", "0"]), ({}, ["--t-final", "-1"]),
    ({}, ["--sweep", "seeds=0"]), ({}, ["--sweep", "seeds=\u00b2"]), ({"sim.decimate": 0}, []),
], ids=["decimate_flag", "dt_flag", "t_final_flag", "sweep_zero_seeds", "sweep_superscript_seeds",
        "decimate_key"])
def test_bad_run_settings_are_config_errors(patch, argv, fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(["simulate", "--config", str(fast_cfg(**patch)), "--out", str(out_csv), *argv])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("patch, argv, field", [
    ({"gains.gamma1": 0}, [], "gains.gamma1"),
    ({"gains.gamma2": -1}, [], "gains.gamma2"),
    # null is not "auto": only the library's GeneratorGains takes None for auto
    ({"gains.gamma2": None}, [], "gains.gamma2"),
    ({"controller.k": [[0.0, 16.0]] + [[16.0, 16.0]] * 3}, [], "controller.k"),
    ({"controller.k": [[16.0, 16.0, 16.0]] * 4}, [], "controller.k"),
    ({"controller.escalation.factor": 1.0}, [], "controller.escalation.factor"),
    ({"controller.escalation.max_rounds": 0}, [], "controller.escalation.max_rounds"),
    ({"sim.R": -1}, [], "sim.R"),
    ({"sim.R": float("inf")}, [], "sim.R"),
    ({"sim.seed": -3}, [], "sim.seed"),
    ({}, ["--seed", "-1"], "sim.seed"),
    ({}, ["--dt", "nan"], "sim.dt"),
    ({}, ["--t-final", "nan"], "sim.t_final"),
    ({}, ["--t-final", "inf"], "sim.t_final"),
    ({"sim.dt": "fast"}, [], "sim.dt"),
    ({"sim.seed": float("nan")}, [], "sim.seed"),
    ({"sim.decimate": None}, [], "sim.decimate"),
    ({"gains.gamma1": "x"}, [], "gains.gamma1"),
    ({"controller.k": [["x", 16.0]] + [[16.0, 16.0]] * 3}, [], "controller.k"),
    ({"graph.n": "x"}, [], "graph.n"),
    ({"graph.edges": "x"}, [], "graph.edges"),
    ({"graph.edges": [[0, 1, "x"], [1, 2], [2, 3]]}, [], "graph.edges[0]"),
    ({"gains.p0": "x"}, [], "gains.p0"),
    ({"exosystem.S": [["a"]]}, [], "exosystem.S"),
    ({"plant.g": "x"}, [], "plant.g"),
    ({"plant.w_box": [[0.0, float("nan")]] * 24}, [], "plant.w_box"),
    ({"plant.v0_box": "x"}, [], "plant.v0_box"),
    ({"game.h1": 5.0}, [], "game.h1"),
    ({"game.h2": 5.0}, [], "game.h2"),
    ({"game.h3": 5.0}, [], "game.h3"),
    ({"plant.im_polys": 5.0}, [], "plant.im_polys"),
    # 1e300 s keeps more states than an array can hold; more steps than a float is not finite
    ({}, ["--t-final", "1e300"], "sim.t_final"),
    ({}, ["--t-final", "1e300", "--dt", "1e-10"], "sim.t_final"),
    # a step past the horizon gives runs of no step
    ({"sim.dt": 0.5}, ["--t-final", "0.01"], "sim.dt"),
    ({"game.h1": [1.0], "game.h2": [1.0], "game.h3": [1.0], "graph.n": 1, "graph.edges": []},
     [], "game"),
    # an integer setting is a whole number, never truncated, and not a boolean
    ({"sim.seed": 1.5}, [], "sim.seed"),
    ({"sim.seed": True}, [], "sim.seed"),
    ({"sim.decimate": 2.7}, [], "sim.decimate"),
    ({"graph.n": 4.9}, [], "graph.n"),
    ({"controller.escalation.max_rounds": 3.5}, [], "controller.escalation.max_rounds"),
    ({"graph.edges": [[0.5, 1], [1, 2], [2, 3]]}, [], "graph.edges[0]"),
    # an edge joins two distinct agents of the graph with a weight >= 0
    ({"graph.edges": [[0, 7], [1, 2], [2, 3]]}, [], "graph.edges[0]"),
    ({"graph.edges": [[0, 1], [2, 2], [2, 3]]}, [], "graph.edges[1]"),
    ({"graph.edges": [[0, 1], [1, 2], [2, 3, -1.0]]}, [], "graph.edges[2]"),
    ({"graph.default_weight": -2.0}, [], "graph.default_weight"),
    # a number is not a boolean or a string, although Python and NumPy would convert them
    ({"sim.dt": True}, [], "sim.dt"),
    ({"gains.gamma1": "2.5"}, [], "gains.gamma1"),
    ({"sim.t_final": "1e1"}, [], "sim.t_final"),
    ({"sim.R": False}, [], "sim.R"),
    ({"controller.k": [[True, 16.0]] + [[16.0, 16.0]] * 3}, [], "controller.k"),
    ({"controller.k": [["4", 16.0]] + [[16.0, 16.0]] * 3}, [], "controller.k"),
    ({"gains.p0": [[0.0, 0.0, 0.0, True]] + [[0.0] * 4] * 3}, [], "gains.p0"),
    # every numeric array is finite: a game or recurrence with inf or NaN is named at load
    ({"game.h1": [2.0, float("inf"), 3.0, 5.0]}, [], "game.h1"),
    ({"game.h1": [2.0, 4.0, float("nan"), 5.0]}, [], "game.h1"),
    ({"game.h2": [0.0, 0.0, 0.0, float("inf")]}, [], "game.h2"),
    ({"game.h2": [float("nan"), 2.0, 2.0, 2.0]}, [], "game.h2"),
    ({"game.h3": [1.0, float("-inf"), 1.0, 1.0]}, [], "game.h3"),
    ({"game.h3": [1.0, 1.0, 1.0, float("nan")]}, [], "game.h3"),
    ({"plant.im_polys": [[0.0, float("inf"), 0.0], [0.0, -4.0, 0.0, -5.0, 0.0]]}, [],
     "plant.im_polys[0]"),
    # an explicit internal-model entry is exactly {M, N}, a finite matrix and vector
    ({"internal_model": {"explicit": [[{"M": [["-1"]], "N": [1.0]}]]}}, [],
     "internal_model.explicit[0][0].M"),
    ({"internal_model": {"explicit": [[{"M": [[-1.0]], "N": [True]}]]}}, [],
     "internal_model.explicit[0][0].N"),
    ({"internal_model": {"explicit": [[{"M": [[float("inf")]], "N": [1.0]}]]}}, [],
     "internal_model.explicit[0][0].M"),
    ({"internal_model": {"explicit": [[{"M": [[-1.0]], "N": [1.0], "junk": 1}]]}}, [],
     "internal_model.explicit[0][0]"),
    ({"internal_model": {"explicit": 5}}, [], "internal_model.explicit"),
], ids=["gamma1_zero", "gamma2_negative", "gamma2_null", "k_zero", "k_shape", "factor_one",
        "max_rounds_zero", "R_negative", "R_inf", "seed_negative", "seed_flag_negative",
        "dt_flag_nan", "t_final_flag_nan", "t_final_flag_inf", "dt_string", "seed_nan",
        "decimate_null", "gamma1_string", "k_string", "graph_n_string", "edges_string",
        "edge_weight_string", "p0_string", "S_string", "g_string", "w_box_nan", "v0_box_string",
        "h1_scalar", "h2_scalar", "h3_scalar", "im_polys_scalar", "t_final_huge",
        "step_count_overflow", "dt_past_horizon", "one_player", "seed_fraction", "seed_bool",
        "decimate_fraction", "graph_n_fraction", "max_rounds_fraction", "edge_end_fraction",
        "edge_out_of_range", "edge_self_loop", "edge_weight_negative", "default_weight_negative",
        "dt_bool", "gamma1_numeric_string", "t_final_numeric_string", "R_bool", "k_bool",
        "k_numeric_string", "p0_bool", "h1_inf", "h1_nan", "h2_inf", "h2_nan", "h3_inf", "h3_nan",
        "im_polys_inf", "explicit_M_string", "explicit_N_bool", "explicit_M_inf",
        "explicit_unknown_key", "explicit_not_a_list"])
def test_malformed_values_are_config_errors(patch, argv, field, fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(["simulate", "--config", str(fast_cfg(**patch)), "--out", str(out_csv), *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert f"config error: {field}: " in captured.err
    assert "Traceback" not in captured.err
    assert not out_csv.exists()


def test_explicit_stabilizers_written_out_give_the_presets_bank(sec5, sec5_norm):
    # the preset's pairs, given agent by agent and level by level as {M, N} entries
    preset = sec5.synthesized().bank.levels
    cfg = json.loads(json.dumps(sec5_norm))
    cfg["internal_model"] = {"explicit": [[{"M": level.M[i].tolist(), "N": level.N[i].tolist()}
                                           for level in preset] for i in range(sec5.n)]}
    scenario, norm = load_scenario(cfg)
    for level, expected in zip(scenario.synthesized().bank.levels, preset, strict=True):
        for name in ("M", "N", "T", "Psi"):
            assert np.array_equal(getattr(level, name), getattr(expected, name))
    assert normalize(json.loads(dump_normalized(norm))) == norm


def test_whole_number_floats_are_integers(fast_cfg):
    cfg = fast_cfg(**{"sim.seed": 3.0, "sim.decimate": 5.0, "graph.n": 4.0,
                      "controller.escalation.max_rounds": 2.0,
                      "graph.edges": [[0.0, 1.0], [1, 2], [2, 3]]})
    scenario, norm = load_scenario(cfg)
    assert (scenario.seed, scenario.decimate, scenario.escalation.max_rounds) == (3, 5, 2)
    assert [type(norm["sim"]["seed"]), type(norm["graph"]["n"])] == [int, int]
    assert norm["graph"]["edges"][0][:2] == [0, 1]


def test_missing_config_exit_code(capsys):
    assert main(["solve-ne", "--config", "/nonexistent/path.scenario"]) == 1


def _custom_config(tmp_path, t_final):
    """Custom game and plant wired through config factories, one-level chain."""
    cfg = {
        "game": {"kind": "custom", "factory": "factories:build_game",
                 "args": {"h1": [1.0, 2.0, 3.0], "coupling": 0.5}},
        "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
        "plant": {"kind": "custom", "factory": "factories:build_plant",
                  "args": {"n_agents": 3},
                  "w_box": [[-0.1, 0.1]] * 3,
                  "v0_box": [[0.5, 1.0], [0.0, 0.0]]},
        "gains": {"gamma1": 1.0, "gamma2": "auto"},
        "controller": {"k": [[8.0]] * 3},
        "sim": {"t_final": t_final, "dt": 1e-3, "seed": 2, "R": 0.5, "decimate": 10},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    return path


def test_custom_factories_relative_degree_one(tmp_path, capsys):
    path = _custom_config(tmp_path, t_final=15.0)
    out_csv = tmp_path / "custom.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    final = float(out.split("final_tracking_max = ")[1].splitlines()[0])
    assert final < 1e-2
    assert out_csv.exists()


@pytest.mark.parametrize("argv", [["simulate", "--out", "o.csv"], ["check"]],
                         ids=["simulate", "check"])
def test_custom_plant_of_another_agent_count_is_a_config_error(argv, tmp_path, capsys,
                                                               monkeypatch):
    # a 2-agent plant, its box sized to match, under the 3-player game
    path = _custom_config(tmp_path, t_final=0.5)
    cfg = json.loads(path.read_text())
    cfg["plant"]["args"]["n_agents"] = 2
    cfg["plant"]["w_box"] = [[-0.1, 0.1]] * 2
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: plant: " in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("box", [[1.0, 1.0], [2.0, 1.0]], ids=["zero_width", "inverted"])
def test_bad_custom_sample_box_is_config_error(box, tmp_path, capsys):
    path = _custom_config(tmp_path, t_final=3.0)
    cfg = json.loads(path.read_text())
    cfg["game"]["args"]["box"] = box
    path.write_text(json.dumps(cfg))
    assert main(["solve-ne", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: game: sample_box" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.fixture()
def scenario_file(fast_cfg, tmp_path):
    """``make(base, patch)``: the path of a scenario file to load.

    A ``sec5`` base is `fast_cfg`'s file and a ``custom`` base `_custom_config`'s,
    with the dotted fields of ``patch`` set (see `rewrite`); a ``bytes`` base is a
    file that holds ``patch``, and a ``directory`` base is a directory.
    """
    def make(base, patch):
        if base == "bytes":
            (tmp_path / "raw.json").write_bytes(patch)
            return tmp_path / "raw.json"
        if base == "directory":
            return tmp_path
        if base == "sec5":
            return fast_cfg(**patch)
        return rewrite(_custom_config(tmp_path, t_final=0.5), **patch)
    return make


# `PlantModel` itself as the factory, given no drift for its one integrator level
PLANT_MODEL_ARGS = {"n_agents": 3, "r": 1, "n_z": 1, "n_w": 3, "f0": 0, "f_levels": [],
                    "steady_zero": 0, "im_polys": [[-1.0, 0.0]]}


def config_error_line(path, capsys) -> str:
    """The one line `solve-ne` prints on the scenario file ``path``, which it must reject."""
    assert main(["solve-ne", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    [line] = captured.err.splitlines()
    return line


@pytest.mark.parametrize("base, patch, message", [
    ("sec5", {"sim": [0.001]}, "sim: expected an object, got list"),
    ("sec5", {"gains": "fast"}, "gains: expected an object, got str"),
    ("sec5", {"exosystem": [[0.0, 1.0], [-1.0, 0.0]]}, "exosystem: expected an object, got list"),
    ("sec5", {"controller": ["escalation"]}, "controller: expected an object, got list"),
    ("custom", {"game.args": [[1.0, 2.0, 3.0], 0.5]}, "game.args: expected an object, got list"),
    ("custom", {"plant.args": "n_agents=3"}, "plant.args: expected an object, got str"),
    ("custom", {"game.args.rate": 1.0},
     "game: build_game() got an unexpected keyword argument 'rate'"),
    ("custom", {"plant.args.rate": 1.0},
     "plant: build_plant() got an unexpected keyword argument 'rate'"),
    ("custom", {"plant.factory": "nesim.plant:PlantModel", "plant.args": PLANT_MODEL_ARGS},
     "plant: need one drift callable per integrator level"),
    ("custom", {"game.factory": "factories:np"}, "game: 'module' object is not callable"),
], ids=["sim_list", "gains_string", "exosystem_list", "controller_list", "game_args_list",
        "plant_args_string", "game_args_unknown_key", "plant_args_unknown_key",
        "plant_factory_value_error", "factory_not_callable"])
def test_malformed_sections_and_factories_are_config_errors(base, patch, message, scenario_file,
                                                            capsys):
    assert config_error_line(scenario_file(base, patch), capsys).startswith(
        f"config error: {message}")


@pytest.mark.parametrize("base, patch, message", [
    ("bytes", b"[1.0]", "top level: expected an object"),
    ("sec5", {"solver": {}}, "top level: unknown sections ['solver']"),
    ("sec5", {"plant": MISSING}, "top level: missing required section 'plant'"),
    ("sec5", {"game.h1": MISSING}, "game.h1: required for the quadratic_aggregative kind"),
    ("custom", {"game.factory": MISSING}, "game.factory: required for the custom kind"),
    ("sec5", {"game.kind": "quadratic"}, "game.kind: unknown kind 'quadratic'"),
    ("sec5", {"game.kind": ["custom"]}, "game.kind: unknown kind ['custom']"),
    ("sec5", {"graph.n": MISSING}, "graph: requires 'n' and 'edges'"),
    ("sec5", {"plant.g": MISSING}, "plant.g: required for the example_sec5 kind"),
    ("custom", {"plant.factory": MISSING}, "plant.factory: required for the custom kind"),
    ("sec5", {"plant.kind": "sec5"}, "plant.kind: unknown kind 'sec5'"),
    ("sec5", {"plant.w_box": MISSING}, "plant.w_box: required"),
    ("sec5", {"internal_model.preset": "sec6"}, "internal_model.preset: unknown preset 'sec6'"),
    ("custom", {"game.factory": "factories.build_game"},
     "game.factory: factory 'factories.build_game' must look like 'module:callable'"),
    ("custom", {"game.factory": 5}, "game.factory: factory 5 must look like 'module:callable'"),
    ("custom", {"plant.factory": "factories:build_plant_v2"},
     "plant.factory: cannot import factory 'factories:build_plant_v2'"),
    ("custom", {"plant.factory": "nesim_plugins:build_plant"},
     "plant.factory: cannot import factory 'nesim_plugins:build_plant'"),
    ("custom", {"game.factory": ".factories:build_game"},
     "game.factory: cannot import factory '.factories:build_game'"),
    ("custom", {"game.factory": "factories:build_plant", "game.args": {"n_agents": 3}},
     "game.factory must return a CustomGame"),
    ("custom", {"plant.factory": "factories:build_game",
                "plant.args": {"h1": [1.0, 2.0, 3.0], "coupling": 0.5}},
     "plant.factory must return a PlantModel"),
    # a config error the factory raises is not named again: here a nested load's own
    ("custom", {"game.factory": "nesim.config:load_scenario", "game.args": {"source": {}}},
     "top level: missing required section 'game'"),
    ("sec5", {"graph.n": 5}, "graph.n: 5 players in graph, 4 in game"),
    ("directory", None, "cannot read {path}"),
    ("bytes", b'{"game": ', "{path} is not valid JSON"),
    ("bytes", b"\xff\xfe{}", "cannot read {path}"),
    # models the library rejects as inadmissible
    ("custom", {"plant.factory": "factories:build_plant_off_origin",
                "plant.args": {"n_agents": 3, "offset": 0.25}},
     "plant: origin drift 2.500e-01 exceeds"),
    ("sec5", {"internal_model": {"explicit": [[{"M": [[1.0]], "N": [1.0]}]]}},
     "internal_model.explicit: M is not Hurwitz"),
    ("sec5", {"plant.w_box": [[-0.05, 1.5]] + [[-0.05, 0.05]] * 23},
     "plant: g1 + w must stay negative over the whole uncertainty box"),
], ids=["top_level_list", "unknown_section", "no_plant", "no_h1", "no_game_factory",
        "unknown_game_kind", "game_kind_list", "graph_without_n", "no_g", "no_plant_factory",
        "unknown_plant_kind", "no_w_box", "unknown_preset", "factory_without_colon",
        "factory_not_a_string", "factory_attribute_missing", "factory_module_missing",
        "factory_relative_module", "game_factory_wrong_type", "plant_factory_wrong_type",
        "factory_config_error", "graph_n_not_the_players", "path_is_a_directory", "invalid_json", "not_utf8",
        "origin_not_an_equilibrium", "explicit_stabilizer_not_hurwitz", "g1_plus_w_not_negative"])
def test_each_config_error_names_its_field(base, patch, message, scenario_file, capsys):
    path = scenario_file(base, patch)
    assert config_error_line(path, capsys).startswith(f"config error: {message.format(path=path)}")


def test_check_names_a_recurrence_too_deep_for_the_stencils(tmp_path, capsys):
    # no `steady_poly`: the reproduction check seeds from central differences, whose stencils
    # reach derivative 4, so a recurrence of order 7 (frequencies 0, 1, 2, 3) cannot be seeded
    path = _custom_config(tmp_path, t_final=0.5)
    cfg = json.loads(path.read_text())
    cfg["plant"]["im_polys"] = [[0.0, -36.0, 0.0, -49.0, 0.0, -14.0, 0.0]]
    path.write_text(json.dumps(cfg))
    assert main(["check", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "config error: plant.im_polys[0] (level 1): recurrence order 7 > 5" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_check_passes_on_custom_game_and_plant(tmp_path, capsys):
    # no `steady_poly` and no `split`: the generic steady-state chain and drift
    assert main(["check", "--config", str(_custom_config(tmp_path, t_final=3.0))]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    statuses = {parts[0]: parts[1] for parts in lines if len(parts) > 1
                and parts[1] in ("PASS", "FAIL")}
    assert "im_reproduction_level1" in statuses and "step_halving" in statuses
    assert set(statuses.values()) == {"PASS"}
    # the finite-difference gradients are compared with an independent estimate
    gradient = next(parts for parts in lines if parts and parts[0] == "gradient_fd_agreement")
    assert gradient[5] != "0.00e+00"


def _escalation_line(out: str) -> tuple[int, float]:
    line = next(l for l in out.splitlines() if l.startswith("gain escalation: passed at round"))
    rounds = int(line.split("round ")[1].split()[0])
    multiplier = float(line.split("multiplier ")[1].split(",")[0])
    return rounds, multiplier


def _integrated_seeds(calls) -> list:
    """The seeds integrated by the `run` calls outside escalation, in order."""
    seeds = []
    for _, kw in calls:
        if "abort_norm" not in kw:
            seed = kw.get("seed")
            seeds += list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return seeds


def test_simulate_reuses_the_passing_escalation_run(sec5, tmp_path, capsys, count_calls):
    calls = count_calls(run)
    out = tmp_path / "esc.csv"
    assert main(["simulate", "--config", "sec5", "--t-final", "10", "--sweep", "seeds=2",
                 "--out", str(out)]) == 0
    rounds, mult = _escalation_line(capsys.readouterr().out)
    # one run per escalation round, then only the second seed is integrated
    assert len(calls) == rounds + 1
    assert _integrated_seeds(calls) == [sec5.seed + 1]
    start = ControllerGains.uniform(sec5.n, sec5.plant.r, 4.0)
    short = dataclasses.replace(sec5, t_final=10.0, controller_k=start.scaled(mult).k,
                                gains=GeneratorGains(sec5.gains.gamma1 * mult, sec5.gains.gamma2))

    def explicit_csv(name, **kwargs):
        path = tmp_path / name
        write_csv(run(short, **kwargs), path)
        return path.read_bytes()

    for seed in (sec5.seed, sec5.seed + 1):
        assert (tmp_path / f"esc_s{seed}.csv").read_bytes() == \
            explicit_csv(f"explicit_s{seed}.csv", seed=seed)

    del calls[:]
    ablated = tmp_path / "ablated.csv"
    assert main(["simulate", "--config", "sec5", "--t-final", "10",
                 "--ablate-internal-model", "--out", str(ablated)]) == 0
    assert _escalation_line(capsys.readouterr().out) == (rounds, mult)
    assert len(calls) == rounds + 1  # the ablated run is integrated afresh
    assert _integrated_seeds(calls) == [sec5.seed]
    assert ablated.read_bytes() == explicit_csv("explicit_ablated.csv", ablate=True)


def test_a_16_ring_sweep_steps_one_seed_per_batch(tmp_path, count_calls, capsys):
    # a 16-ring seed holds 17.2 MB (`Scenario.seed_bytes`), so no two fit SWEEP_BYTES. At dt
    # 1e-3 the runs diverge in their first block (exit 2), after the workspace that sets the
    # peak is allocated. Measured: 28.8 MB traced for 1 seed and for 16; 431 MB as one batch
    path = tmp_path / "ring16.scenario"
    path.write_text(json.dumps(ring_config(16, t_final=0.05)))
    out = str(tmp_path / "sweep.csv")
    main(["simulate", "--config", str(path), "--t-final", "0.01", "--out", out])  # imports
    calls, peaks = count_calls(run), {}
    for seeds in (1, 16):
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(path), "--sweep", f"seeds={seeds}",
                         "--out", out]) == 2
            peaks[seeds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert [kw["seed"] for _, kw in calls] == [[1]] + [[seed] for seed in range(1, 17)]
    assert peaks[16] <= 1.1 * peaks[1]


def test_sweep_spanning_batches_matches_one_seed_runs(fast_cfg, tmp_path, monkeypatch,
                                                      count_calls):
    path = fast_cfg()
    scenario, _ = load_scenario(path)
    monkeypatch.setattr(cli, "SWEEP_BYTES", 3 * scenario.seed_bytes() - 1)  # two seeds a batch
    # stand in for a passing escalation run of the scenario seed, which is reused
    passing = run(scenario)
    monkeypatch.setattr(cli, "_resolve_gains", lambda sc, quiet=False: (sc, passing))
    calls = count_calls(run)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(path), "--sweep", "seeds=4", "--out", str(out)]) == 0
    first = scenario.seed
    # batches [s, s+1] and [s+2, s+3]; seed s is the reused run
    assert [kw["seed"] for _, kw in calls] == [[first + 1], [first + 2, first + 3]]
    for seed in range(first, first + 4):
        alone = tmp_path / f"alone_s{seed}.csv"
        write_csv(run(scenario, seed=seed), alone)
        assert (tmp_path / f"sweep_s{seed}.csv").read_bytes() == alone.read_bytes()
