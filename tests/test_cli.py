from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from nesim import cli
from nesim.cli import main
from nesim.config import load_scenario, normalize
from nesim.controller import ControllerGains
from nesim.errors import ConfigError
from nesim.plant import exo_trajectory
from nesim.simulation import run, write_csv


@pytest.fixture()
def fast_cfg(sec5_norm, tmp_path):
    """Bundled scenario with explicit stabilizing gains and a short horizon.

    Each keyword names a value by its dotted path, such as ``sim.dt``.
    """
    def make(**patch):
        cfg = json.loads(json.dumps(sec5_norm))
        cfg["controller"]["k"] = [[16.0, 16.0]] * 4
        cfg["sim"]["t_final"] = 2.0
        for dotted, value in patch.items():
            *parents, key = dotted.split(".")
            node = cfg
            for name in parents:
                node = node[name]
            node[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return path
    return make


def test_dump_normalized_round_trip(sec5_path, sec5_norm, capsys):
    assert main(["simulate", "--config", str(sec5_path), "--dump-normalized"]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert normalize(echoed) == sec5_norm
    scenario, norm2 = load_scenario(echoed)
    assert norm2 == sec5_norm
    assert scenario.seed == sec5_norm["sim"]["seed"]


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


def test_simulate_sweep_writes_per_seed_files(fast_cfg, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code = main(["simulate", "--config", str(fast_cfg()), "--out", str(out_csv),
                 "--sweep", "seeds=2", "--t-final", "1.0"])
    assert code == 0
    assert (tmp_path / "sweep_s1.csv").exists()
    assert (tmp_path / "sweep_s2.csv").exists()


def test_divergence_exit_code(fast_cfg, tmp_path, capsys):
    cfg = fast_cfg(**{"controller.k": [[4.0, 4.0]] * 4, "sim.t_final": 10.0})
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
    assert code == 2


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


def test_check_catches_wrong_recurrence(fast_cfg, capsys):
    # frequencies {0, 2, 3} cannot reproduce the plant's {0, 1, 2} signals
    cfg = fast_cfg(**{"plant.im_polys": [[0.0, -1.0, 0.0], [0.0, -36.0, 0.0, -13.0, 0.0]],
                      "sim.t_final": 6.0})
    assert main(["check", "--config", str(cfg)]) == 3
    out = capsys.readouterr().out
    assert "im_reproduction_level2" in out and "FAIL" in out


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
    ({}, ["--sweep", "seeds=0"]), ({"sim.decimate": 0}, []),
], ids=["decimate_flag", "dt_flag", "t_final_flag", "sweep_zero_seeds", "decimate_key"])
def test_bad_run_settings_are_config_errors(patch, argv, fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(["simulate", "--config", str(fast_cfg(**patch)), "--out", str(out_csv), *argv])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("patch, argv, field", [
    ({"gains.gamma1": 0}, [], "gains.gamma1"),
    ({"gains.gamma2": -1}, [], "gains.gamma2"),
    ({"controller.k": [[0.0, 16.0]] + [[16.0, 16.0]] * 3}, [], "controller.k"),
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
], ids=["gamma1_zero", "gamma2_negative", "k_zero", "factor_one", "max_rounds_zero",
        "R_negative", "R_inf", "seed_negative", "seed_flag_negative", "dt_flag_nan",
        "t_final_flag_nan", "t_final_flag_inf", "dt_string", "seed_nan", "decimate_null",
        "gamma1_string", "k_string"])
def test_malformed_values_are_config_errors(patch, argv, field, fast_cfg, tmp_path, capsys):
    out_csv = tmp_path / "bad.csv"
    code = main(["simulate", "--config", str(fast_cfg(**patch)), "--out", str(out_csv), *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert f"config error: {field}: " in captured.err
    assert "Traceback" not in captured.err
    assert not out_csv.exists()


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
    short = dataclasses.replace(sec5, t_final=10.0)
    gains = ControllerGains.uniform(sec5.n, sec5.plant.r).scaled(mult)

    def explicit_csv(name, **kwargs):
        path = tmp_path / name
        write_csv(run(short, gains=gains, gamma1=sec5.gains.gamma1 * mult, **kwargs), path)
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


@pytest.mark.parametrize("bound", ["count", "bytes"])
def test_sweep_spanning_batches_matches_one_seed_runs(bound, fast_cfg, tmp_path, monkeypatch,
                                                      count_calls):
    path = fast_cfg()
    scenario, _ = load_scenario(path)
    # two seeds per batch, by the seed count or by the kept-state bytes
    if bound == "count":
        monkeypatch.setattr(cli, "SWEEP_BATCH", 2)
    else:
        monkeypatch.setattr(cli, "SWEEP_KEPT_BYTES", 3 * scenario.kept_state_bytes() - 1)
    gains, gamma1 = ControllerGains(scenario.controller_k), scenario.gains.gamma1
    # stand in for a passing escalation run of the scenario seed, which is reused
    passing = run(scenario, gains=gains, gamma1=gamma1)
    monkeypatch.setattr(cli, "_resolve_gains", lambda sc, quiet=False: (gains, gamma1, passing))
    calls = count_calls(run)
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", str(path), "--sweep", "seeds=4", "--out", str(out)]) == 0
    first = scenario.seed
    # batches [s, s+1] and [s+2, s+3]; seed s is the reused run
    assert [kw["seed"] for _, kw in calls] == [[first + 1], [first + 2, first + 3]]
    for seed in range(first, first + 4):
        alone = tmp_path / f"alone_s{seed}.csv"
        write_csv(run(scenario, gains=gains, gamma1=gamma1, seed=seed), alone)
        assert (tmp_path / f"sweep_s{seed}.csv").read_bytes() == alone.read_bytes()
