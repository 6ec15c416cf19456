from __future__ import annotations

import json

import numpy as np
import pytest

from nesim.cli import main
from nesim.config import load_scenario, normalize
from nesim.errors import ConfigError


@pytest.fixture()
def fast_cfg(sec5_norm, tmp_path):
    """Bundled scenario with explicit stabilizing gains and a short horizon."""
    def make(**patch):
        cfg = json.loads(json.dumps(sec5_norm))
        cfg["controller"]["k"] = [[16.0, 16.0]] * 4
        cfg["sim"]["t_final"] = 2.0
        for dotted, value in patch.items():
            section, key = dotted.split(".")
            cfg[section][key] = value
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


def test_check_passes_on_bundled_scenario(fast_cfg, capsys):
    cfg = fast_cfg(**{"sim.t_final": 6.0})
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "sylvester_residual" in out and "FAIL" not in out


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


def test_missing_config_exit_code(capsys):
    assert main(["solve-ne", "--config", "/nonexistent/path.scenario"]) == 1


def test_custom_factories_relative_degree_one(tmp_path, capsys):
    # custom game and plant wired through config factories, one-level chain
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
        "sim": {"t_final": 15.0, "dt": 1e-3, "seed": 2, "R": 0.5, "decimate": 10},
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "custom.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    final = float(out.split("final_tracking_max = ")[1].splitlines()[0])
    assert final < 1e-2
    assert out_csv.exists()
