"""Re-record ``outputs.json``: the exact stdout and files of a few ``nesim`` runs.

``outputs.json`` keeps each case's argument list, its exit code and its
stdout as a list of lines, each with its line end, so the lines joined are
the exact bytes and a moved line shows as one line in a diff. A case that
writes files (``simulate``'s CSVs) also keeps the sha256 of each, by name.
It also keeps the OpenBLAS core the cases were recorded under
(`blas_core`): the bits are those of that core's kernels, and a failing
case names it next to the core it runs under.

Run from the repository root, with the package importable::

    PYTHONPATH=src python tests/golden/record.py

Each case is a ``nesim`` argument list. A case that names no bundled scenario
reads a scenario file of ``CONFIGS`` (built from the test factories of
``tests/factories.py``, or from the bundled sec5 scenario), which this script
and ``tests/test_golden_outputs.py`` write into a temporary directory and run
from there. Re-record only for a change that is meant to
move the output, and say which lines moved and why: the script prints each
case of the file it overwrites whose stdout moved, with the number of lines.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the custom game and the generic relative-degree-1 plant of the test factories
CUSTOM_CONFIG = {
    "game": {"kind": "custom", "factory": "factories:build_game",
             "args": {"h1": [1.0, 2.0, 3.0], "coupling": 0.5}},
    "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
    "plant": {"kind": "custom", "factory": "factories:build_plant",
              "args": {"n_agents": 3},
              "w_box": [[-0.1, 0.1]] * 3,
              "v0_box": [[0.5, 1.0], [0.0, 0.0]]},
    "gains": {"gamma1": 1.0, "gamma2": "auto"},
    "controller": {"k": [[8.0]] * 3},
    "sim": {"t_final": 0.5, "dt": 1e-3, "seed": 2, "R": 0.5, "decimate": 10},
}

# sec5's game, graph, plant, exosystem and seed, the plant without its `split` hook (so
# its drift is read through f0/f_levels), at explicit gains and a short horizon
NO_SPLIT_CONFIG = {
    "game": {"kind": "quadratic_aggregative", "h1": [2.0, 4.0, 3.0, 5.0],
             "h2": [2.0, 2.0, 2.0, 2.0], "h3": [1.0, 1.0, 1.0, 1.0]},
    "graph": {"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 0, 1.0]]},
    "plant": {"kind": "custom", "factory": "factories:build_plant_without_split",
              "args": {"g": [[-1.0, 1.0, 0.5, 2.0, 0.3, 0.3],
                             [-1.2, 0.8, 0.4, 2.2, 0.25, 0.35],
                             [-0.9, 1.1, 0.6, 1.8, 0.35, 0.25],
                             [-1.1, 0.9, 0.5, 2.0, 0.3, 0.3]]},
              "w_box": [[-0.05, 0.05]] * 24,
              "v0_box": [[0.6, 1.4], [-0.4, 0.4]]},
    "exosystem": {"S": [[0.0, 1.0], [-1.0, 0.0]]},
    "internal_model": {"preset": "sec5"},
    "gains": {"gamma1": 1.0, "gamma2": "auto"},
    "controller": {"k": [[16.0, 16.0]] * 4},
    "sim": {"t_final": 0.5, "dt": 1e-3, "seed": 1, "R": 1.0, "decimate": 10},
}

# the bundled sec5 scenario at start gains too low for it, k = 4 on every level, for 2 s:
# some seeds of a batch diverge and are parked while the others run on
DIVERGING_CONFIG = json.loads(resources.files("nesim").joinpath("data", "sec5.scenario")
                              .read_text())
DIVERGING_CONFIG["controller"] = {"k": [[4.0, 4.0]] * 4}
DIVERGING_CONFIG["sim"]["t_final"] = 2.0

# the plant without its `split` hook at gains too low for it, k = 4 on every level, for 1.5 s:
# seeds 1 and 2 diverge and are parked, and the generic drift's fill skips them from then on
NO_SPLIT_DIVERGING_CONFIG = json.loads(json.dumps(NO_SPLIT_CONFIG))
NO_SPLIT_DIVERGING_CONFIG["controller"] = {"k": [[4.0, 4.0]] * 4}
NO_SPLIT_DIVERGING_CONFIG["sim"]["t_final"] = 1.5

# the bundled sec5 scenario at the gains its escalation passes with (round 3, x4) for 2 s
DENSE_CONFIG = json.loads(resources.files("nesim").joinpath("data", "sec5.scenario")
                          .read_text())
DENSE_CONFIG["controller"] = {"k": [[16.0, 16.0]] * 4}
DENSE_CONFIG["gains"]["gamma1"] = 4.0
DENSE_CONFIG["sim"]["t_final"] = 2.0

CONFIGS = {"custom.json": CUSTOM_CONFIG, "no_split.json": NO_SPLIT_CONFIG,
           "diverging.json": DIVERGING_CONFIG,
           "no_split_diverging.json": NO_SPLIT_DIVERGING_CONFIG, "dense.json": DENSE_CONFIG}

CASES = {
    "check_sec5_seed1": ["check", "--config", "sec5", "--t-final", "10", "--seed", "1"],
    "check_sec5_seed2": ["check", "--config", "sec5", "--t-final", "10", "--seed", "2"],
    "check_custom_factories": ["check", "--config", "custom.json"],
    "check_sec5_plant_without_split": ["check", "--config", "no_split.json"],
    # the equilibrium and the sampled constants of the custom game, and sec5's exact ones
    "solve_ne_custom_factories": ["solve-ne", "--config", "custom.json"],
    "solve_ne_sec5": ["solve-ne", "--config", "sec5"],
    # the bundled scenario's internal-model bank: every agent's M, N, T and Psi
    "synthesize_sec5": ["synthesize", "--config", "sec5"],
    # the custom game's partials and the generic plant's drift in every stage, two seeds batched
    "simulate_custom_factories_seeds2_3": ["simulate", "--config", "custom.json",
                                           "--t-final", "3", "--sweep", "seeds=2"],
    # seeds 1 and 2 diverge and are parked, seed 3 runs to the end: exit 2, three CSVs
    "simulate_sec5_diverging_seeds1_3": ["simulate", "--config", "diverging.json",
                                         "--sweep", "seeds=3"],
    # the same through the generic (no-`split`) drift: seeds 1 and 2 diverge, exit 2
    "simulate_no_split_diverging_seeds1_3": ["simulate", "--config", "no_split_diverging.json",
                                             "--sweep", "seeds=3"],
    # the bundled scenario as shipped: escalation, then seeds 1-3, plain and ablated
    "simulate_sec5_seeds1_3": ["simulate", "--config", "sec5", "--t-final", "5",
                               "--sweep", "seeds=3"],
    "simulate_sec5_ablated_seeds1_3": ["simulate", "--config", "sec5", "--t-final", "5",
                                       "--sweep", "seeds=3", "--ablate-internal-model"],
    # two seeds batched at fixed gains, every step kept: the cells the seeds share
    "simulate_sec5_dense_seeds1_2": ["simulate", "--config", "dense.json", "--decimate", "1",
                                     "--sweep", "seeds=2"],
    # 2501 rows kept per seed: past `run`'s first window of kept states, so one slide and a last
    # window of 1477 rows
    "simulate_sec5_dense_t2_5_seeds1_2": ["simulate", "--config", "dense.json", "--decimate",
                                          "1", "--t-final", "2.5", "--sweep", "seeds=2"],
    # every step kept: seed 4 diverges at row 1331, before the first slide, seeds 3 and 5 at
    # rows 2091 and 2217, after it: exit 2
    "simulate_sec5_diverging_dense_seeds3_5": ["simulate", "--config", "diverging.json",
                                               "--decimate", "1", "--t-final", "2.5",
                                               "--seed", "3", "--sweep", "seeds=3"],
    # the bundled scenario's normalized config, every default filled in, as echoed
    "dump_normalized_sec5": ["simulate", "--config", "sec5", "--dump-normalized"],
}


def blas_core() -> str:
    """The core whose kernels NumPy's bundled OpenBLAS runs, or ``"unknown"``.

    It is what ``scipy_openblas_get_corename64_`` of the scipy-openblas
    library NumPy ships (``numpy.libs``, or ``numpy/.dylibs`` on macOS)
    returns: the CPU's, unless ``OPENBLAS_CORETYPE`` names another.
    """
    import ctypes

    import numpy as np

    root = Path(np.__file__).resolve().parent
    for lib in [*sorted(root.parent.glob("numpy.libs/libscipy_openblas*")),
                *sorted(root.glob(".dylibs/libscipy_openblas*"))]:
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def run_case(argv: list[str], where: Path) -> dict:
    """``argv``'s exit code, stdout lines and, if it wrote any, the sha256 of each new file.

    ``nesim`` runs with ``where`` as its working directory; the files it writes
    there are hashed and removed, so the next case starts from the configs alone.
    """
    from nesim.cli import main as nesim_main

    before = set(os.listdir(where))
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out):
            code = nesim_main(argv)
    finally:
        os.chdir(cwd)
    case = {"argv": argv, "exit": code, "stdout": out.getvalue().splitlines(keepends=True)}
    written = sorted(set(os.listdir(where)) - before)
    if written:
        case["files"] = {name: hashlib.sha256(Path(where, name).read_bytes()).hexdigest()
                         for name in written}
        for name in written:
            Path(where, name).unlink()
    return case


def moved_lines(old: list[str], new: list[str]) -> int:
    """How many lines of ``old`` were replaced or dropped, or added in ``new``."""
    matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
    return sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in matcher.get_opcodes()
               if tag != "equal")


def main() -> None:
    sys.path.insert(0, str(HERE.parent))  # `factories`, named by the custom configs
    cases = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in CONFIGS.items():
            Path(scratch, name).write_text(json.dumps(config))
        for name, argv in CASES.items():
            cases[name] = run_case(argv, Path(scratch))
    path = HERE / "outputs.json"
    before = json.loads(path.read_text())["cases"] if path.exists() else {}
    for name, case in cases.items():
        if name not in before:
            print(f"{name}: new, {len(case['stdout'])} lines")
        elif case != before[name]:
            old = before[name]
            exit_moved = ("" if case["exit"] == old["exit"]
                          else f", exit {old['exit']} -> {case['exit']}")
            files, old_files = case.get("files", {}), old.get("files", {})
            files_moved = sorted(file for file in files.keys() | old_files.keys()
                                 if files.get(file) != old_files.get(file))
            print(f"{name}: {moved_lines(old['stdout'], case['stdout'])} lines moved"
                  + exit_moved + "".join(f", {file} moved" for file in files_moved))
    for name in before.keys() - cases.keys():
        print(f"{name}: dropped")
    path.write_text(json.dumps({"blas_core": blas_core(), "configs": CONFIGS, "cases": cases},
                               indent=1) + "\n")


if __name__ == "__main__":
    main()
