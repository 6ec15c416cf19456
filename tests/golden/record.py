"""Re-record ``outputs.json``: the exact stdout and files of a few ``nesim`` runs.

``outputs.json`` keeps each case's argument list, its exit code and its
stdout as a list of lines, each with its line end, so the lines joined are
the exact bytes and a moved line shows as one line in a diff. A case that
writes files (``simulate``'s CSVs) also keeps the sha256 of each, by name.
The bits are those of the OpenBLAS core whose kernels ran (`blas_core`), so
every case is recorded under each core this CPU runs, one subprocess per
core with ``OPENBLAS_CORETYPE`` set, and ``exit``, ``stdout`` and ``files``
each hold a list of variants ``{"cores": [..], "value": ..}``: a value is
stored once for all the cores that give it. ``cores`` lists the recorded
cores.

Run from the repository root, with the package importable::

    PYTHONPATH=src python tests/golden/record.py

``record.py --cases [NAME ..]`` runs the named cases (all by default) under
this process's core and prints ``{"core": .., "cases": ..}`` as JSON, the
values unmerged.

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
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # `factories`: the ring config, the custom configs' hooks

from factories import ring_config  # noqa: E402

# OpenBLAS's x86-64 core names: each selects the kernels of a core the CPU can run, the one
# named or an older one; the distinct cores they select are the ones recorded
CORE_NAMES = ("Katmai", "Prescott", "Core2", "Penryn", "Dunnington", "Nehalem", "Atom",
              "Opteron", "Barcelona", "Bobcat", "Bulldozer", "Piledriver", "Steamroller",
              "Excavator", "Zen", "Sandybridge", "Haswell", "SkylakeX", "Cooperlake",
              "SapphireRapids")
FIELDS = ("exit", "stdout", "files")

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
# some seeds of a batch diverge and stop while the others run on
DIVERGING_CONFIG = json.loads(resources.files("nesim").joinpath("data", "sec5.scenario")
                              .read_text())
DIVERGING_CONFIG["controller"] = {"k": [[4.0, 4.0]] * 4}
DIVERGING_CONFIG["sim"]["t_final"] = 2.0

# the plant without its `split` hook at gains too low for it, k = 4 on every level, for 1.5 s:
# seeds 1 and 2 diverge and stop; the generic drift's fill still fills them
NO_SPLIT_DIVERGING_CONFIG = json.loads(json.dumps(NO_SPLIT_CONFIG))
NO_SPLIT_DIVERGING_CONFIG["controller"] = {"k": [[4.0, 4.0]] * 4}
NO_SPLIT_DIVERGING_CONFIG["sim"]["t_final"] = 1.5

# the bundled sec5 scenario at the gains its escalation passes with (round 3, x4) for 2 s
DENSE_CONFIG = json.loads(resources.files("nesim").joinpath("data", "sec5.scenario")
                          .read_text())
DENSE_CONFIG["controller"] = {"k": [[16.0, 16.0]] * 4}
DENSE_CONFIG["gains"]["gamma1"] = 4.0
DENSE_CONFIG["sim"]["t_final"] = 2.0

# sec5's parts on a ring of 8 agents at x4 gains, at the step the 8-ring passes with, for 0.5 s
RING8_CONFIG = ring_config(8, gain=4.0, dt=2.5e-4, t_final=0.5)

CONFIGS = {"custom.json": CUSTOM_CONFIG, "no_split.json": NO_SPLIT_CONFIG,
           "diverging.json": DIVERGING_CONFIG,
           "no_split_diverging.json": NO_SPLIT_DIVERGING_CONFIG, "dense.json": DENSE_CONFIG,
           "ring8.json": RING8_CONFIG}

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
    # seeds 1 and 2 diverge and stop, seed 3 runs to the end: exit 2, three CSVs
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
    # 2501 rows kept per seed: 40 blocks of 64 steps, the last of four, each derived as it arrives
    "simulate_sec5_dense_t2_5_seeds1_2": ["simulate", "--config", "dense.json", "--decimate",
                                          "1", "--t-final", "2.5", "--sweep", "seeds=2"],
    # every step kept: seeds 4, 3 and 5 diverge at rows 1331, 2091 and 2217, inside a block,
    # and stop while the others run on: exit 2
    "simulate_sec5_diverging_dense_seeds3_5": ["simulate", "--config", "diverging.json",
                                               "--decimate", "1", "--t-final", "2.5",
                                               "--seed", "3", "--sweep", "seeds=3"],
    # two seeds of the 8-ring batched, 154 state rows each
    "simulate_ring8_seeds1_2": ["simulate", "--config", "ring8.json", "--sweep", "seeds=2"],
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


def record_cases(names) -> dict:
    """The named cases' records under this process's core, run from a scratch directory."""
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in CONFIGS.items():
            Path(scratch, name).write_text(json.dumps(config))
        return {name: run_case(CASES[name], Path(scratch)) for name in names}


def under_core(name: str, *args: str) -> dict:
    """``record.py --cases *args`` in a subprocess with ``OPENBLAS_CORETYPE=name``."""
    path = [str(HERE.parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_CORETYPE=name, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--cases", *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def variant(case: dict, field: str, core: str):
    """The value of ``field`` that ``case`` holds for ``core``, or None when it holds none."""
    return next((v["value"] for v in case[field] if core in v["cores"]), None)


def merged(by_core: dict) -> dict:
    """Per case, its argument list and each field's variants, each value stored once."""
    cases = {}
    for name, argv in CASES.items():
        case = {"argv": argv}
        for field in FIELDS:
            variants = []
            for core, record in sorted(by_core.items()):
                value = record[name].get(field, {})  # a case that writes no file: {}
                same = next((v for v in variants if v["value"] == value), None)
                if same is None:
                    variants.append({"cores": [core], "value": value})
                else:
                    same["cores"].append(core)
            case[field] = variants
        cases[name] = case
    return cases


def main() -> None:
    if sys.argv[1:2] == ["--cases"]:
        print(json.dumps({"core": blas_core(),
                          "cases": record_cases(sys.argv[2:] or list(CASES))}))
        return
    by_core = {}
    for name in CORE_NAMES:
        probe = under_core(name, "dump_normalized_sec5")  # the cheapest case
        if probe["core"] not in by_core:
            by_core[probe["core"]] = under_core(name)["cases"]
    path = HERE / "outputs.json"
    before = json.loads(path.read_text()) if path.exists() else {"cases": {}}
    for name in CASES:
        for core, record in sorted(by_core.items()):
            old = before["cases"].get(name)
            if old is None or core not in before.get("cores", ()):
                print(f"{name} under {core}: new, {len(record[name]['stdout'])} lines")
                continue
            new = {field: record[name].get(field, {}) for field in FIELDS}
            was = {field: variant(old, field, core) for field in FIELDS}
            moved = [f"{moved_lines(was['stdout'], new['stdout'])} lines moved"]
            moved += [] if new["exit"] == was["exit"] else [f"exit {was['exit']} -> {new['exit']}"]
            moved += [f"{file} moved" for file in sorted(new["files"].keys() | was["files"].keys())
                      if new["files"].get(file) != was["files"].get(file)]
            if new != was:
                print(f"{name} under {core}: " + ", ".join(moved))
    for name in before["cases"].keys() - CASES.keys():
        print(f"{name}: dropped")
    path.write_text(json.dumps({"cores": sorted(by_core), "configs": CONFIGS,
                                "cases": merged(by_core)}, indent=1) + "\n")


if __name__ == "__main__":
    main()
