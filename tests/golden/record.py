"""Re-record ``outputs.json``: the exact ``nesim check`` stdout of a few cases.

``outputs.json`` keeps each case's argument list, its exit code and its
stdout as a list of lines, each with its line end, so the lines joined are
the exact bytes and a moved line shows as one line in a diff.

Run from the repository root, with the package importable::

    PYTHONPATH=src python tests/golden/record.py

Each case is a ``nesim`` argument list. The custom case reads the scenario
file ``custom.json`` (the test factories of ``tests/factories.py``), which
this script and ``tests/test_golden_outputs.py`` write into a temporary
directory and run from there. Re-record only for a change that is meant to
move the output, and say which lines moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
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

CASES = {
    "check_sec5_seed1": ["check", "--config", "sec5", "--t-final", "10", "--seed", "1"],
    "check_sec5_seed2": ["check", "--config", "sec5", "--t-final", "10", "--seed", "2"],
    "check_custom_factories": ["check", "--config", "custom.json"],
}


def main() -> None:
    sys.path.insert(0, str(HERE.parent))  # `factories`, named by the custom config
    from nesim.cli import main as nesim_main

    cases = {}
    with tempfile.TemporaryDirectory() as scratch:
        Path(scratch, "custom.json").write_text(json.dumps(CUSTOM_CONFIG))
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for name, argv in CASES.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = nesim_main(argv)
                cases[name] = {"argv": argv, "exit": code,
                                "stdout": out.getvalue().splitlines(keepends=True)}
        finally:
            os.chdir(cwd)
    record = {"custom_config": CUSTOM_CONFIG, "cases": cases}
    (HERE / "outputs.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
