"""``nesim`` prints exactly the recorded stdout and writes exactly the recorded files.

``golden/outputs.json`` holds the stdout and exit code of each case, and the
sha256 of each file a case writes, recorded by ``golden/record.py`` under
every OpenBLAS core the recording CPU runs: the bits are those of a core's
kernels. A case is checked against the record of the core it runs under
(`blas_core`); a core with no record fails, naming the recorded ones. A
change that moves a byte of a line fails here and names the lines that
differ; one that moves a byte of a written file names the file.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from pathlib import Path

import pytest

from golden.record import blas_core, under_core, variant
from nesim.cli import main

RECORD = json.loads((Path(__file__).resolve().parent / "golden" / "outputs.json").read_text())


def recorded(name: str, core: str) -> dict:
    """Case ``name``'s exit, stdout and files as recorded under ``core``."""
    case = RECORD["cases"][name]
    if core not in RECORD["cores"]:
        pytest.fail(f"no record under the BLAS core {core}; "
                    f"recorded: {', '.join(RECORD['cores'])}")
    return {field: variant(case, field, core) for field in ("exit", "stdout", "files")}


def moved(name: str, want: str, got: str) -> str:
    """The unified diff of case ``name``'s recorded stdout ``want`` against ``got``."""
    diff = "\n".join(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                          "recorded", "now", lineterm=""))
    return f"nesim {' '.join(RECORD['cases'][name]['argv'])} moved:\n{diff}"


@pytest.mark.parametrize("name", sorted(RECORD["cases"]))
def test_check_stdout_is_the_recorded_one(name, tmp_path, monkeypatch, capsys):
    core = blas_core()
    want = recorded(name, core)
    for file, config in RECORD["configs"].items():
        (tmp_path / file).write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(RECORD["cases"][name]["argv"]) == want["exit"], f"under {core}"
    got, lines = capsys.readouterr().out, "".join(want["stdout"])
    assert got == lines, f"under {core}: " + moved(name, lines, got)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir() if path.name not in RECORD["configs"]}
    assert written == want["files"], f"under {core}"


def test_two_cases_give_the_haswell_record_under_haswell():
    # a subprocess with OPENBLAS_CORETYPE=Haswell: synthesize's T lines and the dense
    # sweep's CSVs are bits that differ between cores, so a change that moves them must
    # re-record every core, not only the native one
    names = ["synthesize_sec5", "simulate_sec5_dense_seeds1_2"]
    done = under_core("Haswell", *names)
    assert done["core"] == "Haswell"
    for name in names:
        want, got = recorded(name, "Haswell"), done["cases"][name]
        assert got["stdout"] == want["stdout"], moved(name, "".join(want["stdout"]),
                                                     "".join(got["stdout"]))
        assert (got["exit"], got.get("files", {})) == (want["exit"], want["files"]), name
