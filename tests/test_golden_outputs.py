"""``nesim check`` prints exactly the recorded stdout.

``golden/outputs.json`` holds the stdout and exit code of each case, recorded
by ``golden/record.py``. A change that moves a byte of a check line fails
here and names the lines that differ.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import pytest

from nesim.cli import main

RECORD = json.loads((Path(__file__).resolve().parent / "golden" / "outputs.json").read_text())


@pytest.mark.parametrize("name", sorted(RECORD["cases"]))
def test_check_stdout_is_the_recorded_one(name, tmp_path, monkeypatch, capsys):
    case = RECORD["cases"][name]
    for file, config in RECORD["configs"].items():
        (tmp_path / file).write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"]) == case["exit"]
    got, want = capsys.readouterr().out, "".join(case["stdout"])
    moved = "\n".join(difflib.unified_diff(want.splitlines(), got.splitlines(),
                                           "recorded", "now", lineterm=""))
    assert got == want, f"nesim {' '.join(case['argv'])} moved:\n{moved}"
