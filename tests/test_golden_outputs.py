"""``nesim`` prints exactly the recorded stdout and writes exactly the recorded files.

``golden/outputs.json`` holds the stdout and exit code of each case, and the
sha256 of each file a case writes, recorded by ``golden/record.py``. A change
that moves a byte of a line fails here and names the lines that differ; one
that moves a byte of a written file names the file.
"""

from __future__ import annotations

import difflib
import hashlib
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
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir() if path.name not in RECORD["configs"]}
    assert written == case.get("files", {})
