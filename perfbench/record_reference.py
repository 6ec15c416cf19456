"""Record the reference outputs that the workloads' gates compare against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every operation of the named workloads (all of them by default) for
each scenario seed 1..REF_SEEDS and rewrites their entries in
``reference.json``. Run it only at a commit whose outputs are trusted: the
reference is what later commits must reproduce. Every other gate must pass,
or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT_DIR, use_checkout_sources


def main(argv: list[str]) -> int:
    if use_checkout_sources() is None:
        return 2
    from workloads import REF_SEEDS, REFERENCE_PATH, WORKLOADS

    names = argv or list(WORKLOADS)
    table = (json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file()
             else {"workloads": {}})
    workdir = OUT_DIR / "work-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            entries = {}
            for scenario_seed in range(1, REF_SEEDS + 1):
                workload = WORKLOADS[name](scenario_seed - 1, workdir, reference=None)
                ops = workload.run()
                for op in ops:
                    print(f"{name} {'PASS' if op.ok else 'FAIL'}  {op.name}: {op.detail}",
                          flush=True)
                if not all(op.ok for op in ops):
                    return 1
                entries[str(workload.seed)] = {op.name: op.outputs for op in ops}
            table["workloads"][name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
