"""The benchmark's workloads and the correctness gate of every operation.

Each workload maps the benchmark seed to a scenario seed, prepares its
scenario file, and drives nesim through its command-line entry point
(``nesim.cli.main``) in this process, the way a user runs it. The only
thing timed is the time spent inside those commands; reading back and
checking their outputs happens outside the timed region.

An operation is one closed-loop run or one ``nesim check`` command. Its
gate combines the paper's criteria with agreement against outputs recorded
at the seed commit (``reference.json``, written by ``record_reference.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import time
from importlib import resources
from pathlib import Path

import numpy as np

from nesim import cli
from nesim.config import load_scenario
from nesim.simulation import assemble

# Scenario seeds 1..REF_SEEDS have recorded reference outputs; the benchmark
# seed is folded onto them so that any seed can be checked.
REF_SEEDS = 8
# Largest deviation from the reference, relative to 1 + |reference|. An
# order below the 1e-6 step-halving tolerance of `nesim check`: rounding
# differences pass, a change to what is computed does not.
REF_TOL = 1e-7
TRACKING_TOL = 1e-2        # criterion 3: final |e| of a tracking run
ABLATION_FLOOR = 1e-1      # criterion 4: error left when the compensators are cut
EXO_PERIOD = 2.0 * math.pi  # the bundled exosystem oscillates at 1 rad/s
TRANSIENT_T = 1.0          # time of the transient row compared besides the final one

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"


def scenario_seed(seed: int) -> int:
    return 1 + seed % REF_SEEDS


def bundled_sec5() -> Path:
    return Path(str(resources.files("nesim").joinpath("data", "sec5.scenario")))


@dataclasses.dataclass
class Op:
    """Outcome of one gated operation."""

    name: str
    ok: bool
    detail: str
    outputs: dict  # what the reference stores for this operation


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _csv_outputs(header, data) -> dict:
    """The reference rows of one trajectory: early transient and final."""
    k = int(np.argmin(np.abs(data[:, 0] - TRANSIENT_T)))
    return {"columns": header,
            "rows": {format(TRANSIENT_T, "g"): data[k].tolist(), "final": data[-1].tolist()}}


def _reference_mismatch(got: dict, ref: dict) -> str | None:
    """Describe the first disagreement with the reference, or None."""
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, dict):
            if not isinstance(have, dict):
                return f"{key}: missing"
            why = _reference_mismatch(have, want)
            if why:
                return f"{key}.{why}"
        elif isinstance(want, list) and want and isinstance(want[0], float):
            a, b = np.asarray(have, dtype=float), np.asarray(want, dtype=float)
            if a.shape != b.shape:
                return f"{key}: shape {a.shape} != {b.shape}"
            dev = float((np.abs(a - b) / (1.0 + np.abs(b))).max())
            if not dev <= REF_TOL:
                return f"{key}: deviation {dev:.2e} > {REF_TOL:g}"
        elif have != want:
            return f"{key}: {have!r} != {want!r}"
    return None


class Workload:
    """One named workload; subclasses define the scenario and the commands."""

    name = ""

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.seed = scenario_seed(seed)
        self.workdir = workdir
        # None while recording the reference; every reference check is skipped
        self.reference = reference
        self.config = self.prepare()
        self.intervals = []   # (start, end) of each nesim command, this repetition
        self.csv_hashes = {}  # output name -> sha256, across repetitions

    def prepare(self) -> Path:
        return bundled_sec5()

    def setup(self) -> None:
        """`load_scenario` plus one `assemble` for this scenario and seed."""
        scenario, _ = load_scenario(self.config)
        assemble(dataclasses.replace(scenario, seed=self.seed))

    def run(self, span=contextlib.nullcontext) -> list[Op]:
        raise NotImplementedError

    # helpers -------------------------------------------------------------

    def cli(self, argv: list[str], span) -> tuple[int, str]:
        """Run one nesim command, timing it and capturing its standard output."""
        buf = io.StringIO()
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            finally:
                self.intervals.append((t0, time.perf_counter()))
        return rc, buf.getvalue()

    def gate(self, name: str, failures: list[str], detail: str, outputs: dict) -> Op:
        """Finish an operation: reference agreement, then pass or fail."""
        if self.reference is not None:
            ref = self.reference.get(name)
            why = "no reference entry" if ref is None else _reference_mismatch(outputs, ref)
            if why:
                failures.append(f"reference {why}")
        ok = not failures
        return Op(name, ok, detail if ok else "; ".join(failures), outputs)

    def trajectory_op(self, name: str, rc: int, path: Path, ablated: bool = False,
                      extra: dict | None = None) -> Op:
        """Gate one closed-loop run from the CSV it wrote, then delete the CSV.

        A CSV whose name was seen before in this process must repeat the
        earlier bytes exactly: same scenario, seed and gains, same file.
        """
        failures = [] if rc == 0 else [f"exit code {rc}"]
        if not path.is_file():
            return self.gate(name, failures + [f"{path.name} not written"], "", {})
        digest = _sha256(path)
        if self.csv_hashes.setdefault(path.name, digest) != digest:
            failures.append(f"{path.name} differs from an earlier run of the same seed")
        header, data = _read_csv(path)
        path.unlink()
        abs_e = np.abs(data[:, [i for i, c in enumerate(header) if c.startswith("e_")]])
        if ablated:
            window = data[:, 0] >= data[-1, 0] - EXO_PERIOD
            err = float(abs_e[window].max())
            if not err > ABLATION_FLOOR:
                failures.append(f"ablated error {err:.3g} over the last period "
                                f"is not above {ABLATION_FLOOR:g}")
            detail = f"ablated |e| over the last period {err:.3g} (> {ABLATION_FLOOR:g})"
        else:
            err = float(abs_e[-1].max())
            if not err < TRACKING_TOL:
                failures.append(f"final |e| {err:.3g} not below {TRACKING_TOL:g}")
            detail = f"final |e| {err:.3g} (< {TRACKING_TOL:g})"
        outputs = _csv_outputs(header, data)
        outputs.update(extra or {})
        return self.gate(name, failures, detail, outputs)


class Sec5Simulate(Workload):
    """``nesim simulate --config sec5`` as shipped: gain escalation (two failing
    rounds and a passing one), then the final 30 s run and its CSV. The
    closed-loop RHS and the RK4 step dominate."""

    name = "sec5_simulate"

    def run(self, span=contextlib.nullcontext) -> list[Op]:
        out = self.workdir / "sec5.csv"
        rc, text = self.cli(["simulate", "--config", "sec5", "--seed", str(self.seed),
                             "--out", str(out)], span)
        escalation = next((line.split(":", 1)[1].split("(multiplier")[0].strip()
                           for line in text.splitlines()
                           if line.startswith("gain escalation:")), "missing")
        return [self.trajectory_op(f"simulate seed {self.seed}", rc, out,
                                   extra={"escalation": escalation})]


class Sec5SweepDense(Workload):
    """sec5 with the gains escalation settles on held fixed, so no escalation
    runs. Two consecutive seeds, plain and with the internal model ablated,
    plus a rerun of the first, every sample recorded (``--decimate 1``) and
    written to CSV: the recorder, the CSV writer, the ablated branch of the
    RHS and the per-seed repetition that batching would share. The horizon
    is 10 s, long enough for tracking below 1e-2 and for the ablated error
    to show a full exosystem period."""

    name = "sec5_sweep_dense"
    SEEDS = 2
    T_FINAL = 10.0

    def prepare(self) -> Path:
        raw = json.loads(bundled_sec5().read_text())
        # the gains escalation settles on for sec5: round 3, multiplier 4
        raw["controller"]["k"] = [[16.0, 16.0]] * raw["graph"]["n"]
        raw["gains"]["gamma1"] = 4.0
        raw["sim"]["t_final"] = self.T_FINAL
        path = self.workdir / "sec5_dense.scenario"
        path.write_text(json.dumps(raw))
        return path

    def run(self, span=contextlib.nullcontext) -> list[Op]:
        ops = []
        for ablate in (False, True):
            stem = "ablated" if ablate else "dense"
            argv = ["simulate", "--config", str(self.config), "--seed", str(self.seed),
                    "--decimate", "1", "--sweep", f"seeds={self.SEEDS}",
                    "--out", str(self.workdir / f"{stem}.csv")]
            rc, _ = self.cli(argv + (["--ablate-internal-model"] if ablate else []), span)
            ops += [self.trajectory_op(f"{stem} seed {s}", rc,
                                       self.workdir / f"{stem}_s{s}.csv", ablated=ablate)
                    for s in range(self.seed, self.seed + self.SEEDS)]
        # the first seed once more, into the same file name: the CSV must
        # repeat the sweep's bytes exactly
        again = self.workdir / f"dense_s{self.seed}.csv"
        rc, _ = self.cli(["simulate", "--config", str(self.config), "--seed", str(self.seed),
                          "--decimate", "1", "--out", str(again)], span)
        ops.append(self.trajectory_op(f"rerun seed {self.seed}", rc, again))
        return ops


class CustomFdSetup(Workload):
    """A 3-agent `CustomGame` (finite-difference gradients) with a generic
    relative-degree-1 plant and explicit gains, two seeds in one sweep.
    Scenario load and `assemble` (sampled game constants, the
    finite-difference equilibrium solve) dominate, and `assemble` pays them
    again for every seed."""

    name = "custom_fd_setup"
    SEEDS = 2

    def prepare(self) -> Path:
        raw = {
            "game": {"kind": "custom", "factory": "custom_factory:build_game",
                     "args": {"h1": [1.0, 2.0, 3.0], "coupling": 0.5}},
            "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
            "plant": {"kind": "custom", "factory": "custom_factory:build_plant",
                      "args": {"n_agents": 3},
                      "w_box": [[-0.1, 0.1]] * 3,
                      "v0_box": [[0.5, 1.0], [0.0, 0.0]]},
            "gains": {"gamma1": 1.0, "gamma2": "auto"},
            "controller": {"k": [[8.0]] * 3},
            "sim": {"t_final": 10.0, "dt": 1e-3, "seed": 1, "R": 0.5, "decimate": 10},
        }
        path = self.workdir / "custom_fd.scenario"
        path.write_text(json.dumps(raw))
        return path

    def run(self, span=contextlib.nullcontext) -> list[Op]:
        out = self.workdir / "custom.csv"
        rc, _ = self.cli(["simulate", "--config", str(self.config), "--seed", str(self.seed),
                          "--sweep", f"seeds={self.SEEDS}", "--out", str(out)], span)
        return [self.trajectory_op(f"simulate seed {s}", rc, self.workdir / f"custom_s{s}.csv")
                for s in range(self.seed, self.seed + self.SEEDS)]


class Sec5Check(Workload):
    """``nesim check --config sec5`` with a 10 s horizon: the invariant suite,
    the only caller of `numerics.integrate` and the reproduction checks, plus
    escalation and the dt/2 step-halving run. The shipped 30 s horizon takes
    about 40 s, too long to repeat within the benchmark's time budget."""

    name = "sec5_check"
    T_FINAL = 10.0

    def run(self, span=contextlib.nullcontext) -> list[Op]:
        rc, text = self.cli(["check", "--config", "sec5", "--seed", str(self.seed),
                             "--t-final", format(self.T_FINAL, "g")], span)
        results = {}
        for line in text.splitlines():
            parts = line.split(maxsplit=2)
            if len(parts) >= 2 and parts[1] in ("PASS", "FAIL"):
                results[parts[0]] = parts[1]
        failures = [] if rc == 0 else [f"exit code {rc}"]
        failed = [name for name, status in results.items() if status != "PASS"]
        if failed or not results:
            failures.append(f"checks not passing: {failed or 'no result lines'}")
        return [self.gate(f"check seed {self.seed}", failures,
                          f"{len(results)} checks PASS", {"checks": list(results)})]


WORKLOADS = {w.name: w for w in (Sec5Simulate, Sec5SweepDense, CustomFdSetup, Sec5Check)}


def load_reference(workload: str, seed: int) -> dict:
    table = json.loads(REFERENCE_PATH.read_text())
    return table["workloads"][workload][str(scenario_seed(seed))]
