"""Benchmark for nesim: one workload per invocation, checked and measured.

Usage, from the root of a checkout that holds nesim's sources under ``src/``:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): sec5_simulate, sec5_sweep_dense,
custom_fd_setup, sec5_check. The seed picks the scenario seed; the same seed
gives the same inputs. Everything runs in this one process, pinned to one
CPU with one BLAS thread.

All times are normalized to a reference core speed by the probe in
``speed.py``, because the speed of a core on the shared host swings by up to
a factor of two within seconds. The raw times are printed too.

``--trace 0`` prints the end-to-end metrics:

* ``norm_wall_s``: median normalized time inside nesim per repetition of the
  workload. Repetitions continue until ``--seconds`` have passed, and there
  is at least one.
* ``setup_s``: median normalized time of ``load_scenario`` plus one
  ``assemble`` for the workload's scenario and seed. It is measured before
  the workload, at least three times and until one second has been spent.
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs one plain and one traced repetition and prints the
per-layer metrics of the traced one (``tracing.py``), its times normalized,
together with ``trace_overhead_frac``, the normalized traced time over the
plain one minus 1. The spans go to
``.bench_build/perfbench/trace-<workload>-seed<seed>.json``.

Every operation passes a correctness gate. The output is one line per
operation, an environment record and a baseline summary as JSON lines, and
as the last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit status is 0 when every operation
passed, 1 when one failed and 2 when the nesim sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 25
END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer units follow the metric name's suffix
SUFFIX_UNITS = (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                ("_calls", "count"), ("_steps", "count"), ("_rounds", "count"),
                ("_bytes", "bytes"), ("_frac", "fraction"), ("_ratio", "fraction"),
                ("_share", "fraction"))


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return next(unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix))


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over nesim's sources, which names the program in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((src / "nesim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".scenario"):
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(src: Path) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "git_sha": git_sha(ROOT), "src_sha256": source_digest(src)}


def use_checkout_sources() -> Path | None:
    """Import nesim from this checkout's ``src/``, on one CPU with one BLAS thread.

    The pin keeps the speed probe on the workload's core; it is set before
    any thread starts, so every later thread inherits it.
    """
    src = ROOT / "src"
    if not (src / "nesim" / "__init__.py").is_file():
        print(f"perfbench: nesim sources not found under {src}", file=sys.stderr)
        return None
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    return src


def repetition(workload, span=contextlib.nullcontext):
    """One pass over the workload's operations: (ops, intervals inside nesim)."""
    from workloads import Op

    workload.intervals = []
    try:
        ops = workload.run(span)
    except Exception as exc:  # a crash inside nesim fails the repetition, not the benchmark
        traceback.print_exc()
        ops = [Op(f"{workload.name} repetition", False, f"{type(exc).__name__}: {exc}", {})]
    return ops, workload.intervals


def raw(intervals) -> float:
    return sum(t1 - t0 for t0, t1 in intervals)


def measure(workload, seconds: float) -> tuple[dict, list]:
    from speed import SpeedProbe

    setups, reps, ops = [], [], []
    with SpeedProbe() as probe:
        while len(setups) < SETUP_MIN_REPEATS or (raw(setups) < SETUP_MIN_SECONDS
                                                  and len(setups) < SETUP_MAX_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setups.append((t0, perf_counter()))
        start = perf_counter()
        while not reps or perf_counter() - start < seconds:
            rep_ops, intervals = repetition(workload)
            ops += rep_ops
            reps.append(intervals)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [sum(probe.normalized(intervals)) for intervals in reps]
    setup = probe.normalized(setups)
    print(f"# {len(reps)} repetition(s): raw {', '.join(f'{raw(iv):.3f}' for iv in reps)} s, "
          f"normalized {', '.join(f'{w:.3f}' for w in walls)} s; {len(setup)} setups: "
          f"raw median {statistics.median(t1 - t0 for t0, t1 in setups):.4f} s, "
          f"normalized median {statistics.median(setup):.4f} s")
    return {"norm_wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb}, ops


def trace(workload, env: dict, seed: int) -> tuple[dict, list]:
    from speed import SpeedProbe
    from tracing import Tracer

    tracer = Tracer()
    with SpeedProbe() as probe:
        ops, plain = repetition(workload)
        with tracer.installed():
            traced_ops, traced = repetition(workload, tracer.span)
    ops += traced_ops
    plain_s, traced_s = sum(probe.normalized(plain)), sum(probe.normalized(traced))
    factor = traced_s / raw(traced)  # one speed factor for every layer of the traced pass
    metrics = {}
    for name, value in tracer.layer_metrics().items():
        unit = unit_of(name)
        metrics[name] = (value * factor if unit in ("s", "ms", "us")
                         else value / factor if unit == "1/s" else value)
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    metrics["gate.failed_frac"] = sum(not op.ok for op in ops) / len(ops)
    print(f"# plain pass raw {raw(plain):.3f} s, normalized {plain_s:.3f} s; traced pass "
          f"raw {raw(traced):.3f} s, normalized {traced_s:.3f} s")
    baseline = {"rhs_us": metrics["simulation.rhs_us"],
                "rk4_step_us": metrics["numerics.rk4_step_us"],
                "assemble_ms": metrics["simulation.assemble_ms"],
                "run_30s_s": metrics["simulation.run_30s_s"],
                "recorder_us_per_sample": 1e6 * metrics["simulation.control_s"]
                / max(metrics["simulation.control_calls"], 1),
                "recorder_share": metrics["simulation.recorder_share"]}
    print(json.dumps({"baseline": baseline}))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "environment": env,
                                "speed_factor": factor, "plain_s": plain_s,
                                "traced_s": traced_s, "metrics": metrics,
                                "baseline": baseline, **tracer.dump()}, indent=1))
    print(f"# trace written to {path}")
    return metrics, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = use_checkout_sources()
    if src is None:
        return 2
    from workloads import WORKLOADS, load_reference

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment(src)
    print(json.dumps({"environment": env}))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir,
                                            load_reference(args.workload, args.seed))
        print(f"# workload {workload.name}, seed {args.seed} -> scenario seed {workload.seed}")
        if args.trace:
            metrics, ops = trace(workload, env, args.seed)
        else:
            metrics, ops = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops:
        print(f"{'PASS' if op.ok else 'FAIL'}  {op.name}: {op.detail}")
    failed = sum(not op.ok for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
