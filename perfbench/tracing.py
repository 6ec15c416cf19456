"""Per-layer tracing of nesim from outside the program.

`Tracer.installed()` replaces nesim's public functions with timing wrappers
wherever a nesim module holds a reference to them, so every caller, such as
``cli`` calling ``run`` or ``controller`` importing ``closed_loop_passes``
lazily, reaches the wrapper. It restores every original on exit.

Calls that happen a few times per run are recorded as spans (name, start,
end, parent). The three calls made per step or per sample (``rk4_step``,
the assembled loop's ``rhs`` and ``AssembledLoop.control``) are counted and
timed in aggregate on the span that is open when they run, which keeps a
trace of several hundred thousand calls small. A span's self time is its
duration minus its child spans and the aggregated calls it contains, so the
self times of every layer add up to the top-level spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import statistics
import sys
from time import perf_counter

# (label, module, attribute) of each function recorded as spans
SPAN_TARGETS = (
    ("config.load_scenario", "nesim.config", "load_scenario"),
    ("simulation.assemble", "nesim.simulation", "assemble"),
    ("game.estimate_constants", "nesim.game", "estimate_constants"),
    ("game.solve_ne", "nesim.game", "solve_ne"),
    ("internal_model.synthesize_bank", "nesim.internal_model", "synthesize_bank"),
    ("plant.steady_state_chain", "nesim.plant", "steady_state_chain"),
    ("simulation.run", "nesim.simulation", "run"),
    ("simulation.closed_loop_passes", "nesim.simulation", "closed_loop_passes"),
    ("controller.escalate_gains", "nesim.controller", "escalate_gains"),
    ("simulation.write_csv", "nesim.simulation", "write_csv"),
    ("numerics.integrate", "nesim.numerics", "integrate"),
    ("internal_model.verify_reproduction", "nesim.internal_model", "verify_reproduction"),
    ("plant.check_origin_equilibrium", "nesim.plant", "check_origin_equilibrium"),
    ("plant.check_steady_zero_pde", "nesim.plant", "check_steady_zero_pde"),
    ("plant.check_steady_chain_consistency", "nesim.plant", "check_steady_chain_consistency"),
)
RK4, RHS, CONTROL = "numerics.rk4_step", "simulation.rhs", "simulation.control"
FULL_RUN_STEPS = 30_000  # the shipped sec5 horizon: 30 s at dt = 1e-3


@dataclasses.dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    note: object = None
    leaves: dict = dataclasses.field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # recording -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, perf_counter(), parent)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if note is not None:
                    s.note = note(args, kwargs, result)
                return result
        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack = self._stack  # never empty here: every nesim call runs inside a command span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell = stack[-1].leaves.setdefault(name, [0, 0.0])
                cell[0] += 1
                cell[1] += dt
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap nesim's public functions for the duration of the block."""
        import nesim.simulation as simulation

        patches = []  # (owner, attribute, original)

        def patch_everywhere(original, wrapper):
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "nesim" and not mod_name.startswith("nesim."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        def csv_size(args, kwargs, result):
            return os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])

        notes = {"simulation.closed_loop_passes": lambda args, kwargs, result: bool(result),
                 "simulation.write_csv": csv_size}
        originals = {label: getattr(sys.modules[mod], attr)
                     for label, mod, attr in SPAN_TARGETS}
        assemble = originals["simulation.assemble"]

        def assemble_traced_rhs(*args, **kwargs):
            loop = assemble(*args, **kwargs)
            return dataclasses.replace(loop, rhs=self._leaf_wrapper(RHS, loop.rhs))

        originals["simulation.assemble"] = functools.wraps(assemble)(assemble_traced_rhs)
        try:
            for label, mod, attr in SPAN_TARGETS:
                wrapper = self._span_wrapper(label, originals[label], notes.get(label))
                patch_everywhere(getattr(sys.modules[mod], attr), wrapper)
            rk4 = sys.modules["nesim.numerics"].rk4_step
            patch_everywhere(rk4, self._leaf_wrapper(RK4, rk4))
            control = simulation.AssembledLoop.control
            patches.append((simulation.AssembledLoop, "control", control))
            simulation.AssembledLoop.control = self._leaf_wrapper(CONTROL, control)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                    if getattr(o, a) is not orig]
            if left:
                raise RuntimeError(f"tracing left wrappers in place: {left}")

    # analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per layer name; they sum to the top-level spans."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds
        out = {}

        def add(name, seconds):
            out[name] = out.get(name, 0.0) + seconds

        for s in self.spans:
            leaf = {name: cell[1] for name, cell in s.leaves.items()}
            add(s.name, s.seconds - child.get(s.id, 0.0)
                - leaf.get(RK4, 0.0) - leaf.get(CONTROL, 0.0))
            if RK4 in leaf:
                add(RK4, leaf[RK4] - leaf.get(RHS, 0.0))
            for name in (RHS, CONTROL):
                if name in leaf:
                    add(name, leaf[name])
        return out

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced repetition."""
        by_id = {s.id: s for s in self.spans}

        def spans(name):
            return [s for s in self.spans if s.name == name]

        def total(*names):
            return sum(s.seconds for name in names for s in spans(name))

        def leaf(s, name):
            return s.leaves.get(name, [0, 0.0])

        def under(s, ancestor):
            while s.parent is not None:
                s = by_id[s.parent]
                if s.name == ancestor:
                    return True
            return False

        runs = spans("simulation.run")
        steps = sum(leaf(s, RK4)[0] for s in runs)
        step_s = sum(leaf(s, RK4)[1] for s in runs)
        rhs_calls = sum(leaf(s, RHS)[0] for s in self.spans)
        rhs_s = sum(leaf(s, RHS)[1] for s in self.spans)
        run_rhs_s = sum(leaf(s, RHS)[1] for s in runs)
        control_calls = sum(leaf(s, CONTROL)[0] for s in runs)
        control_s = sum(leaf(s, CONTROL)[1] for s in runs)
        rounds = spans("simulation.closed_loop_passes")
        run_s = total("simulation.run")
        full_runs = [s.seconds for s in runs if leaf(s, RK4)[0] == FULL_RUN_STEPS]
        assembles = [s.seconds for s in spans("simulation.assemble")]
        integrates = spans("numerics.integrate")
        top = [s for s in self.spans if s.parent is None]
        self_times = self.self_times()

        def per(a, b):
            return a / b if b else 0.0

        return {
            "simulation.rhs_calls": rhs_calls,
            "simulation.rhs_us": 1e6 * per(rhs_s, rhs_calls),
            "numerics.rk4_step_calls": steps,
            "numerics.rk4_self_us": 1e6 * per(step_s - run_rhs_s, steps),
            "numerics.rk4_step_us": 1e6 * per(step_s, steps),
            "numerics.rk4_steps_per_s": per(steps, step_s),
            "controller.escalate_gains_s": total("controller.escalate_gains"),
            "controller.escalation_rounds": len(rounds),
            "controller.escalation_pass_ratio": per(sum(1 for s in rounds if s.note), len(rounds)),
            "controller.escalation_wasted_steps": sum(
                leaf(s, RK4)[0] for s in runs if under(s, "controller.escalate_gains")),
            "simulation.assemble_s": sum(assembles),
            "simulation.assemble_calls": len(assembles),
            "simulation.assemble_ms": 1e3 * statistics.median(assembles) if assembles else 0.0,
            "game.estimate_constants_s": total("game.estimate_constants"),
            "game.estimate_constants_calls": len(spans("game.estimate_constants")),
            "game.solve_ne_s": total("game.solve_ne"),
            "game.solve_ne_calls": len(spans("game.solve_ne")),
            "internal_model.synthesize_bank_s": total("internal_model.synthesize_bank"),
            "plant.steady_state_chain_s": total("plant.steady_state_chain"),
            "config.load_scenario_s": total("config.load_scenario"),
            "simulation.run_s": run_s,
            "simulation.run_calls": len(runs),
            "simulation.run_30s_s": statistics.median(full_runs) if full_runs else 0.0,
            "simulation.control_s": control_s,
            "simulation.control_calls": control_calls,
            "simulation.recorder_share": per(control_s, run_s),
            "simulation.run_self_s": self_times.get("simulation.run", 0.0),
            "simulation.write_csv_s": total("simulation.write_csv"),
            "simulation.csv_bytes": sum(s.note for s in spans("simulation.write_csv")),
            "numerics.integrate_s": sum(s.seconds for s in integrates),
            "numerics.integrate_steps": sum(leaf(s, RK4)[0] for s in integrates),
            "internal_model.verify_reproduction_s": total("internal_model.verify_reproduction"),
            "plant.checks_s": total("plant.check_origin_equilibrium",
                                    "plant.check_steady_zero_pde",
                                    "plant.check_steady_chain_consistency"),
            "cli.self_s": sum(self_times.get(name, 0.0) for name in {s.name for s in top}),
        }

    def dump(self) -> dict:
        """Every span and the self-time table, for writing to a file."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [{"id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "note": s.note,
                       "leaves": {k: {"calls": c, "seconds": sec}
                                  for k, (c, sec) in s.leaves.items()}}
                      for s in self.spans],
            "top_level_seconds": sum(s.seconds for s in self.spans if s.parent is None),
            "self_seconds": dict(sorted(self.self_times().items(), key=lambda kv: -kv[1])),
        }
