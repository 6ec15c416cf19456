from __future__ import annotations

import dataclasses
import functools
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from factories import build_game, build_plant, nan_rejecting, wrap_custom
from golden.record import blas_core
from nesim.config import load_scenario
from nesim.generator import GeneratorGains
from nesim.graph import CommGraph
from nesim.plant import Exosystem, steady_state_chain
from nesim.simulation import Scenario, assemble

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # no example database and no deadline: every property test draws afresh, and its
    # examples may take the time their runs take
    settings.register_profile("nesim", database=None, deadline=None)
    settings.load_profile("nesim")


def pytest_report_header(config):
    # the kernels a run used: the golden cases hold one BLAS core's bits (the CSV kernel
    # needs only IEEE float64 arithmetic, whatever the long double)
    return (f"numpy {np.__version__}, BLAS core {blas_core()}, "
            f"long double mantissa {np.finfo(np.longdouble).nmant} bits")


@pytest.fixture(scope="session")
def sec5_path() -> Path:
    return Path(str(resources.files("nesim").joinpath("data", "sec5.scenario")))


@pytest.fixture(scope="session")
def sec5_norm(sec5_path):
    _, norm = load_scenario(sec5_path)
    return norm


@pytest.fixture(scope="session")
def sec5(sec5_path):
    scenario, _ = load_scenario(sec5_path)
    return scenario


@pytest.fixture(scope="session")
def stable(sec5):
    # the bundled scenario with gains known to stabilize it without escalation
    return dataclasses.replace(sec5, controller_k=np.full((sec5.n, sec5.plant.r), 16.0))


@pytest.fixture(scope="session")
def sec5_loop(stable):
    return assemble(stable)


@pytest.fixture(scope="session")
def sec5_steady(sec5_loop):
    """The steady-state chain of `sec5_loop`'s one draw."""
    scenario = sec5_loop.scenario
    return steady_state_chain(scenario.plant, scenario.synthesized().p_star, scenario.exo,
                              sec5_loop.draws[0])


@pytest.fixture(scope="session")
def custom_scenario():
    """The test-factory finite-difference game with the generic custom plant.

    Synthesized once here: its finite-difference constants and equilibrium
    are the slow part, and every test shares them.
    """
    scenario = Scenario(
        game=build_game([1.0, 2.0, 3.0], 0.5), graph=CommGraph.ring(3),
        plant=build_plant(3), exo=Exosystem(S=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                            v0_box=np.array([[0.5, 1.0], [0.0, 0.0]])),
        w_box=np.tile([-0.1, 0.1], (3, 1)), gains=GeneratorGains(1.0, None),
        controller_k=np.full((3, 1), 8.0), seed=2, R=0.5)
    scenario.synthesized()
    return scenario


@pytest.fixture(scope="session")
def nan_rejecting_sec5(sec5):
    """``(scenario, calls)``: sec5 as a custom game whose costs raise on a NaN own strategy.

    Its gains are 4 on every level, at which seeds 1, 2 and 4 diverge within
    the 1.5 s horizon and seed 3 runs to its end; each cost call's own
    strategy is appended to ``calls``. Synthesized once here.
    """
    calls = []
    scenario = dataclasses.replace(
        sec5, game=nan_rejecting(wrap_custom(sec5.game), calls),
        controller_k=np.full((sec5.n, sec5.plant.r), 4.0), t_final=1.5, decimate=10, seed=1)
    scenario.synthesized()
    return scenario, calls


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(fn)`` records every call of the nesim function ``fn``.

    The counting wrapper replaces ``fn`` in every nesim module that holds
    it, so calls through any import of it are seen. Returns the list of
    ``(args, kwargs)`` of the calls, which grows as they happen.
    """
    def install(fn):
        calls = []

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "nesim" or name.startswith("nesim."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls
    return install
