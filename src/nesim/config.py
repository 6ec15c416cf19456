"""Scenario file loading, validation, and normalization.

Scenario files are JSON documents with sections ``game``, ``graph``,
``plant``, ``exosystem``, ``internal_model``, ``gains``, ``controller`` and
``sim``. Unknown keys are rejected everywhere, array lengths are checked
against the player count, and semantic constraints (connected graph, strong
monotonicity, admissible plant parameters) are verified at load so that the
CLI can fail fast with a named field.

Custom game or plant kinds reference a Python factory as ``"module:callable"``
because arbitrary dynamics cannot be serialized as data; the factory receives
the section's ``args`` mapping and must return a `CustomGame` / `PlantModel`.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np

from .controller import ControllerGains
from .errors import ConfigError, NesimError
from .game import CustomGame, QuadraticAggregativeGame, estimate_constants
from .generator import GeneratorGains
from .graph import CommGraph
from .internal_model import StabilizerPair
from .plant import Exosystem, PlantModel, check_origin_equilibrium, example_plant
from .simulation import EscalationSpec, Scenario

_SECTIONS = ("game", "graph", "plant", "exosystem", "internal_model",
             "gains", "controller", "sim")

_DEFAULTS = {
    "exosystem": {"S": [[0.0, 1.0], [-1.0, 0.0]]},
    "internal_model": {},
    "gains": {"gamma1": 1.0, "gamma2": "auto"},
    "controller": {"k": "auto", "escalation": {"factor": 2.0, "max_rounds": 12}},
    "sim": {"t_final": 30.0, "dt": 1e-3, "seed": 0, "R": 1.0, "decimate": 10},
}

_ALLOWED_KEYS = {
    "game": {"kind", "h1", "h2", "h3", "factory", "args"},
    "graph": {"n", "edges", "default_weight"},
    "plant": {"kind", "g", "w_box", "v0_box", "im_polys", "factory", "args"},
    "exosystem": {"S"},
    "internal_model": {"preset", "explicit"},
    "gains": {"gamma1", "gamma2", "p0"},
    "controller": {"k", "escalation"},
    "sim": {"t_final", "dt", "seed", "R", "decimate"},
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(path: str, section: dict, allowed: set):
    if not isinstance(section, dict):
        _fail(path, f"expected an object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _number(path: str, value, kind=float):
    """``kind(value)``; a value it cannot convert is an error naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        _fail(path, f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")


def _as_floats(path: str, value, length: int | None = None) -> list:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a numeric array")
    if length is not None and arr.shape[0] != length:
        _fail(path, f"expected length {length}, got {arr.shape[0]}")
    return arr.tolist()


def normalize(raw: dict) -> dict:
    """Fill defaults and validate structure; returns a canonical dict.

    Loading the normalized form yields an identical scenario (round-trip
    property used by ``--dump-normalized``).
    """
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        _fail("top level", f"unknown sections {sorted(unknown)}")
    for required in ("game", "graph", "plant"):
        if required not in raw:
            _fail("top level", f"missing required section '{required}'")

    out = {}
    for name in _SECTIONS:
        section = copy.deepcopy(raw.get(name, {}))
        defaults = copy.deepcopy(_DEFAULTS.get(name, {}))
        if name == "controller" and "escalation" in section:
            merged = dict(defaults["escalation"])
            _check_keys("controller.escalation", section["escalation"], set(merged))
            merged.update(section["escalation"])
            section["escalation"] = merged
        for key, val in defaults.items():
            section.setdefault(key, val)
        _check_keys(name, section, _ALLOWED_KEYS[name])
        out[name] = section

    game = out["game"]
    kind = game.get("kind")
    if kind == "quadratic_aggregative":
        for key in ("h1", "h2", "h3"):
            if key not in game:
                _fail(f"game.{key}", "required for the quadratic_aggregative kind")
        n = len(game["h1"])
        for key in ("h1", "h2", "h3"):
            game[key] = _as_floats(f"game.{key}", game[key], n)
    elif kind == "custom":
        if "factory" not in game:
            _fail("game.factory", "required for the custom kind")
        game.setdefault("args", {})
    else:
        _fail("game.kind", f"unknown kind {kind!r}")

    graph = out["graph"]
    if "n" not in graph or "edges" not in graph:
        _fail("graph", "requires 'n' and 'edges'")
    graph["n"] = int(graph["n"])
    graph.setdefault("default_weight", 1.0)
    edges = []
    for idx, edge in enumerate(graph["edges"]):
        if len(edge) not in (2, 3):
            _fail(f"graph.edges[{idx}]", "expected [i, j] or [i, j, weight]")
        i, j = int(edge[0]), int(edge[1])
        weight = float(edge[2]) if len(edge) == 3 else float(graph["default_weight"])
        edges.append([i, j, weight])
    graph["edges"] = edges

    plant = out["plant"]
    pkind = plant.get("kind")
    if pkind == "example_sec5":
        if "g" not in plant:
            _fail("plant.g", "required for the example_sec5 kind")
        g = np.array(plant["g"], dtype=float)
        if g.ndim != 2 or g.shape[1] != 6:
            _fail("plant.g", "expected one row of 6 parameters per agent")
        plant["g"] = g.tolist()
    elif pkind == "custom":
        if "factory" not in plant:
            _fail("plant.factory", "required for the custom kind")
        plant.setdefault("args", {})
    else:
        _fail("plant.kind", f"unknown kind {pkind!r}")
    for key in ("w_box", "v0_box"):
        if key not in plant:
            _fail(f"plant.{key}", "required")
        box = np.array(plant[key], dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            _fail(f"plant.{key}", "expected a list of [lo, hi] pairs")
        if (box[:, 0] > box[:, 1]).any():
            _fail(f"plant.{key}", "lower bound exceeds upper bound")
        plant[key] = box.tolist()
    if "im_polys" in plant:
        plant["im_polys"] = [_as_floats(f"plant.im_polys[{k}]", c)
                             for k, c in enumerate(plant["im_polys"])]

    exo = out["exosystem"]
    S = np.array(exo["S"], dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        _fail("exosystem.S", "expected a square matrix")
    exo["S"] = S.tolist()

    im = out["internal_model"]
    if "preset" in im and im["preset"] not in ("sec5",):
        _fail("internal_model.preset", f"unknown preset {im['preset']!r}")
    if "preset" in im and "explicit" in im:
        _fail("internal_model", "'preset' and 'explicit' are mutually exclusive")

    gains = out["gains"]
    gains["gamma1"] = _number("gains.gamma1", gains["gamma1"])
    if gains["gamma2"] != "auto":
        gains["gamma2"] = _number("gains.gamma2", gains["gamma2"])

    ctrl = out["controller"]
    if ctrl["k"] != "auto":
        karr = np.array(_as_floats("controller.k", ctrl["k"]))
        if karr.ndim != 2:
            _fail("controller.k", "expected one gain row per agent (or 'auto')")
        ctrl["k"] = karr.tolist()
    escalation = ctrl["escalation"]
    escalation["factor"] = _number("controller.escalation.factor", escalation["factor"])
    escalation["max_rounds"] = _number("controller.escalation.max_rounds",
                                       escalation["max_rounds"], int)

    sim = out["sim"]
    for key, kind in (("t_final", float), ("dt", float), ("seed", int), ("R", float),
                      ("decimate", int)):
        sim[key] = _number(f"sim.{key}", sim[key], kind)
    return out


def _load_factory(spec: str):
    if ":" not in spec:
        raise ConfigError(f"factory {spec!r} must look like 'module:callable'")
    mod_name, attr = spec.split(":", 1)
    try:
        module = importlib.import_module(mod_name)
        return getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigError(f"cannot import factory {spec!r}: {exc}") from exc


def build_scenario(norm: dict) -> Scenario:
    """Construct the in-memory scenario from a normalized dict.

    The game constants, the equilibrium, ``gamma2`` and the internal-model
    bank are computed here, once, and carried on the scenario.
    """
    game_cfg = norm["game"]
    if game_cfg["kind"] == "quadratic_aggregative":
        game = QuadraticAggregativeGame(h1=np.array(game_cfg["h1"]),
                                        h2=np.array(game_cfg["h2"]),
                                        h3=np.array(game_cfg["h3"]))
    else:
        factory = _load_factory(game_cfg["factory"])
        try:
            game = factory(**game_cfg["args"])
        except ValueError as exc:
            raise ConfigError(f"game: {exc}") from exc
        if not isinstance(game, CustomGame):
            raise ConfigError("game.factory must return a CustomGame")
    n = game.n

    try:
        constants = estimate_constants(game)
    except NesimError as exc:
        raise ConfigError(f"game: {exc}") from exc

    graph_cfg = norm["graph"]
    if graph_cfg["n"] != n:
        raise ConfigError(f"graph.n: {graph_cfg['n']} players in graph, {n} in game")
    try:
        graph = CommGraph.from_edges(graph_cfg["n"], graph_cfg["edges"])
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from exc

    plant_cfg = norm["plant"]
    try:
        if plant_cfg["kind"] == "example_sec5":
            model = example_plant(np.array(plant_cfg["g"]), n_agents=n)
        else:
            model = _load_factory(plant_cfg["factory"])(**plant_cfg["args"])
            if not isinstance(model, PlantModel):
                raise ConfigError("plant.factory must return a PlantModel")
    except NesimError as exc:
        raise ConfigError(f"plant: {exc}") from exc
    if "im_polys" in plant_cfg:
        try:
            model = dataclasses.replace(model, im_polys=[np.array(c) for c in plant_cfg["im_polys"]])
        except ValueError as exc:
            raise ConfigError(f"plant.im_polys: {exc}") from exc

    w_box = np.array(plant_cfg["w_box"], dtype=float)
    if w_box.shape[0] != model.n_w:
        raise ConfigError(f"plant.w_box: expected {model.n_w} coordinate ranges, "
                          f"got {w_box.shape[0]}")
    exo_cfg = norm["exosystem"]
    v0_box = np.array(plant_cfg["v0_box"], dtype=float)
    S = np.array(exo_cfg["S"], dtype=float)
    if v0_box.shape[0] != S.shape[0]:
        raise ConfigError("plant.v0_box: length must match the exosystem dimension")
    exo = Exosystem(S=S, v0_box=v0_box)

    if plant_cfg["kind"] == "example_sec5":
        g1_hi = np.array(plant_cfg["g"])[:, 0] + w_box[0::6, 1]
        if (g1_hi >= 0).any():
            raise ConfigError("plant: g1 + w must stay negative over the whole "
                              "uncertainty box (stable zero dynamics)")
    try:
        corners = [w_box[:, 0], w_box[:, 1], w_box.mean(axis=1)]
        check_origin_equilibrium(model, corners, n_v=exo.n_v)
    except NesimError as exc:
        raise ConfigError(f"plant: {exc}") from exc

    im_cfg = norm["internal_model"]
    stabilizers = None
    if "explicit" in im_cfg:
        try:
            stabilizers = tuple(
                tuple(StabilizerPair(M=np.array(entry["M"], dtype=float),
                                     N=np.array(entry["N"], dtype=float))
                      for entry in agent_levels)
                for agent_levels in im_cfg["explicit"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"internal_model.explicit: {exc}") from exc
        if len(stabilizers) != n or any(len(s) != model.r for s in stabilizers):
            raise ConfigError("internal_model.explicit: need one entry per agent and level")

    gains_cfg = norm["gains"]
    auto2 = gains_cfg["gamma2"] == "auto"
    p0 = None
    if "p0" in gains_cfg:
        p0 = np.array(gains_cfg["p0"], dtype=float)
        if p0.shape != (n, n):
            raise ConfigError(f"gains.p0: expected shape ({n}, {n})")

    ctrl = norm["controller"]
    k = None if ctrl["k"] == "auto" else np.array(ctrl["k"], dtype=float)
    if k is not None and k.shape != (n, model.r):
        raise ConfigError(f"controller.k: expected shape ({n}, {model.r})")

    sim = norm["sim"]
    try:  # the classes check their values and name them as in the scenario file
        gen_gains = GeneratorGains(gamma1=gains_cfg["gamma1"],
                                   gamma2=1.0 if auto2 else gains_cfg["gamma2"])
        if k is not None:
            ControllerGains(k)  # each run builds its own gains from k
        scenario = Scenario(
            game=game, graph=graph, plant=model, exo=exo, w_box=w_box,
            gains=gen_gains, gamma2_auto=auto2, controller_k=k,
            escalation=EscalationSpec(**ctrl["escalation"]),
            im_preset=im_cfg.get("preset"), im_stabilizers=stabilizers,
            t_final=sim["t_final"], dt=sim["dt"], seed=sim["seed"],
            R=sim["R"], decimate=sim["decimate"], p0=p0,
        )
        scenario.synthesized(constants)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return scenario


def load_scenario(source) -> tuple[Scenario, dict]:
    """Load a scenario from a path, JSON string, or dict.

    Returns the scenario together with its normalized dict form.
    """
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    norm = normalize(raw)
    return build_scenario(norm), norm


def dump_normalized(norm: dict) -> str:
    return json.dumps(norm, indent=2, sort_keys=True)
