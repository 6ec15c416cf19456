"""Scenario file loading: the file's form is checked here, its meaning in the library.

Scenario files are JSON documents with sections ``game``, ``graph``,
``plant``, ``exosystem``, ``internal_model``, ``gains``, ``controller`` and
``sim``. `normalize` checks their form (known keys, each number and array
read by `_array`); the classes `build_scenario` builds check what the values
mean and how the parts fit. Either names the field as the file does.

Custom game or plant kinds reference a Python factory as ``"module:callable"``
because arbitrary dynamics cannot be serialized as data; the factory receives
the section's ``args`` mapping and must return a `CustomGame` / `PlantModel`.
A library error of any build (a `TypeError`, `ValueError` or nesim error) is
named by its section in one place, `_build`.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidParameter, NesimError
from .game import CustomGame, QuadraticAggregativeGame
from .generator import GeneratorGains
from .graph import CommGraph
from .internal_model import StabilizerPair
from .plant import Exosystem, PlantModel, check_origin_equilibrium, example_plant
from .simulation import EscalationSpec, Scenario

_SECTIONS = ("game", "graph", "plant", "exosystem", "internal_model",
             "gains", "controller", "sim")


def _field_defaults(cls, names: tuple) -> dict:
    """The defaults of the dataclass fields ``names``, as the class declares them."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {name: defaults[name] for name in names}


# the run and escalation settings default to the fields of `Scenario` and `EscalationSpec`
_DEFAULTS = {
    "exosystem": {"S": [[0.0, 1.0], [-1.0, 0.0]]},
    "internal_model": {},
    "gains": {"gamma1": 1.0, "gamma2": "auto"},
    "controller": {"k": "auto",
                   "escalation": _field_defaults(EscalationSpec, ("factor", "max_rounds"))},
    "sim": _field_defaults(Scenario, ("t_final", "dt", "seed", "R", "decimate")),
}

_ALLOWED_KEYS = {
    "game": {"kind", "h1", "h2", "h3", "factory", "args"},
    "graph": {"n", "edges", "default_weight"},
    "plant": {"kind", "g", "w_box", "v0_box", "im_polys", "factory", "args"},
    "exosystem": {"S"},
    "internal_model": {"preset", "explicit"},
    "gains": {"gamma1", "gamma2", "p0"},
    "controller": {"k", "escalation"},
    "sim": set(_DEFAULTS["sim"]),
}

# the keys each kind of game and plant requires
_KIND_KEYS = {
    "game": {"quadratic_aggregative": ("h1", "h2", "h3"), "custom": ("factory",)},
    "plant": {"example_sec5": ("g",), "custom": ("factory",)},
}


def _fail(path: str, message: str):
    raise ConfigError(f"{path}: {message}")


def _check_keys(path: str, section, allowed: set | None = None):
    """Fail unless ``section`` is an object whose keys are all ``allowed`` (any key, if None)."""
    if not isinstance(section, dict):
        _fail(path, f"expected an object, got {type(section).__name__}")
    unknown = set() if allowed is None else set(section) - allowed
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _number(path: str, value, kind=float):
    """``kind(value)`` of a number ``value``; anything else is an error naming the field.

    Booleans and strings are not numbers, and an integer is a whole number:
    ``1.0`` is 1, and ``1.5``, ``true`` and ``"4"`` are errors, never
    converted or truncated.
    """
    try:
        number = None if isinstance(value, (bool, np.bool_, str)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or kind is int and number != value:
        _fail(path, f"expected {'an integer' if kind is int else 'a number'}, got {value!r}")
    return number


def _array(path: str, value, ndim: int, shape: tuple = ()) -> np.ndarray:
    """``value`` as a float array of ``ndim`` axes, every entry a finite number.

    ``shape`` gives the sizes of the last ``len(shape)`` axes, None for any
    size. Anything else fails with a config error naming the field ``path``,
    booleans and strings too, although NumPy would convert them.
    """
    def numeric(item) -> bool:
        if isinstance(item, (list, tuple, np.ndarray)):
            return all(numeric(entry) for entry in item)
        return (isinstance(item, (int, float, np.integer, np.floating))
                and not isinstance(item, bool))

    try:
        arr = np.array(value, dtype=float) if numeric(value) else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    axes = (None,) * (ndim - len(shape)) + tuple(shape)
    if (arr is None or arr.ndim != ndim or not np.isfinite(arr).all()
            or any(size not in (None, got) for size, got in zip(axes, arr.shape))):
        sizes = ", ".join("*" if size is None else str(size) for size in axes)
        _fail(path, f"expected a finite number, got {value!r}" if ndim == 0 else
              f"expected a numeric array of shape ({sizes}) with finite entries")
    return arr


def _stabilizer_entry(path: str, entry) -> dict:
    """An explicit internal-model entry: exactly ``{M, N}``, a matrix and a vector."""
    _check_keys(path, entry, {"M", "N"})
    return {"M": _array(f"{path}.M", entry.get("M"), 2).tolist(),
            "N": _array(f"{path}.N", entry.get("N"), 1).tolist()}


def _check_kind(name: str, section: dict) -> str:
    """The section's ``kind``, each key it requires present; a custom kind's ``args`` an object."""
    kind, kinds = section.get("kind"), _KIND_KEYS[name]
    if not isinstance(kind, str) or kind not in kinds:
        _fail(f"{name}.kind", f"unknown kind {kind!r}")
    for key in kinds[kind]:
        if key not in section:
            _fail(f"{name}.{key}", f"required for the {kind} kind")
    if kind == "custom":
        _check_keys(f"{name}.args", section.setdefault("args", {}))
    return kind


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
        section = raw.get(name, {})
        _check_keys(name, section, _ALLOWED_KEYS[name])
        out[name] = copy.deepcopy({**_DEFAULTS.get(name, {}), **section})
    escalation = _DEFAULTS["controller"]["escalation"]
    _check_keys("controller.escalation", out["controller"]["escalation"], set(escalation))
    out["controller"]["escalation"] = {**escalation, **out["controller"]["escalation"]}

    game = out["game"]
    if _check_kind("game", game) == "quadratic_aggregative":
        game["h1"] = _array("game.h1", game["h1"], 1).tolist()
        for key in ("h2", "h3"):
            game[key] = _array(f"game.{key}", game[key], 1, (len(game["h1"]),)).tolist()

    graph = out["graph"]
    if "n" not in graph or "edges" not in graph:
        _fail("graph", "requires 'n' and 'edges'")
    graph["n"] = _number("graph.n", graph["n"], int)
    graph.setdefault("default_weight", 1.0)
    default_weight = _array("graph.default_weight", graph["default_weight"], 0).tolist()
    if default_weight < 0:
        _fail("graph.default_weight", f"expected a weight >= 0, got {default_weight}")
    if not isinstance(graph["edges"], (list, tuple)):
        _fail("graph.edges", "expected a list of edges")
    edges = []
    for idx, edge in enumerate(graph["edges"]):
        path = f"graph.edges[{idx}]"
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            _fail(path, "expected [i, j] or [i, j, weight]")
        i, j = (_number(path, end, int) for end in edge[:2])
        if not (0 <= i < graph["n"] and 0 <= j < graph["n"]) or i == j:
            _fail(path, f"expected two distinct agents of 0..{graph['n'] - 1}, got ({i}, {j})")
        weight = _array(path, edge[2], 0).tolist() if len(edge) == 3 else default_weight
        if weight < 0:
            _fail(path, f"expected a weight >= 0, got {weight}")
        edges.append([i, j, weight])
    graph["edges"] = edges

    plant = out["plant"]
    if _check_kind("plant", plant) == "example_sec5":
        plant["g"] = _array("plant.g", plant["g"], 2, (6,)).tolist()
    for key in ("w_box", "v0_box"):
        if key not in plant:
            _fail(f"plant.{key}", "required")
        plant[key] = _array(f"plant.{key}", plant[key], 2, (2,)).tolist()
    if "im_polys" in plant:
        if not isinstance(plant["im_polys"], (list, tuple)):
            _fail("plant.im_polys", "expected a list of coefficient lists")
        plant["im_polys"] = [_array(f"plant.im_polys[{k}]", c, 1).tolist()
                             for k, c in enumerate(plant["im_polys"])]

    exo = out["exosystem"]
    exo["S"] = _array("exosystem.S", exo["S"], 2).tolist()

    im = out["internal_model"]
    if "preset" in im and im["preset"] not in ("sec5",):
        _fail("internal_model.preset", f"unknown preset {im['preset']!r}")
    if "explicit" in im:
        if not isinstance(im["explicit"], (list, tuple)) or not all(
                isinstance(levels, (list, tuple)) for levels in im["explicit"]):
            _fail("internal_model.explicit", "expected one list of {M, N} entries per agent")
        im["explicit"] = [[_stabilizer_entry(f"internal_model.explicit[{i}][{s}]", entry)
                           for s, entry in enumerate(levels)]
                          for i, levels in enumerate(im["explicit"])]

    gains = out["gains"]
    if "p0" in gains:
        gains["p0"] = _array("gains.p0", gains["p0"], 2).tolist()
    gains["gamma1"] = _number("gains.gamma1", gains["gamma1"])
    if gains["gamma2"] != "auto":
        gains["gamma2"] = _number("gains.gamma2", gains["gamma2"])

    ctrl = out["controller"]
    if ctrl["k"] != "auto":
        ctrl["k"] = _array("controller.k", ctrl["k"], 2).tolist()
    # each run and escalation setting takes the type of its default
    for path, section, defaults in (
            ("controller.escalation", ctrl["escalation"], _DEFAULTS["controller"]["escalation"]),
            ("sim", out["sim"], _DEFAULTS["sim"])):
        for key, default in defaults.items():
            section[key] = _number(f"{path}.{key}", section[key], type(default))
    return out


def _load_factory(path: str, spec):
    """The callable that the ``"module:callable"`` spec of the field ``path`` names."""
    if not isinstance(spec, str) or ":" not in spec:
        _fail(path, f"factory {spec!r} must look like 'module:callable'")
    mod_name, attr = spec.split(":", 1)
    try:
        return getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot import factory {spec!r}: {exc}") from exc


def _build(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a library error becomes a config error naming ``section``."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError, NesimError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _custom(name: str, section: dict, cls: type):
    """What the section's factory returns for its ``args``, which must be a ``cls``."""
    made = _build(name, _load_factory(f"{name}.factory", section["factory"]), **section["args"])
    if not isinstance(made, cls):
        raise ConfigError(f"{name}.factory must return a {cls.__name__}")
    return made


def build_scenario(norm: dict) -> Scenario:
    """Construct the in-memory scenario from a normalized dict.

    The scenario is synthesized here (`Scenario.synthesized`: the game
    constants, the equilibrium, ``gamma2`` and the internal-model bank), once,
    and carries the synthesis.
    """
    game_cfg = norm["game"]
    game = (_custom("game", game_cfg, CustomGame) if game_cfg["kind"] == "custom" else
            _build("game", QuadraticAggregativeGame, h1=np.array(game_cfg["h1"]),
                   h2=np.array(game_cfg["h2"]), h3=np.array(game_cfg["h3"])))

    graph_cfg = norm["graph"]  # checked here: it sizes the (n, n) weights allocated next
    if graph_cfg["n"] != game.n:
        raise ConfigError(f"graph.n: {graph_cfg['n']} players in graph, {game.n} in game")
    graph = _build("graph", CommGraph.from_edges, graph_cfg["n"], graph_cfg["edges"])

    plant_cfg = norm["plant"]
    model = (_custom("plant", plant_cfg, PlantModel) if plant_cfg["kind"] == "custom" else
             _build("plant", example_plant, np.array(plant_cfg["g"])))
    if "im_polys" in plant_cfg:
        model = _build("plant.im_polys", dataclasses.replace, model,
                       im_polys=[np.array(c) for c in plant_cfg["im_polys"]])

    im_cfg = norm["internal_model"]
    stabilizers = None
    if "explicit" in im_cfg:
        stabilizers = tuple(tuple(_build("internal_model.explicit", StabilizerPair, **entry)
                                  for entry in agent_levels) for agent_levels in im_cfg["explicit"])

    gains_cfg, ctrl, sim = norm["gains"], norm["controller"], norm["sim"]
    try:  # the classes check their values and name them as in the scenario file
        gamma2 = None if gains_cfg["gamma2"] == "auto" else gains_cfg["gamma2"]
        scenario = Scenario(
            game=game, graph=graph, plant=model,
            exo=Exosystem(S=norm["exosystem"]["S"], v0_box=plant_cfg["v0_box"]),
            w_box=plant_cfg["w_box"],
            gains=GeneratorGains(gamma1=gains_cfg["gamma1"], gamma2=gamma2),
            controller_k=None if ctrl["k"] == "auto" else ctrl["k"],
            escalation=EscalationSpec(**ctrl["escalation"]),
            im_preset=im_cfg.get("preset"), im_stabilizers=stabilizers,
            t_final=sim["t_final"], dt=sim["dt"], seed=sim["seed"],
            R=sim["R"], decimate=sim["decimate"], p0=gains_cfg.get("p0"),
        )
        # the box checks index the scenario's w_box: one row per uncertain parameter
        w_box = scenario.w_box
        if plant_cfg["kind"] == "example_sec5" and (
                np.array(plant_cfg["g"])[:, 0] + w_box[0::6, 1] >= 0).any():
            raise ConfigError("plant: g1 + w must stay negative over the whole "
                              "uncertainty box (stable zero dynamics)")
        check_origin_equilibrium(model, [w_box[:, 0], w_box[:, 1], w_box.mean(axis=1)],
                                 n_v=scenario.exo.n_v)
        scenario.synthesized()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except InvalidParameter as exc:
        raise ConfigError(f"plant: {exc}") from exc
    return scenario


def load_scenario(source) -> tuple[Scenario, dict]:
    """Load a scenario from a path or a dict.

    Returns the scenario together with its normalized dict form.
    """
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {source}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    norm = normalize(raw)
    return build_scenario(norm), norm


def dump_normalized(norm: dict) -> str:
    return json.dumps(norm, indent=2, sort_keys=True)
