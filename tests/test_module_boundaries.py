"""Module boundaries of nesim, checked on the source.

No nesim module imports another module's private names: a name with a
leading underscore is internal to its module; a second module that needs it
should get a public entry point instead.

Only `numerics` names an RK4 stepper: `integrate` is the one stepping loop
for nonlinear systems and steps a `LiftedSteps` workspace by
`rk4_lifted_step`, so no other module imports, calls or passes a stepper.

Only `simulation` and `game` call `estimate_constants` or `solve_ne`: a
scenario's game constants and equilibrium are derived once, by
`Scenario.synthesized`, and every other module reads them from there.

Only `simulation` calls `assemble`: a closed-loop operator is built only
where it is stepped, and every other module reads the synthesis and the
layout from the scenario.

No nesim module catches `NonFiniteState`: divergence is read off the
states a step makes (by `integrate`'s observer), not caught from the step.

`config.normalize` builds no array itself: every numeric array of a
scenario file is read by `config._array`, the one reader that checks it is
numeric, of the right shape and finite.

Every field a library class names in a `require` is a path of the scenario
file, so an error from a `replace` reads like one from a file.

Only `plant` states the contract of a plant's ``split`` hook: `drift_split`
is the one place that checks the hook's result, so no other module builds a
`ConfigError` whose message starts ``plant split hook``.

Only `plant` calls a plant's ``steady_zero`` hook: `SteadyState.z_star` is
the one caller, which checks the hook's stack contract, so every other module
reads the zero-dynamics map through a steady-state chain.

Every keyword parameter of `simulation.run` and `simulation.assemble` is
passed by some call in nesim, by name or by position: a switch that only
tests set is an option nesim does not have.

`config` names library errors in one helper: `config._build` turns an error
of a library build into a config error naming the section, `build_scenario`
holds at most one ``try`` (around the `Scenario` and its synthesis), and no
other function of `config` catches an exception but the readers of numbers,
arrays, factories and files.
"""

from __future__ import annotations

import ast
from pathlib import Path

from nesim.config import _ALLOWED_KEYS, _DEFAULTS, _SECTIONS

SRC = Path(__file__).resolve().parents[1] / "src" / "nesim"


def private_imports(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` of each private name imported from a nesim module."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "nesim":
            continue  # another package's names are its own business
        found += [f"{filename}:{node.lineno}: {alias.name}"
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_detector_sees_relative_absolute_and_lazy_imports():
    source = ("from .game import _central_partials, solve_ne\n"
              "from nesim.plant import _per_row\n"
              "def f():\n    from ..nesim import _x\n"
              "from __future__ import annotations\nfrom numpy import _core\n")
    assert [hit.split(": ")[1] for hit in private_imports(source)] == \
        ["_central_partials", "_per_row", "_x"]


def test_no_module_imports_a_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in private_imports(path.read_text(), path.name)] == []


STEPPERS = ("rk4_step", "rk4_lifted_step")


def calls_of(names: tuple, source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` of each call of one of ``names``, by its name or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in names:
            found.append(f"{filename}:{node.lineno}: {name}")
    return found


def names_of(names: tuple, source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` of each import, call or reference of one of ``names``, by its name
    or as an attribute, in line order."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom):
            hits = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            hits = [getattr(node, "id", getattr(node, "attr", None))]
        else:
            continue
        found += [(node.lineno, name) for name in hits if name in names]
    return [f"{filename}:{line}: {name}" for line, name in sorted(found)]


def test_stepper_detector_sees_imports_calls_and_references():
    source = ("from .numerics import integrate, rk4_lifted_step\n"
              "x = rk4_step(sys, t, x, h)\n"
              "def f():\n    return numerics.rk4_lifted_step(steps, x)\n"
              "integrate(steps, x, n_steps, step=rk4_lifted_step)\n"
              "steppers = {'a': numerics.rk4_step}\n"
              "rk4_lifted_steps(A, h, bind)\nrk4_matrix(A, h)\n")
    assert names_of(STEPPERS, source) == [
        "<source>:1: rk4_lifted_step", "<source>:2: rk4_step", "<source>:4: rk4_lifted_step",
        "<source>:5: rk4_lifted_step", "<source>:6: rk4_step"]


def test_only_numerics_names_a_stepper():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "numerics.py"]
    assert paths
    assert [hit for path in paths for hit in names_of(STEPPERS, path.read_text(), path.name)] == []


SYNTHESIS = ("estimate_constants", "solve_ne")


def test_synthesis_detector_sees_calls_not_references():
    source = ("c = estimate_constants(game)\n"
              "def f():\n    return game.solve_ne(g, constants=c)\n"
              "_stage('x', estimate_constants, game)\n"
              "from .game import solve_ne\n")
    assert [hit.split(": ")[1] for hit in calls_of(SYNTHESIS, source)] == list(SYNTHESIS)


def test_only_the_synthesis_derives_the_constants_and_the_equilibrium():
    paths = [path for path in sorted(SRC.glob("*.py"))
             if path.name not in ("simulation.py", "game.py")]
    assert paths
    assert [hit for path in paths
            for hit in calls_of(SYNTHESIS, path.read_text(), path.name)] == []


ASSEMBLY = ("assemble",)


def test_assembly_detector_sees_calls_not_references():
    source = ("loop = assemble(scenario)\n"
              "def f():\n    return simulation.assemble(scenario, draws=w).operator\n"
              "wrapped = functools.wraps(assemble)(g)\n"
              "from .simulation import assemble\n")
    assert [int(hit.split(":")[1]) for hit in calls_of(ASSEMBLY, source)] == [1, 3]


def test_only_simulation_assembles_the_closed_loop():
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "simulation.py"]
    assert paths
    assert [hit for path in paths for hit in calls_of(ASSEMBLY, path.read_text(), path.name)] == []


def handlers_of(name: str, source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` of each ``except`` clause that names ``name``, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        named = {getattr(part, "id", getattr(part, "attr", None)) for part in ast.walk(node.type)}
        if name in named:
            found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_handler_detector_sees_names_attributes_and_tuples():
    source = ("try:\n    f()\nexcept NonFiniteState:\n    pass\n"
              "try:\n    f()\nexcept (ValueError, errors.NonFiniteState) as exc:\n    pass\n"
              "try:\n    f()\nexcept ValueError:\n    raise NonFiniteState('x')\n"
              "try:\n    f()\nexcept:\n    pass\n")
    assert [int(hit.split(":")[1]) for hit in handlers_of("NonFiniteState", source)] == [3, 7]


def test_no_module_catches_non_finite_state():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    assert [hit for path in paths
            for hit in handlers_of("NonFiniteState", path.read_text(), path.name)] == []


ARRAY_BUILDERS = ("array", "asarray")


def array_builds_in(function: str, source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` of each ``array`` or ``asarray`` call in a function named ``function``."""
    found = []
    for fn in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(fn, ast.FunctionDef) or fn.name != function:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ARRAY_BUILDERS:
                    found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_array_detector_sees_calls_in_the_function_only():
    source = ("def normalize(raw):\n"
              "    a = np.array(raw['a'], dtype=float)\n"
              "    def inner(b):\n        return numpy.asarray(b)\n"
              "    return _array('a', raw['a'], 1), array(raw['b'])\n"
              "def build_scenario(norm):\n    return np.array(norm['a'])\n")
    assert [hit.split(":", 1)[1] for hit in array_builds_in("normalize", source)] == \
        ["2: array", "4: asarray", "5: array"]


def test_normalize_reads_arrays_only_through_the_reader():
    source = (SRC / "config.py").read_text()
    assert "def normalize(" in source and "def _array(" in source
    assert array_builds_in("normalize", source, "config.py") == []


FIELD_CHECKS = ("require", "checked_box")  # each takes the field's name first


def required_fields(source: str, filename: str = "<source>") -> list[tuple[str, str]]:
    """``(file:line, field)`` of each string literal passed first to a field check."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in FIELD_CHECKS
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            found.append((f"{filename}:{node.lineno}", node.args[0].value))
    return found


def names_a_file_path(field: str) -> bool:
    """``section``, ``section.key``, or ``controller.escalation.key``, as the file has them."""
    section, *keys = field.split(".")
    if section not in _SECTIONS or keys and keys[0] not in _ALLOWED_KEYS[section]:
        return False
    escalation = set(_DEFAULTS["controller"]["escalation"])
    return len(keys) <= 1 or (keys[0] == "escalation" and len(keys) == 2
                              and keys[1] in escalation)


def test_field_detector_sees_literal_first_arguments_only():
    source = ("require('sim.dt', dt, dt > 0, 'positive')\n"
              "def f(box):\n    return plant.checked_box('plant.w_box', box, 3)\n"
              "errors.require(name, 1, True, 'x')\n"
              "require(f'sim.{key}', 1, True, 'x')\n"
              "other('gains.p0', 1)\n")
    assert [field for _, field in required_fields(source)] == ["sim.dt", "plant.w_box"]
    fields = ["sim.dt", "graph", "controller.escalation.factor", "sim.dt.lo", "gains.gamma3",
              "box", "controller.escalation.rate", "controller.k.0"]
    assert [f for f in fields if not names_a_file_path(f)] == \
        ["sim.dt.lo", "gains.gamma3", "box", "controller.escalation.rate", "controller.k.0"]


def test_every_required_field_names_a_path_of_the_scenario_file():
    fields = [hit for path in sorted(SRC.glob("*.py"))
              for hit in required_fields(path.read_text(), path.name)]
    assert len(fields) >= 20
    assert [hit for hit in fields if not names_a_file_path(hit[1])] == []


SPLIT_HOOK_ERROR = "plant split hook"


def leading_text(node: ast.expr) -> str:
    """The literal text a string expression starts with: a constant, an f-string or a sum."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        return leading_text(node.values[0])
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return leading_text(node.left)
    return ""


def split_hook_errors(source: str, filename: str = "<source>") -> list[str]:
    """``file:line`` of each `ConfigError` built with a message that starts ``plant split hook``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ConfigError"
                and node.args and leading_text(node.args[0]).startswith(SPLIT_HOOK_ERROR)):
            found.append(f"{filename}:{node.lineno}")
    return found


def test_split_hook_error_detector_sees_literals_f_strings_and_sums():
    source = ("raise ConfigError('plant split hook: bad')\n"
              "raise errors.ConfigError(f'plant split hook returned {J.shape}' f' and {x}')\n"
              "raise ConfigError(f'{name}: plant split hook')\n"
              "raise ValueError('plant split hook: bad')\n"
              "raise cfg.ConfigError('plant' ' split hook, ' + str(x))\n"
              "message = 'plant split hook'\n")
    assert [int(hit.split(":")[1]) for hit in split_hook_errors(source)] == [1, 2, 5]


def test_only_plant_states_the_split_hook_contract():
    hits = {path.name: split_hook_errors(path.read_text(), path.name)
            for path in sorted(SRC.glob("*.py"))}
    assert len(hits.pop("plant.py")) == 2  # the hook's (J, features) and its bind's fill
    assert hits and [hit for found in hits.values() for hit in found] == []


ZERO_MAP = ("steady_zero",)


def test_zero_map_detector_sees_calls_not_definitions_or_references():
    source = ("z = plant.steady_zero(p_star, v, w)\n"
              "def steady_zero(s, v, w):\n    return s\n"
              "hook = model.steady_zero\n"
              "z = steady_zero(p_star, v, w)\n"
              "PlantModel(steady_zero=steady_zero)\n"
              "self.scenario.plant.steady_zero(p_star, v0, self.draws[column])\n")
    assert [int(hit.split(":")[1]) for hit in calls_of(ZERO_MAP, source)] == [1, 5, 7]


def test_only_plant_calls_the_zero_map():
    hits = {path.name: calls_of(ZERO_MAP, path.read_text(), path.name)
            for path in sorted(SRC.glob("*.py"))}
    assert len(hits.pop("plant.py")) == 1  # `SteadyState.z_star`
    assert hits and [hit for found in hits.values() for hit in found] == []


# the functions of `config` that may catch an exception, each for the value it reads or builds
ERROR_NAMERS = ("_number", "_array", "_load_factory", "load_scenario", "_build")


def handler_breaks(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: function`` of each ``try`` with an ``except`` that `config` may not hold.

    A ``try`` belongs to the top-level function around it. Those of
    `ERROR_NAMERS` are allowed; those of ``build_scenario`` when it holds more
    than one, and every other, are not.
    """
    tries = sorted(((getattr(top, "name", "<module>"), node.lineno)
                    for top in ast.parse(source, filename=filename).body
                    for node in ast.walk(top) if isinstance(node, ast.Try) and node.handlers),
                   key=lambda hit: hit[1])
    in_build = sum(name == "build_scenario" for name, _ in tries)
    return [f"{filename}:{line}: {name}" for name, line in tries
            if name not in ERROR_NAMERS and (name != "build_scenario" or in_build > 1)]


def test_handler_rule_detector_sees_nested_functions_and_counts_build_scenario():
    source = ("def build_scenario(norm):\n"
              "    try:\n        a()\n    except ValueError:\n        pass\n"
              "    try:\n        b()\n    finally:\n        pass\n"
              "    def inner():\n"
              "        try:\n            c()\n        except NesimError:\n            pass\n"
              "def _build(section, build):\n"
              "    try:\n        return build()\n    except ValueError:\n        raise\n"
              "def normalize(raw):\n"
              "    try:\n        d()\n    except (TypeError, KeyError):\n        pass\n"
              "try:\n    import x\nexcept ImportError:\n    x = None\n")
    assert [hit.split(":", 1)[1] for hit in handler_breaks(source)] == \
        ["2: build_scenario", "11: build_scenario", "21: normalize", "25: <module>"]
    one = "def build_scenario(norm):\n    try:\n        a()\n    except ValueError:\n        pass\n"
    assert handler_breaks(one) == []


def test_config_names_library_errors_in_one_helper():
    source = (SRC / "config.py").read_text()
    assert all(f"def {name}(" in source for name in ERROR_NAMERS + ("build_scenario",))
    assert handler_breaks(source, "config.py") == []


ENTRY_POINTS = ("run", "assemble")


def unpassed_keywords(function: str, definition: str, sources: list[str]) -> list[str]:
    """The keyword parameters of the top-level ``function`` of ``definition`` that no call of
    ``function`` in ``sources`` passes, by name or by position, in signature order.

    A keyword parameter has a default or is keyword-only.
    """
    fn = next(node for node in ast.parse(definition).body
              if isinstance(node, ast.FunctionDef) and node.name == function)
    names = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
    keywords = names[len(names) - len(fn.args.defaults):] + [arg.arg for arg in fn.args.kwonlyargs]
    passed = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == function):
                positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                passed.update(names[:len(positional)])
                passed.update(kw.arg for kw in node.keywords)
    return [name for name in keywords if name not in passed]


def test_keyword_detector_sees_names_positions_and_attribute_calls():
    definition = ("def run(scenario, ablate=False, seed=None, init_mode='box', abort_norm=None,"
                  " *, trace=False):\n    pass\n")
    calls = ["run(scenario, ablate=ablate, seed=fresh)\n"
             "def passes(scenario):\n    return simulation.run(scenario, abort_norm=1.0)\n",
             "run_generator(scenario, init_mode='box', trace=True)\nrun(scenario, **options)\n"]
    assert unpassed_keywords("run", definition, calls) == ["init_mode", "trace"]
    calls.append("run(scenario, False, [1, 2], 'box')\nnesim.run(sc, trace=True)\n")
    assert unpassed_keywords("run", definition, calls) == []


def test_every_keyword_of_run_and_assemble_is_passed_by_nesim():
    definition = (SRC / "simulation.py").read_text()
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert {fn: unpassed_keywords(fn, definition, sources) for fn in ENTRY_POINTS} == \
        {fn: [] for fn in ENTRY_POINTS}
