"""The README names only what the package has, as the package has it.

Every ``nesim.<name>`` chain in the README's Python blocks must resolve on the
imported package. The blocks are parsed, never run. Every backticked call
``name(a, b=..)`` whose arguments are bare names and whose name is a public
nesim function or method must list exactly that callable's parameters, in
order.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import nesim

README = Path(__file__).resolve().parents[1] / "README.md"


def nesim_chains(source: str) -> list[str]:
    """Each dotted chain rooted at the name ``nesim``, as ``nesim.a.b``, outermost first."""
    chains = []
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "nesim":
            chains.append(".".join(["nesim"] + parts[::-1]))
    return chains


def unresolved(chain: str) -> str | None:
    """The first prefix of ``chain`` that does not resolve on the package, or None."""
    obj = nesim
    names = chain.split(".")
    for k, name in enumerate(names[1:], start=2):
        if not hasattr(obj, name):
            return ".".join(names[:k])
        obj = getattr(obj, name)
    return None


def test_detector_sees_nested_chains():
    source = "x = nesim.run(nesim.Scenario.escalated, numpy.zeros(2), nesim.Gone.zeros(4))\n"
    chains = nesim_chains(source)
    assert set(chains) >= {"nesim.run", "nesim.Scenario.escalated", "nesim.Gone.zeros"}
    assert [unresolved(c) for c in ("nesim.run", "nesim.Scenario.escalated",
                                    "nesim.Gone.zeros")] == [None, None, "nesim.Gone"]


def test_readme_python_names_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    chains = [chain for block in blocks for chain in nesim_chains(block)]
    assert chains
    assert [c for c in chains if unresolved(c) is not None] == []


def public_callables() -> dict[str, list]:
    """Each public function and method defined in a nesim module, by its name.

    The values are ``(module name, qualified name, parameters)``, the
    parameters without a method's ``self``.
    """
    found = {}
    for info in pkgutil.iter_modules(nesim.__path__):
        module = importlib.import_module(f"nesim.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                methods = (staticmethod, classmethod)
                members = [(attr, getattr(obj, attr)) for attr, raw in vars(obj).items()
                           if not attr.startswith("_")
                           and (inspect.isfunction(raw) or isinstance(raw, methods))]
            else:
                continue
            for attr, fn in members:
                params = [p for p in inspect.signature(fn).parameters if p != "self"]
                found.setdefault(attr, []).append((module.__name__, fn.__qualname__, params))
    return found


SIGNATURE = re.compile(r"`((?:[A-Za-z_]\w*\.)*[A-Za-z_]\w*)\(([^`()]*)\)`")
BARE = re.compile(r"[A-Za-z_]\w*(=[^,]*)?")


def stale_signatures(text: str, callables: dict[str, list]) -> list[str]:
    """Each backticked call in ``text`` that names a public callable with other parameters.

    A call qualifies when every argument is a bare name, with or without a
    default, and its last dotted part names a public function or method. A
    dotted prefix narrows the candidates to those whose module or qualified
    name ends with it; a prefix that matches none (an instance, such as
    ``steady.``) leaves them all. The call is stale when no candidate has
    exactly its argument names as parameters, in order.
    """
    stale = []
    for match in SIGNATURE.finditer(text):
        dotted, inner = match.groups()
        args = [arg.strip() for arg in inner.split(",")] if inner.strip() else []
        *prefix, name = dotted.split(".")
        if name not in callables or not all(BARE.fullmatch(arg) for arg in args):
            continue
        owner = ".".join(part for part in prefix if part != "nesim")
        candidates = [params for module, qualname, params in callables[name]
                      if not owner or module.endswith(owner)
                      or qualname.endswith(f"{owner}.{name}")] or [
            params for *_, params in callables[name]]
        if [arg.partition("=")[0] for arg in args] not in candidates:
            stale.append(match.group(0))
    return stale


def test_signature_detector_reads_bare_calls_and_skips_the_rest():
    callables = {"run": [("nesim.simulation", "run", ["scenario", "seed"])],
                 "escalated": [("nesim.simulation", "Scenario.escalated", ["factor"])],
                 "z_star": [("nesim.plant", "SteadyState.z_star", ["v"])]}
    text = ("`run(scenario, seed=None)` `nesim.simulation.run(scenario, seed)` "
            "`run(seed, scenario)` `run(scenario)` `Scenario.escalated(gain)` "
            "`steady.z_star(v)` `run(scenario, ...)` `run(2 * x)` `R(hA)` `other(a)` "
            "`simulation.run(scenario, ablate)`")
    assert stale_signatures(text, callables) == [
        "`run(seed, scenario)`", "`run(scenario)`", "`Scenario.escalated(gain)`",
        "`simulation.run(scenario, ablate)`"]


def test_readme_signatures_list_the_parameters():
    callables = public_callables()
    assert {"drift_split", "partials_bind", "escalated", "z_star"} <= set(callables)
    assert stale_signatures(README.read_text(), callables) == []
