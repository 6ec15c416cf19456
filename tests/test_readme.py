"""The README's Python example names only what the package has.

Every ``nesim.<name>`` chain in the README's Python blocks must resolve on the
imported package. The blocks are parsed, never run.
"""

from __future__ import annotations

import ast
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
