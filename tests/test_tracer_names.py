"""The benchmark's tracer wraps functions of the package by name; every name
it lists must resolve, or a rename breaks the benchmark unnoticed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def wrapped_names() -> list[tuple[str, str]]:
    """``(module, qualname)`` of each ``WRAPPED`` entry, read from the
    tracer's source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPPED"]):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no WRAPPED list in the tracer")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert ("rewrite", "Presentation.at_slots") in names
    assert ("freealg", "retag_slots") in names
    assert ("freealg", "tensor_embed") in names
    missing = []
    for module, qualname in names:
        owner = importlib.import_module(f"qcontract.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
