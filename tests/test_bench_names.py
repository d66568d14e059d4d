"""The benchmark's tracer wraps usbvet functions by name (``_WRAPPED`` in
``bench/spans.py``). A rename inside usbvet would make a traced run fail at
start-up, or silently record nothing, so pin every name here. The file is
read with ``ast``, not imported: the benchmark's own imports stay out of the
test run."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_names():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_WRAPPED"
                        for t in node.targets)):
            return [(elt.elts[0].id, elt.elts[1].value)
                    for elt in node.value.elts]
    raise AssertionError("no _WRAPPED list in bench/spans.py")


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert names
    missing = [f"{mod}.{attr}" for mod, attr in names
               if not callable(getattr(importlib.import_module(
                   f"usbvet.{mod}"), attr, None))]
    assert missing == []
