"""The benchmark's tracer wraps usbvet functions by name (``_WRAPPED`` in
``bench/spans.py``). A rename inside usbvet would make a traced run fail at
start-up, or silently record nothing, so pin every name here. The file is
read with ``ast``, not imported: the benchmark's own imports stay out of the
test run."""

import ast
import importlib
import pathlib

from usbvet import fwkit, solver, symexec
from usbvet.lifter import Region
from usbvet.solver import PathCondition, mk, var

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


def test_every_solver_query_reaches_module_check(monkeypatch):
    """`solver.queries` counts calls of the module-level ``solver.check``,
    which the tracer replaces by attribute; every query path must look that
    name up at call time."""
    real = solver.check
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "check", counting)
    x = var("x", 8)
    pc = PathCondition()
    pc.append(mk("ult", (x, 4), 1), 0, "t")
    y = mk("shr", (x, 2), 8)  # 0 is its only feasible value
    model = {"x": 1}          # satisfies pc
    s = solver.Solver()
    for name, ask, queries in [
            ("values", lambda: s.values(pc, x, 8), 5),  # 4 values, 1 unsat
            # another value than the model's is feasible: as without one
            ("values, model", lambda: s.values(pc, x, 8, model), 6),
            ("values, model, unique", lambda: s.values(pc, y, 8, model), 1),
            ("is_constant", lambda: s.is_constant(pc, x), 2),
            ("is_constant, model", lambda: s.is_constant(pc, x, model), 1),
            ("is_constant, model, unique",
             lambda: s.is_constant(pc, y, model), 1),
            ("query", lambda: s.query(pc), 1),
            ("model", lambda: s.model(pc), 1)]:
        before = len(calls)
        ask()
        assert len(calls) - before == queries, name

    def explore(body):
        image, _ = fwkit.assemble_with_symbols(f"""
        .org 0
            mov dptr, #0x7f00
            movx a, @dptr
        {body}
        spin:
            sjmp spin
        """)
        policy = symexec.SymbolicPolicy([(Region.XRAM, 0x7F00)])
        del calls[:]
        return symexec.execute(image, policy, symexec.ExplorationConfig(
            block_repeat_threshold=4), isr_map={})

    # a symbolic store address fans out to 0x7f00 and 0x7f01: the query
    # that excludes the model's value, then two values and the unsat query
    # that ends them
    res = explore("""
            anl a, #0x01
            mov dpl, a
            movx @dptr, a""")
    assert res.states_created == 3
    assert len(calls) == 4
    # a single-valued store address (0x7fff) costs that first query only
    res = explore("""
            orl a, #0xff
            mov dpl, a
            movx @dptr, a""")
    assert res.states_created == 2
    assert len(calls) == 1
    # a symbolic branch asks only about the side its model does not satisfy
    res = explore("""
            jz spin
            mov a, #1""")
    assert res.states_created == 2
    assert len(calls) == 1
