import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from usbvet import solver
from usbvet.solver import (NOT_UNIQUE, PathCondition, Solver, SymExpr,
                           check, const, eval_expr, eval_op, mk, var)

BIN_OPS = ["add", "sub", "mul", "and", "or", "xor", "udiv", "umod",
           "eq", "ne", "ult", "ugt", "ule", "uge"]


def rand_expr(rng, depth, names):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return var(rng.choice(names), 8)
        return const(rng.randrange(256), 8)
    op = rng.choice(["add", "sub", "and", "or", "xor", "mul"])
    return mk(op, (rand_expr(rng, depth - 1, names),
                   rand_expr(rng, depth - 1, names)), 8)


def test_constant_folding_matches_bruteforce_all_ops():
    rng = random.Random(5)
    for op in BIN_OPS:
        width = 1 if op in ("eq", "ne", "ult", "ugt", "ule", "uge") else 8
        pairs = [(a, b) for a in range(0, 256, 5) for b in range(0, 256, 7)]
        pairs += [(rng.randrange(256), rng.randrange(256)) for _ in range(256)]
        for a, b in pairs:
            e = mk(op, (const(a, 8), const(b, 8)), width)
            assert e.is_const()
            assert e.value == eval_op(op, (a, b), width), (op, a, b)


MK_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "udiv",
          "umod", "eq", "ne", "ult", "ugt", "ule", "uge", "ite", "not", "par",
          "rotl", "resize"]
MK_LEAVES = [var("x", 8), var("y", 8), var("n", 4), var("z", 16)]


def rand_mk(rng, depth, env, seen):
    """A random expression built with mk over 4-, 8- and 16-bit variables and
    int atoms. At every node it asserts that the node evaluates as eval_op
    does on its operands' values, whatever their widths."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.25:
            return rng.randrange(256)
        return rng.choice(MK_LEAVES)
    op = rng.choice(MK_OPS)
    width = rng.choice([1, 4, 8, 16])

    def sub():
        return rand_mk(rng, depth - 1, env, seen)

    if op in ("not", "par", "resize"):
        args = (sub(),)
    elif op == "ite":
        args = (sub(), sub(), sub())
    elif op == "rotl":  # rotl's operand has the result width
        args = (mk("resize", (sub(),), width), rng.randrange(width))
    else:
        args = (sub(), sub())
    e = mk(op, args, width)
    assert e.width == width
    vals = tuple(a if isinstance(a, int) else eval_expr(a, env) for a in args)
    widths = [a.width for a in args if isinstance(a, SymExpr)]
    assert eval_expr(e, env) == eval_op(op, vals, width), (
        op, width, vals, solver.to_text(e))
    seen.add((op, any(w > width for w in widths)))
    return e


def test_mk_evaluates_as_eval_op():
    # The carry of a symbolic ADD: bit 8 of a 16-bit sum, read at width 8
    y = var("y", 8)
    carry = mk("shr", (mk("add", (y, 0xE9), 16), 8), 8)
    assert eval_expr(carry, {"y": 0x20}) == 1
    assert eval_expr(carry, {"y": 0x16}) == 0
    rng = random.Random(67)
    seen: set = set()
    for _ in range(3000):
        env = {"x": rng.randrange(256), "y": rng.randrange(256),
               "n": rng.randrange(16), "z": rng.randrange(1 << 16)}
        rand_mk(rng, 4, env, seen)
    # every operator occurred, and each but rotl with an operand wider than
    # its result
    assert {op for op, _ in seen} == set(MK_OPS)
    assert {op for op, wide in seen if wide} == set(MK_OPS) - {"rotl"}


def test_add_folding_exhaustive():
    for a in range(256):
        for b in range(0, 256, 3):
            e = mk("add", (const(a, 8), const(b, 8)), 8)
            assert e.value == (a + b) & 0xFF


def test_empty_condition_satisfiable():
    assert check([]).sat


def test_contradiction_unsat():
    x = var("x", 8)
    assert not check([mk("eq", (x, 6), 1), mk("eq", (x, 7), 1)]).sat


def test_fig5_shaped_conjunction():
    conj = [
        mk("ne", (mk("and", (var("xram_7fab", 8), 1), 8), 0), 1),
        mk("eq", (var("xram_7fe9", 8), 6), 1),
        mk("eq", (var("xram_7feb", 8), 34), 1),
        mk("eq", (var("xram_7fec", 8), 0), 1),
    ]
    res = check(conj)
    assert res.sat
    assert res.model["xram_7fe9"] == 6
    assert res.model["xram_7feb"] == 34
    assert res.model["xram_7fec"] == 0
    assert res.model["xram_7fab"] & 1


def test_is_constant():
    s = Solver()
    assert s.is_constant(PathCondition(), const(0x2A, 8)) == 42
    assert s.is_constant(PathCondition(), var("k", 8)) is NOT_UNIQUE
    k = var("k", 8)
    pc = PathCondition()
    pc.append(mk("eq", (mk("and", (k, 0xFE), 8), 4), 1), 0, "t")
    pc.append(mk("eq", (mk("and", (k, 1), 8), 0), 1), 0, "t")
    # brute-force oracle: exactly one satisfying value
    sols = [v for v in range(256) if (v & 0xFE) == 4 and (v & 1) == 0]
    assert sols == [4]
    assert s.is_constant(pc, k) == 4


def rand_nibble_expr(rng, depth, names):
    """Random 4-bit expression over 4-bit variables: brute force visits
    every assignment of two of them in 256 evaluations."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return var(rng.choice(names), 4)
        return const(rng.randrange(16), 4)
    op = rng.choice(["add", "sub", "and", "or", "xor", "mul"])
    return mk(op, (rand_nibble_expr(rng, depth - 1, names),
                   rand_nibble_expr(rng, depth - 1, names)), 4)


def test_values_and_is_constant_match_bruteforce():
    rng = random.Random(21)
    s = Solver(timeout=30)
    counts = set()
    for _ in range(150):
        names = ["x", "y"][: rng.randrange(1, 3)]
        pc = PathCondition()
        for _ in range(rng.randrange(1, 4)):
            pc.append(mk(rng.choice(["eq", "ne", "ult", "ugt", "ule"]),
                         (rand_nibble_expr(rng, 2, names),
                          rand_nibble_expr(rng, 2, names)), 1), 0, "t")
        expr = rand_nibble_expr(rng, 2, names)
        while not solver.is_symbolic(expr):  # is_constant answers constants
            expr = rand_nibble_expr(rng, 2, names)
        feasible = set()
        solutions = []
        for point in itertools.product(range(16), repeat=len(names)):
            env = dict(zip(names, point))
            if all(eval_expr(e, env) for e in pc.exprs()):
                feasible.add(eval_expr(expr, env))
                solutions.append(env)
        counts.add(min(len(feasible), 2))
        # a model of the path must not change any answer
        models = [None] + rng.sample(solutions, min(3, len(solutions)))
        for limit in (1, 2, 3, 16):
            vals, more, timed_out = s.values(pc, expr, limit)
            assert not timed_out
            assert len(set(vals)) == len(vals)
            assert set(vals) <= feasible
            assert len(vals) == min(limit, len(feasible))
            assert more == (len(feasible) > len(vals))
            for model in models[1:]:
                assert s.values(pc, expr, limit, model) == (vals, more, False)
        for model in models:
            if not feasible:
                with pytest.raises(solver.Unsat):
                    s.is_constant(pc, expr, model)
            elif len(feasible) == 1:
                assert s.is_constant(pc, expr, model) == min(feasible)
            else:
                assert s.is_constant(pc, expr, model) is NOT_UNIQUE
    assert counts == {0, 1, 2}  # unsat, unique and many-valued cases all ran
    assert s.diagnostics == []


def brute_sat(exprs):
    names = sorted(set().union(*[e.vars() for e in exprs]) or set())
    for vals in itertools.product(range(256), repeat=len(names)):
        env = dict(zip(names, vals))
        if all(eval_expr(e, env) for e in exprs):
            return True
    return False


def test_sat_agrees_with_bruteforce_two_vars():
    rng = random.Random(9)
    for _ in range(60):
        names = ["x", "y"][: rng.randrange(1, 3)]
        exprs = []
        for _ in range(rng.randrange(1, 4)):
            a = rand_expr(rng, 2, names)
            b = rand_expr(rng, 2, names)
            exprs.append(mk(rng.choice(["eq", "ne", "ult", "ugt"]),
                            (a, b), 1))
        assert check(exprs, timeout=30).sat == brute_sat(exprs), \
            [solver.to_text(e) for e in exprs]


def test_warm_tables_agree_with_cold_and_bruteforce():
    # One Solver answers every prefix of every case twice: the second pass
    # and the longer prefixes hit the tables the earlier queries filled.
    rng = random.Random(9)
    s = Solver(timeout=30)
    for _ in range(60):
        names = ["x", "y"][: rng.randrange(1, 3)]
        exprs = []
        for _ in range(rng.randrange(1, 4)):
            a = rand_expr(rng, 2, names)
            b = rand_expr(rng, 2, names)
            exprs.append(mk(rng.choice(["eq", "ne", "ult", "ugt"]), (a, b), 1))
        for n in range(1, len(exprs) + 1):
            query = exprs[:n]
            cold = check(query, timeout=30)
            assert not cold.timed_out
            for _ in range(2):
                warm = check(query, 30, cache=s)
                assert (warm.sat, warm.model) == (cold.sat, cold.model)
            if cold.sat:
                assert all(eval_expr(e, cold.model) for e in query)
        assert cold.sat == brute_sat(exprs)
    assert s.domains and s.components


def test_timed_out_query_stores_nothing():
    a, b = var("a", 8), var("b", 8)
    vs = [var(f"v{i}", 8) for i in range(8)]
    # The (a, b) component is solved before the v chain times out; neither
    # may be stored.
    exprs = [mk("eq", (mk("add", (a, b), 8), 3), 1)]
    exprs += [mk("eq", (mk("mul", (vs[i], vs[i + 1]), 8), 251), 1)
              for i in range(7)]
    exprs.append(mk("eq", (vs[0], 1), 1))
    s = Solver(timeout=0.0)
    res = s.query(exprs)
    assert res.sat and res.model is None and s.diagnostics
    assert s.domains == {} and s.components == {}
    s.timeout = 30
    model = s.model(exprs)
    assert model == check(exprs, timeout=30).model
    assert all(eval_expr(e, model) for e in exprs)
    assert s.domains and s.components


def test_independent_splitting():
    x, y, z = var("x", 8), var("y", 8), var("z", 8)
    groups = solver.split_independent([
        mk("eq", (x, 1), 1),
        mk("eq", (y, 2), 1),
        mk("eq", (mk("add", (y, z), 8), 9), 1),
    ])
    by_vars = sorted(tuple(sorted(set().union(*[e.vars() for e in g])))
                     for g in groups)
    assert by_vars == [("x",), ("y", "z")]


def test_timeout_assumes_feasible():
    # an 8-var coupled system with a hopeless budget must time out, and a
    # timed-out query reports satisfiable
    names = [f"v{i}" for i in range(8)]
    exprs = []
    for i in range(7):
        exprs.append(mk("eq", (mk("mul", (var(names[i], 8),
                                          var(names[i + 1], 8)), 8), 251), 1))
    res = check(exprs, timeout=0.0)
    assert res.timed_out and res.sat
    s = Solver(timeout=0.0)
    res = s.query(exprs)
    assert res.sat and res.timed_out and res.model is None
    assert s.diagnostics == ["solver timeout: assumed satisfiable"]


def test_past_deadline_ends_query_before_its_timeout():
    # A single-variable constraint needs a domain walk, which looks at the
    # clock first; a passed deadline ends it although the timeout is long.
    exprs = [mk("eq", (mk("mul", (var("x", 8), 3), 8), 9), 1)]
    past = time.monotonic() - 1.0
    t0 = time.monotonic()
    res = check(exprs, timeout=60.0, deadline=past)
    assert res.timed_out and res.sat and res.model is None
    s = Solver(timeout=60.0, deadline=past)
    res = s.query(exprs)
    assert res.timed_out and res.sat and res.model is None
    assert s.diagnostics == ["solver timeout: assumed satisfiable"]
    assert s.domains == {} and s.components == {}
    assert time.monotonic() - t0 < 30.0
    # a deadline later than the timeout leaves the query to the timeout
    later = check(exprs, timeout=60.0, deadline=time.monotonic() + 3600.0)
    assert later.model == {"x": 3} and not later.timed_out


def _closed_shapes(x, m, c):
    """Every shape `_closed_domain` settles, for variable x, mask m and
    constant c, built without mk so that no mask folds away."""
    masked = [SymExpr("and", (x, m), x.width),
              SymExpr("and", (m, x), x.width)]
    return [SymExpr(op, args, 1) for op in ("eq", "ne")
            for a in [x] + masked for args in ((a, c), (c, a))]


def test_closed_form_domain_equals_the_column_walk():
    x = var("x", 8)
    masks = [0x00, 0xFF] + random.Random(26).sample(range(1, 0xFF), 6)
    for m in masks:
        for c in range(256):
            for e in _closed_shapes(x, const(m), const(c)):
                got = solver._closed_domain(e, "x", 8)
                assert got == solver._column_domain(e, "x", 8), (m, c, e)
    # the bit columns hold at any width: every mask and constant of 4 bits
    n = var("n", 4)
    for m in range(16):
        for c in range(16):
            for e in _closed_shapes(n, const(m, 4), const(c, 4)):
                got = solver._closed_domain(e, "n", 4)
                assert got == solver._column_domain(e, "n", 4), (m, c, e)
    # any other shape is left to the walk
    y = var("y", 8)
    for e in (mk("ult", (x, 9), 1), mk("eq", (mk("add", (x, 1), 8), 9), 1),
              mk("eq", (mk("and", (x, y), 8), 1), 1),
              mk("eq", (mk("resize", (var("w", 16),), 8), 1), 1)):
        assert solver._closed_domain(e, "x", 8) is None, e


def test_past_deadline_ends_a_closed_form_query():
    # the closed form runs where the walk would, after the clock check
    exprs = [mk("eq", (mk("and", (var("x", 8), 0x0F), 8), 3), 1)]
    s = Solver(timeout=60.0, deadline=time.monotonic() - 1.0)
    res = s.query(exprs)
    assert res.timed_out and res.sat and res.model is None
    assert s.domains == {} and s.components == {}
    assert check(exprs, timeout=60.0).model == {"x": 3}


def test_pbits_is_superset_of_reachable_values():
    rng = random.Random(31)
    for _ in range(2000):
        e = rand_expr(rng, 3, ["x", "y"])
        env = {"x": rng.randrange(256), "y": rng.randrange(256)}
        assert eval_expr(e, env) & ~e.pbits == 0


def test_bool_not_flips_comparisons():
    x = var("x", 8)
    assert solver.bool_not(mk("ne", (x, 6), 1)).op == "eq"
    assert solver.bool_not(mk("ult", (x, 6), 1)).op == "uge"
    e = mk("and", (x, 1), 8)
    n = solver.bool_not(e)
    assert n.op == "eq"  # nonzero-negation becomes == 0


def test_path_condition_only_grows():
    pc = PathCondition()
    x = var("x", 8)
    pc.append(mk("eq", (x, 1), 1), 0x10, "taken")
    snapshot = list(pc.entries)
    pc.append(mk("ne", (x, 2), 1), 0x12, "fall")
    assert pc.entries[: len(snapshot)] == snapshot
    assert len(pc) == 2


def test_path_condition_hands_each_distinct_constraint_once():
    x = var("x", 8)
    lt, ne = mk("ult", (x, 9), 1), mk("ne", (x, 3), 1)
    pc = PathCondition()
    for site, e in enumerate((lt, ne, lt, mk("ult", (x, 9), 1), ne)):
        pc.append(e, site, "taken")
    pc.append(const(1, 1), 9, "true")  # constant-true is never kept
    # every appended constraint keeps its row; the solver sees each once,
    # in first-seen order
    assert [site for _, site, _ in pc.entries] == [0, 1, 2, 3, 4]
    assert pc.exprs() == [lt, ne]
    child = pc.copy()
    eq = mk("eq", (x, 7), 1)
    child.append(eq, 5, "fall")
    child.append(lt, 6, "taken")
    assert child.exprs() == [lt, ne, eq] and len(child) == 7
    assert pc.exprs() == [lt, ne] and len(pc) == 5
    assert Solver().model(child) == {"x": 7}


def test_structural_equality_and_hash():
    a = mk("add", (var("x", 8), 3), 8)
    b = mk("add", (var("x", 8), 3), 8)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != mk("add", (var("x", 8), 4), 8)


CMP_OPS = ["eq", "ne", "ult", "ugt", "ule", "uge"]
WIDTH_OPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr", "udiv",
             "umod", "rotl"]


def rand_single(rng, depth, width, pool):
    """A random expression over the one variable x, built with SymExpr so no
    operator is folded away. Subtrees from `pool` are shared by identity."""
    if pool and rng.random() < 0.15:
        shared = [p for p in pool if p.width == width]
        if shared:
            return rng.choice(shared)
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            leaf = var("x", rng.choice([8, 8, 8, 4]))
            return leaf if leaf.width == width else SymExpr("resize", (leaf,),
                                                            width)
        return const(rng.choice([0, 1, rng.randrange(1 << width)]), width)
    kinds = ["bin", "bin", "ite", "not", "resize"]
    if width == 1:
        kinds += ["cmp", "cmp", "par"]
    kind = rng.choice(kinds)

    def sub(w):
        return rand_single(rng, depth - 1, w, pool)

    if kind == "bin":
        op = rng.choice(WIDTH_OPS)
        if op in ("udiv", "umod") and rng.random() < 0.3:
            e = SymExpr(op, (sub(width), const(0, width)), width)
        else:
            e = SymExpr(op, (sub(width), sub(width)), width)
    elif kind == "cmp":
        w = rng.choice([1, 4, 8, 16])
        e = SymExpr(rng.choice(CMP_OPS), (sub(w), sub(w)), 1)
    elif kind == "ite":
        e = SymExpr("ite", (sub(rng.choice([1, 8])), sub(width), sub(width)),
                    width)
    elif kind == "not":
        e = SymExpr("not", (sub(width),), width)
    elif kind == "par":
        e = SymExpr("par", (sub(8),), 1)
    else:
        e = SymExpr("resize", (sub(rng.choice([4, 8, 16])),), width)
    pool.append(e)
    return e


def test_one_walk_domain_matches_per_value_evaluation():
    rng = random.Random(61)
    seen: set[str] = set()
    checked = 0
    while checked < 400:
        pool: list = []
        e = rand_single(rng, 4, rng.choice([1, 8]), pool)
        if e.vars() != {"x"}:
            continue
        stack = [e]
        while stack:
            n = stack.pop()
            seen.add(n.op)
            stack.extend(a for a in n.args if isinstance(a, SymExpr))
        want = sum(1 << v for v in range(256) if eval_expr(e, {"x": v}))
        fresh: dict = {}
        got = solver._domain(e, "x", 8, float("inf"), {}, fresh)
        assert got == want, solver.to_text(e)
        assert fresh == {(e, "x", 8): want}
        checked += 1
    assert set(solver.OPS) <= seen, set(solver.OPS) - seen


@st.composite
def column_trees(draw, width, depth=4):
    """A random expression over the one 8-bit variable x whose value has
    `width` bits, built with SymExpr so no operator is folded away. Every
    operator of the table is drawn, with operands of 1, 4, 8 and 16 bits."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            x = var("x", 8)
            return x if width == 8 else SymExpr("resize", (x,), width)
        return const(draw(st.integers(0, (1 << width) - 1)), width)
    op = draw(st.sampled_from(sorted(solver.OPS)))

    def sub(w=width):
        return draw(column_trees(w, depth - 1))

    def any_width():
        return draw(st.sampled_from([1, 4, 8, 16]))

    if op in CMP_OPS:
        w = any_width()
        return SymExpr(op, (sub(w), sub(w)), 1)
    if op == "par":
        return SymExpr(op, (sub(8),), 1)
    if op == "resize":
        return SymExpr(op, (sub(any_width()),), width)
    if op == "not":
        return SymExpr(op, (sub(),), width)
    if op == "ite":
        return SymExpr(op, (sub(any_width()), sub(), sub()), width)
    if op in ("udiv", "umod") and draw(st.booleans()):
        return SymExpr(op, (sub(), const(0, width)), width)
    return SymExpr(op, (sub(), sub()), width)


@st.composite
def shared_trees(draw):
    """Two `column_trees` a and b of one width, joined as op(a, op(op(a, y),
    b)) under a drawn operator: a is shared by identity, and the 8-bit
    variable y is mixed in beside x."""
    width = draw(st.sampled_from([1, 8, 16]))
    a, b = draw(column_trees(width)), draw(column_trees(width))
    y = var("y", 8)
    if width != 8:
        y = SymExpr("resize", (y,), width)
    op = draw(st.sampled_from(["add", "sub", "and", "or", "xor", "mul"]))
    return SymExpr(op, (a, SymExpr(op, (SymExpr(op, (a, y), width), b),
                                   width)), width)


# Recursive reference versions of an expression's facts, written from their
# definitions: the solver computes them without recursion.

def ref_vars(e) -> frozenset:
    if not isinstance(e, SymExpr) or e.op == "const":
        return frozenset()
    if e.op == "var":
        return frozenset((e.args[0],))
    return frozenset().union(*(ref_vars(a) for a in e.args))


def ref_eq(a, b) -> bool:
    if isinstance(a, SymExpr) and isinstance(b, SymExpr):
        return (a.op == b.op and a.width == b.width
                and len(a.args) == len(b.args)
                and all(ref_eq(x, y) for x, y in zip(a.args, b.args)))
    if isinstance(a, SymExpr) or isinstance(b, SymExpr):
        return False
    return a == b


def ref_text(e) -> str:
    if isinstance(e, int):
        return str(e)
    if e.op == "const":
        return f"0x{e.args[0]:x}" if e.args[0] > 9 else str(e.args[0])
    if e.op == "var":
        return e.args[0]
    if e.op in solver._INFIX and len(e.args) == 2:
        return (f"({ref_text(e.args[0])} {solver._INFIX[e.op]} "
                f"{ref_text(e.args[1])})")
    return f"{e.op}({', '.join(ref_text(a) for a in e.args)})"


def ref_eval(e, env: dict) -> int:
    if isinstance(e, int):
        return e
    if e.op == "const":
        return e.args[0]
    if e.op == "var":
        return env.get(e.args[0], 0) & ((1 << e.width) - 1)
    return eval_op(e.op, tuple(ref_eval(a, env) for a in e.args), e.width)


def ref_nodes(e, out: dict) -> list:
    """The distinct nodes under e, by identity."""
    if isinstance(e, SymExpr) and id(e) not in out:
        out[id(e)] = e
        for a in e.args:
            ref_nodes(a, out)
    return list(out.values())


def rebuilt(e):
    """A copy of e that shares no node with it."""
    if not isinstance(e, SymExpr):
        return e
    return SymExpr(e.op, tuple(rebuilt(a) for a in e.args), e.width)


@settings(max_examples=200, deadline=None)
@given(e=shared_trees(), x=st.integers(0, 255), y=st.integers(0, 255))
def test_expression_facts_equal_their_recursive_definitions(e, x, y):
    nodes = ref_nodes(e, {})
    copies = [rebuilt(n) for n in nodes]
    env = {"x": x, "y": y}
    for n, c in zip(nodes, copies):
        assert n.vars() == ref_vars(n)
        assert c is n
        assert solver.to_text(n) == ref_text(n)
        assert eval_expr(n, env) == ref_eval(n, env)
        for other in copies:
            same = ref_eq(n, other)
            assert (n == other) is same and (other == n) is same
            assert (n != other) is not same and (n is other) is same
            assert not same or hash(n) == hash(other)
    assert e.vars() == {"x", "y"} or e.vars() == {"y"}


@settings(max_examples=300, deadline=None)
@given(e=st.sampled_from([1, 8, 16]).flatmap(column_trees))
def test_column_walk_equals_pointwise_evaluation(e):
    assume("x" in e.vars())
    column = solver._walk(e, {}, "x", range(256))
    assert column == [eval_expr(e, {"x": v}) for v in range(256)]
    want = sum(1 << v for v in range(256) if column[v])
    assert solver._domain(e, "x", 8, float("inf"), {}, {}) == want


# eval_op's result on fixed operands for every operator, computed before
# the operators moved into one table
EVAL_OP_CASES = [
    ("add", (240, 32), 8, 0x10), ("add", (240, 32), 16, 0x110),
    ("add", (65535, 1), 16, 0x0), ("add", (1, 1), 1, 0x0),
    ("sub", (3, 5), 8, 0xfe), ("sub", (5, 3), 8, 0x2),
    ("sub", (0, 1), 16, 0xffff),
    ("and", (240, 60), 8, 0x30), ("and", (511, 511), 8, 0xff),
    ("or", (240, 15), 8, 0xff), ("or", (256, 1), 8, 0x1),
    ("xor", (255, 15), 8, 0xf0), ("xor", (4660, 65535), 16, 0xedcb),
    ("shl", (129, 1), 8, 0x2), ("shl", (129, 1), 16, 0x102),
    ("shl", (1, 9), 8, 0x0), ("shl", (255, 0), 8, 0xff),
    ("shr", (129, 1), 8, 0x40), ("shr", (4660, 8), 8, 0x12),
    ("shr", (128, 9), 8, 0x0),
    ("mul", (16, 16), 8, 0x0), ("mul", (16, 16), 16, 0x100),
    ("mul", (255, 255), 16, 0xfe01), ("mul", (7, 0), 8, 0x0),
    ("udiv", (200, 7), 8, 0x1c), ("udiv", (200, 0), 8, 0x0),
    ("udiv", (65535, 16), 8, 0xff), ("udiv", (0, 0), 16, 0x0),
    ("umod", (200, 7), 8, 0x4), ("umod", (200, 0), 8, 0x0),
    ("umod", (65535, 256), 16, 0xff), ("umod", (5, 5), 8, 0x0),
    ("eq", (3, 3), 1, 0x1), ("eq", (3, 4), 1, 0x0), ("eq", (256, 0), 1, 0x0),
    ("ne", (3, 3), 1, 0x0), ("ne", (3, 4), 1, 0x1),
    ("ult", (3, 4), 1, 0x1), ("ult", (4, 4), 1, 0x0),
    ("ult", (256, 255), 1, 0x0),
    ("ugt", (5, 4), 1, 0x1), ("ugt", (4, 4), 1, 0x0),
    ("ule", (4, 4), 1, 0x1), ("ule", (5, 4), 1, 0x0),
    ("uge", (4, 4), 1, 0x1), ("uge", (3, 4), 1, 0x0),
    ("ite", (1, 18, 52), 8, 0x12), ("ite", (0, 18, 52), 8, 0x34),
    ("ite", (2, 511, 0), 8, 0xff), ("ite", (0, 0, 4660), 16, 0x1234),
    ("not", (15,), 8, 0xf0), ("not", (0,), 1, 0x1),
    ("not", (4660,), 16, 0xedcb), ("not", (511,), 8, 0x0),
    ("rotl", (129, 1), 8, 0x3), ("rotl", (129, 0), 8, 0x81),
    ("rotl", (129, 9), 8, 0x3), ("rotl", (32769, 4), 16, 0x18),
    ("rotl", (5, 3), 4, 0xa),
    ("par", (0,), 1, 0x0), ("par", (1,), 1, 0x1), ("par", (255,), 1, 0x0),
    ("par", (128,), 1, 0x1), ("par", (127,), 1, 0x1),
    ("resize", (4660,), 8, 0x34), ("resize", (4660,), 16, 0x1234),
    ("resize", (255,), 1, 0x1), ("resize", (171,), 4, 0xb),
]


def test_eval_op_pinned_for_every_operator():
    assert {op for op, _, _, _ in EVAL_OP_CASES} == set(solver.OPS)
    for op, args, width, want in EVAL_OP_CASES:
        got = eval_op(op, args, width)
        assert type(got) is int and got == want, (op, args, width)


def test_values_of_a_constant_with_a_model_makes_no_query(monkeypatch):
    calls = []
    real = solver.check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "check", counting)
    k = var("k", 8)
    pc = PathCondition()
    pc.append(mk("ult", (k, 9), 1), 0, "t")
    addr = mk("or", (mk("and", (k, 0), 8), 0x42), 8)  # folds to a constant
    assert addr.op == "const"
    s = Solver()
    assert s.values(pc, addr, 4, {"k": 3}) == ([0x42], False, False)
    assert calls == []
    # without a model the path may be infeasible, so the query stays
    assert s.values(pc, addr, 4) == ([0x42], False, False)
    assert calls
    pc.append(mk("ugt", (k, 9), 1), 0, "f")
    assert s.values(pc, addr, 4) == ([], False, False)


DEEP = 10_000


def deep_chain(depth: int) -> SymExpr:
    """add and xor in turn, `depth` levels, each with x or a nonzero
    constant, built through mk: no level folds away."""
    x = var("x", 8)
    e = x
    for i in range(depth):
        b = x if i % 3 == 0 else i % 251 + 1
        e = mk("xor" if i % 2 else "add", (e, b), 8)
    return e


def deep_fold(depth: int, x: int) -> tuple[int, str]:
    """deep_chain's value at x, and its text, by a plain loop."""
    v, text = x, "x"
    for i in range(depth):
        b = x if i % 3 == 0 else i % 251 + 1
        v = v ^ b if i % 2 else (v + b) & 0xFF
        b_text = "x" if i % 3 == 0 else ref_text(const(b))
        text = f"({text} {'^' if i % 2 else '+'} {b_text})"
    return v, text


def test_deep_expressions_are_walked_without_recursion():
    a, b = deep_chain(DEEP), deep_chain(DEEP)
    assert a is b
    assert a.vars() == {"x"} and hash(a) == hash(b)
    assert a == b and not a != b
    assert a != mk("add", (b, 1), 8) and a != deep_chain(DEEP - 1)
    for x in (0, 7, 200):
        assert eval_expr(a, {"x": x}) == deep_fold(DEEP, x)[0]
    assert solver.to_text(a) == deep_fold(DEEP, 0)[1]
    want = deep_fold(DEEP, 7)[0]
    cond, y_small = mk("eq", (a, want), 1), mk("ult", (var("y", 8), 3), 1)
    assert solver.split_independent([y_small, cond]) == [[cond], [y_small]]
    res = check([cond])  # one variable: the column walk
    assert res.sat and not res.timed_out
    assert deep_fold(DEEP, res.model["x"])[0] == want
    pc = PathCondition()
    pc.append(cond, 0, "deep")
    assert pc.holds(mk("eq", (b, want), 1))


def doubled() -> SymExpr:
    """add(e, e) at each of 200 levels: 201 nodes whose text would have
    2^200 leaves."""
    e = var("x", 8)
    for _ in range(200):
        e = mk("add", (e, e), 8)
    return e


def test_equal_shared_operands_are_compared_once():
    a, b = doubled(), doubled()
    assert a is b and a == b and hash(a) == hash(b)
    assert a.vars() == {"x"} and eval_expr(a, {"x": 1}) == 0


def test_repr_stays_linear_in_distinct_nodes():
    assert repr(doubled()) == "<add/8: 201 nodes>"
    assert repr(deep_chain(DEEP)).startswith("<xor/8: ")
    e = mk("add", (var("x", 8), 3), 8)
    assert repr(e) == solver.to_text(e) == "(x + 3)"


def test_equality_tells_structure_apart_under_equal_hashes():
    # pairs that differ in a leaf's value, a leaf's name, a width or an
    # inner op are distinct nodes, and so unequal
    x = var("x", 8)
    # 2^61 - 1 hashes as 0 does, so these two leaves' table keys collide
    top = (1 << 61) - 1
    assert hash(("const", 64, (0,))) == hash(("const", 64, (top,)))
    cases = [
        (SymExpr("not", (const(3),), 8), SymExpr("not", (const(4),), 8)),
        (SymExpr("not", (x,), 8), SymExpr("not", (var("y", 8),), 8)),
        (SymExpr("not", (x,), 8), SymExpr("not", (var("x", 4),), 8)),
        (SymExpr("not", (SymExpr("not", (x,), 8),), 8),
         SymExpr("not", (SymExpr("par", (x,), 8),), 8)),
        (SymExpr("not", (const(0, 64),), 64),
         SymExpr("not", (const(top, 64),), 64)),
    ]
    for a, b in cases:
        assert a is not b and a != b and b != a and not a == b
        assert a is SymExpr(a.op, a.args, a.width)
        assert b is SymExpr(b.op, b.args, b.width)
    assert const(top, 64).value == top and const(0, 64).value == 0

