"""Bit-vector expressions, path conditions and satisfiability.

Expressions are immutable trees over unsigned bit-vectors. Evaluation
semantics: every node's value is masked to its width, and a constraint holds
when its value is nonzero. Comparison operators yield 0/1.

Nodes are hash-consed: one weak table, `_NODES`, holds every live node by
its op, width and operands, and building a node that is already there
returns that node. So one structure is one node, in every exploration and
analysis alive at once, and equality and hashing are identity. The table
holds nodes weakly: a node leaves it when its last user lets go of it, so
it needs no clearing. A new node's facts (its possible bits and its
variables) are made with it from its operands' facts. Every other pass over
an expression (evaluation, the column walk below, variable widths, text) is
one loop over `_postorder`, the one traversal: each distinct node once,
operands first, iteratively. No function here recurses over an expression,
so a loop that deepens an expression on every pass cannot exhaust Python's
stack.

The satisfiability backend is internal: constraints are split into
independent sets (connected components over shared variables), single
variable constraints prune domains, and the rest is settled by
backtracking search. The search reads the clock by the nodes its checks
evaluate, not by their number, so a deep constraint cannot carry it far
past its deadline. The commonest single-variable shapes, a byte or its
masked bits compared equal or unequal to a constant (`eq`/`ne` of a
constant and `v` or `and(v, m)`), have their domain computed in closed
form, as the intersection of one bit column per bit of the mask. Any other
domain is enumerated in one post-order walk of its constraint, in which
each node holds its values at all 2^width points. Firmware constraints
here are over 8-bit memory bytes, where both are exact and fast.

Each `Solver` memoises two pure functions for the queries it is given: the
satisfying values of a single-variable constraint (a domain, kept as an int
bitmask so intersecting domains is one `&`), and the model or unsat result
of a whole component. A query that extends an earlier one by a constraint
therefore re-solves only the component that constraint touches. A `Solver`
keeps the tables of the `memo` it is given, or private ones: the symbolic
executor passes the memo of its analysis (`symexec.ImageMemo`), so every
exploration of one image shares them, and they are freed with the memo.
Since both functions are pure, sharing changes no answer.

A caller that already holds a model of a path (any assignment that
satisfies it, as the symbolic executor keeps one per state) passes it to
`values` and `is_constant`: one query that excludes the model's value
decides whether it is the only one. When it is not, `values` enumerates as
without a model, so the values it returns never depend on the model.

Timeouts never report unsat: a timed-out query is treated as satisfiable
with a diagnostic so reachability reporting stays sound, and it stores
nothing in the tables.
"""

from __future__ import annotations

import time
import weakref
from itertools import repeat


def _rotl(m: int, a) -> int:
    width = m.bit_length()
    v, k = a[0], a[1] % width
    return ((v << k) | (v >> (width - k))) & m


def _parity(m: int, a) -> int:
    v = a[0]
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return v & 1


# The concrete semantics of every expression / IR operator, and their only
# home: OPS[op](mask, operands) is op's value on a tuple or list of operand
# values, at the width whose mask is `mask`. A comparison's 0/1 is an int,
# never a bool. Operands come as one sequence, not unpacked, because a call
# that unpacks them costs more than the rule itself.
OPS = {
    "add": lambda m, a: (a[0] + a[1]) & m,
    "sub": lambda m, a: (a[0] - a[1]) & m,
    "and": lambda m, a: a[0] & a[1] & m,
    "or": lambda m, a: (a[0] | a[1]) & m,
    "xor": lambda m, a: (a[0] ^ a[1]) & m,
    "shl": lambda m, a: (a[0] << a[1]) & m,
    "shr": lambda m, a: (a[0] >> a[1]) & m,
    "mul": lambda m, a: (a[0] * a[1]) & m,
    "udiv": lambda m, a: (a[0] // a[1]) & m if a[1] else 0,
    "umod": lambda m, a: (a[0] % a[1]) & m if a[1] else 0,
    "eq": lambda m, a: 1 if a[0] == a[1] else 0,
    "ne": lambda m, a: 1 if a[0] != a[1] else 0,
    "ult": lambda m, a: 1 if a[0] < a[1] else 0,
    "ugt": lambda m, a: 1 if a[0] > a[1] else 0,
    "ule": lambda m, a: 1 if a[0] <= a[1] else 0,
    "uge": lambda m, a: 1 if a[0] >= a[1] else 0,
    "ite": lambda m, a: (a[1] if a[0] else a[2]) & m,
    "not": lambda m, a: ~a[0] & m,
    "rotl": _rotl,
    "par": _parity,
    "resize": lambda m, a: a[0] & m,
}


def eval_op(op: str, args: tuple | list, width: int) -> int:
    """Concrete semantics of every expression / IR operator (see OPS)."""
    return OPS[op]((1 << width) - 1, args)


def _possible_bits(op: str, args: tuple, width: int) -> int:
    """Superset of the bits the expression can ever set (known-bits domain)."""
    mask = (1 << width) - 1
    if op == "const":
        return args[0] & mask
    if op == "var":
        return mask
    if op in ("eq", "ne", "ult", "ugt", "ule", "uge", "par"):
        return 1
    pa = [a.pbits for a in args]
    if op == "and":
        return pa[0] & pa[1] & mask
    if op in ("or", "xor"):
        return (pa[0] | pa[1]) & mask
    if op == "shl" and args[1].op == "const":
        return (pa[0] << args[1].value) & mask
    if op == "shr" and args[1].op == "const":
        return pa[0] >> args[1].value
    if op == "resize":
        return pa[0] & mask
    if op == "ite":
        return (pa[1] | pa[2]) & mask
    return mask


class SymExpr:
    """Immutable expression node. op 'const': args=(value,); 'var':
    args=(name,); any other op: args are its operands, all nodes.

    Nodes are interned: building one looks its `(op, width, args)` up in
    `_NODES` and returns the node already there, so equal structures are
    one node, and equality and hashing are identity. Operands are interned
    already, so the key compare is shallow. A new node's facts are made
    with it, from its operands' stored facts, never by walking below them:
    `pbits` and the variable set that `vars()` returns. Every walk over an
    expression runs through `_postorder`, so an expression of any depth is
    safe to build and to use."""

    __slots__ = ("op", "args", "width", "pbits", "_vars", "__weakref__")

    def __new__(cls, op: str, args: tuple, width: int):
        key = (op, width, args)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node.op = op
            node.args = args
            node.width = width
            node.pbits = _possible_bits(op, args, width)
            vs = frozenset(args) if op == "var" else _NO_VARS
            for a in args:
                if isinstance(a, SymExpr) and not a._vars <= vs:
                    vs = vs | a._vars if vs else a._vars
            node._vars = vs
            _NODES[key] = node
        return node

    def is_const(self) -> bool:
        return self.op == "const"

    @property
    def value(self) -> int:
        assert self.op == "const"
        return self.args[0]

    def vars(self) -> frozenset:
        return self._vars

    def __repr__(self):
        """to_text(self) while its text has under _REPR_NODES nodes in it,
        else op, width and the count of distinct nodes: a text can be
        exponentially longer than the nodes it shows, a repr may not be."""
        size: dict[int, int] = {}
        for n in _postorder((self,)):
            size[id(n)] = 1 if n.op in _LEAVES else min(
                _REPR_NODES, 1 + sum(size[id(a)] for a in n.args))
        if size[id(self)] < _REPR_NODES:
            return to_text(self)
        return f"<{self.op}/{self.width}: {len(size)} nodes>"


# Every live node, by (op, width, args). Only the nodes are held weakly: a
# node leaves the table when its last user lets go of it.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NO_VARS = frozenset()
_REPR_NODES = 256
_LEAVES = frozenset(("const", "var"))


def _postorder(roots):
    """Each distinct node (by identity) under `roots` once, after all of its
    operands, left to right: the one traversal of expressions. Iterative, so
    an expression of any depth is walked without recursion."""
    seen = set()
    stack = [(None, iter(roots))]
    while stack:
        node, operands = stack[-1]
        for a in operands:
            if id(a) not in seen:
                seen.add(id(a))
                if a.op in _LEAVES:
                    yield a  # a leaf: its args hold no node
                else:
                    stack.append((a, iter(a.args)))
                    break
        else:
            stack.pop()
            if node is not None:
                yield node


def const(value: int, width: int = 8) -> SymExpr:
    return SymExpr("const", (value & ((1 << width) - 1),), width)


def var(name: str, width: int = 8) -> SymExpr:
    return SymExpr("var", (name,), width)


def _coerce(a, width: int):
    if isinstance(a, int):
        return const(a, width)
    return a


_CMP_OPS = frozenset(("eq", "ne", "ult", "ugt", "ule", "uge"))
# Operators whose low result bits depend on operand bits above the result
# width: built at their widest operand's width, then resized.
_WIDE_OPS = frozenset(("shl", "shr", "udiv", "umod"))


def _width(a) -> int:
    return a.width if isinstance(a, SymExpr) else a.bit_length()


def _resize(a: SymExpr, width: int) -> SymExpr:
    if a.width == width:
        return a
    if a.op == "const":
        return const(a.value, width)
    return SymExpr("resize", (a,), width)


def mk(op: str, args: tuple, width: int) -> SymExpr:
    """Smart constructor: folds constant-only trees, keeps operand widths equal.

    Result width is `width`, and the result evaluates as `eval_op` does on
    the operands' values. Comparisons and `par` read their operands at the
    widest operand's width (unsigned, zero-extending the narrower side). A
    shift, udiv or umod with an operand wider than the result is built at
    that width and resized; other operators narrow their operands first,
    which keeps the result's low bits. `rotl` takes an operand of the result
    width.
    """
    if op in ("const", "var"):
        return SymExpr(op, args, width)
    if op in _WIDE_OPS:
        ow = max(_width(a) for a in args)
        if ow > width:
            return _resize(mk(op, args, ow), width)
    if op in _CMP_OPS or op == "par":
        ow = max(_width(a) for a in args)
        coerced = tuple(_resize(_coerce(a, ow), ow) for a in args)
    elif op == "ite":
        cond = args[0] if isinstance(args[0], SymExpr) else _coerce(args[0], 8)
        x = _resize(_coerce(args[1], width), width)
        y = _resize(_coerce(args[2], width), width)
        if cond.op == "const":
            return x if cond.value else y
        if x is y:
            return x
        coerced = (cond, x, y)
    else:
        coerced = tuple(_resize(_coerce(a, width), width) for a in args)
    if all(a.op == "const" for a in coerced):
        return const(eval_op(op, tuple(a.value for a in coerced), width), width)
    if op == "and":
        a, b = coerced
        if a.pbits & b.pbits == 0:
            return const(0, width)
        if b.op == "const" and a.pbits & ~b.value == 0:
            return _resize(a, width)
        if a.op == "const" and b.pbits & ~a.value == 0:
            return _resize(b, width)
    elif op in ("or", "xor", "add"):
        a, b = coerced
        if a.pbits == 0:
            return _resize(b, width)
        if b.pbits == 0:
            return _resize(a, width)
    elif op in ("sub", "shl", "shr"):
        a, b = coerced
        if b.pbits == 0:
            return _resize(a, width)
    return SymExpr(op, coerced, width)


def bool_not(e: SymExpr) -> SymExpr:
    """Negate a nonzero-means-true condition, flipping comparisons for clarity."""
    flip = {"eq": "ne", "ne": "eq", "ult": "uge", "uge": "ult",
            "ugt": "ule", "ule": "ugt"}
    if e.op in flip:
        return SymExpr(flip[e.op], e.args, e.width)
    if e.op == "const":
        return const(0 if e.value else 1, 1)
    return mk("eq", (e, 0), 1)


def is_symbolic(v) -> bool:
    """True if v is an expression that still mentions at least one variable."""
    return isinstance(v, SymExpr) and bool(v.vars())


def _walk(e: SymExpr, env: dict, name: str | None = None,
          column: range | None = None):
    """Post-order evaluation of e; unbound variables read 0.

    With a `column`, the variable `name` is bound to all of its values at
    once: every node that mentions it evaluates, pointwise through its
    `OPS` rule in one `map`, to a list with one value per point of the
    column, and every other node to one int."""
    memo: dict[int, object] = {}
    for node in _postorder((e,)):
        op, mask = node.op, (1 << node.width) - 1
        if op == "const":
            v = node.args[0]
        elif op == "var":
            v = ([x & mask for x in column] if node.args[0] == name
                 else env.get(node.args[0], 0) & mask)
        else:
            vals = [memo[id(a)] for a in node.args]
            if name in node._vars:
                v = list(map(OPS[op], repeat(mask), zip(*(
                    x if isinstance(x, list) else repeat(x) for x in vals))))
            else:
                v = OPS[op](mask, vals)
        memo[id(node)] = v
    return memo[id(e)]


def eval_expr(e: SymExpr, env: dict) -> int:
    """Evaluate under a full assignment; unbound variables read 0."""
    return _walk(e, env)


# ---------------------------------------------------------------------------
# Path conditions
# ---------------------------------------------------------------------------

class PathCondition:
    """Ordered conjunction of constraints with provenance (site, note).

    `entries` keeps every appended constraint, repeats included, with its
    provenance. A polling loop appends the same constraint again on every
    pass, so the set of distinct constraints, in first-seen order, is kept
    beside it; `exprs()` hands only those to the solver."""

    __slots__ = ("entries", "_distinct")

    def __init__(self):
        self.entries: list[tuple[SymExpr, int, str]] = []
        self._distinct: dict[SymExpr, None] = {}

    def copy(self) -> "PathCondition":
        c = PathCondition.__new__(PathCondition)
        c.entries = list(self.entries)
        c._distinct = self._distinct.copy()
        return c

    def append(self, expr: SymExpr, site: int, note: str):
        if expr.op == "const" and expr.value:
            return  # constant-true adds no information
        self.entries.append((expr, site, note))
        self._distinct[expr] = None

    def exprs(self) -> list[SymExpr]:
        """The distinct constraints, in the order first appended."""
        return list(self._distinct)

    def holds(self, expr: SymExpr) -> bool:
        """True if expr is one of the path's constraints."""
        return expr in self._distinct

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# ---------------------------------------------------------------------------
# Satisfiability
# ---------------------------------------------------------------------------

class SolverTimeout(Exception):
    pass


class Unsat(Exception):
    pass


NOT_UNIQUE = object()


def split_independent(exprs: list[SymExpr]) -> list[list[SymExpr]]:
    """Partition constraints into connected components over shared variables."""
    parent: dict[str, str] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in exprs:
        vs = sorted(e.vars())
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[ra] = rb
    groups: dict[str, list[SymExpr]] = {}
    for e in exprs:
        if e.vars():
            groups.setdefault(find(min(e.vars())), []).append(e)
    out = [grp for _, grp in sorted(groups.items())]
    free = [e for e in exprs if not e.vars()]
    return out + [free] if free else out


def _bit_column(width: int, bit: int) -> int:
    """The bitmask of the width-bit values that have `bit` set: a run of
    2^bit ones above 2^bit zeros, repeated every 2^(bit+1) values."""
    half = 1 << bit
    run = ((1 << half) - 1) << half
    return run * (((1 << (1 << width)) - 1) // ((1 << (half << 1)) - 1))


def _closed_domain(e: SymExpr, name: str, width: int) -> int | None:
    """The domain of `name` in e when e is `eq`/`ne` of a constant and
    either the variable or `and(variable, constant)`, either operand order:
    the values x with x & m == c, the intersection of one bit column per
    bit of m, or their complement. None for every other shape."""
    if e.op != "eq" and e.op != "ne":
        return None
    a, b = e.args
    if a.op == "const":
        a, b = b, a
    if b.op != "const":
        return None
    if a.op == "and":
        x, m = a.args
        if x.op == "const":
            x, m = m, x
        if m.op != "const":
            return None
        m = m.value
    else:
        x, m = a, (1 << width) - 1
    if x.op != "var" or x.args[0] != name or x.width != width:
        return None
    c = b.value
    full = (1 << (1 << width)) - 1
    if c & ~m:
        mask = 0  # c sets a bit that and(x, m) never does
    else:
        mask = full
        for bit in range(width):
            if m >> bit & 1:
                column = _bit_column(width, bit)
                mask &= column if c >> bit & 1 else full ^ column
    return mask if e.op == "eq" else full ^ mask


def _column_domain(e: SymExpr, name: str, width: int) -> int:
    """The domain of `name` in e, enumerated in one walk of e over all
    2^width values: bit x of the mask is set when e holds at x."""
    column = _walk(e, {}, name, range(1 << width))
    return int("".join("1" if v else "0" for v in reversed(column)), 2)


def _domain(e: SymExpr, name: str, width: int, deadline: float,
            domains: dict, fresh: dict) -> int:
    """Bitmask of the values of `name` that satisfy the single-variable
    constraint e, looked up in the stored table, then in this query's new
    entries, else computed: in closed form for the shapes
    `_closed_domain` knows, by the column walk for the rest. May raise
    SolverTimeout before computing."""
    key = (e, name, width)
    mask = domains.get(key, fresh.get(key))
    if mask is None:
        if time.monotonic() > deadline:
            raise SolverTimeout()
        mask = _closed_domain(e, name, width)
        if mask is None:
            mask = _column_domain(e, name, width)
        fresh[key] = mask
    return mask


_CLOCK_NODES = 512 * 8


def _solve_component(exprs: list[SymExpr], deadline: float, domains: dict,
                     fresh: dict) -> dict | None:
    """Exact model search for one component; None if unsat. May raise
    SolverTimeout. Domains are read from `domains` and `fresh`; new ones are
    added to `fresh`."""
    widths = {n.args[0]: n.width for n in _postorder(exprs) if n.op == "var"}
    names = sorted(widths)
    # Domain pruning with single-variable constraints.
    masks: dict[str, int] = {}
    multi: list[SymExpr] = []
    singles: dict[str, list[SymExpr]] = {n: [] for n in names}
    for e in exprs:
        vs = e.vars()
        if not vs:
            if eval_expr(e, {}) == 0:
                return None
        elif len(vs) == 1:
            singles[next(iter(vs))].append(e)
        else:
            multi.append(e)
    for n in names:
        width = widths[n]
        dom = (1 << (1 << width)) - 1
        for e in singles[n]:
            dom &= _domain(e, n, width, deadline, domains, fresh)
            if not dom:
                return None
        masks[n] = dom
    if not multi:
        # the least value of each domain
        return {n: (m & -m).bit_length() - 1 for n, m in masks.items()}
    domains_of = {n: [x for x in range(1 << widths[n]) if masks[n] >> x & 1]
                  for n in names}
    # Backtracking over remaining constraints; most-constrained variable first.
    order = sorted(names, key=lambda n: len(domains_of[n]))
    by_last: list[list[SymExpr]] = [[] for _ in order]
    pos = {n: i for i, n in enumerate(order)}
    for e in multi:
        by_last[max(pos[v] for v in e.vars())].append(e)

    # a check at level i evaluates at most cost[i] nodes, and the clock is
    # read once per _CLOCK_NODES of them: no more often than every 512
    # checks of up to 8 nodes, and at every check of a deep constraint
    cost = [sum(1 for e in es for _ in _postorder((e,))) for es in by_last]
    env: dict[str, int] = {}
    work = 0

    def backtrack(i: int):
        nonlocal work
        if i == len(order):
            return True
        name = order[i]
        for v in domains_of[name]:
            work += cost[i]
            if work > _CLOCK_NODES:
                work = 0
                if time.monotonic() > deadline:
                    raise SolverTimeout()
            env[name] = v
            if all(eval_expr(e, env) != 0 for e in by_last[i]):
                if backtrack(i + 1):
                    return True
        env.pop(name, None)
        return False

    if backtrack(0):
        return dict(env)
    return None


class SatResult:
    __slots__ = ("sat", "model", "timed_out")

    def __init__(self, sat: bool, model: dict | None, timed_out: bool = False):
        self.sat = sat
        self.model = model
        self.timed_out = timed_out

    def __bool__(self):
        return self.sat


_MISS = object()


def check(exprs, timeout: float = 5.0, cache: Solver | None = None,
          deadline: float | None = None) -> SatResult:
    """Decide satisfiability of a conjunction. Timeout biases to satisfiable.

    The search stops at `timeout` s from now or at the absolute `deadline`,
    whichever is first. With `cache`, domains and component results are read
    from and stored in that Solver's tables. A timed-out query stores nothing.
    """
    exprs = [e for e in exprs if isinstance(e, SymExpr)]
    limit = time.monotonic() + timeout
    if deadline is not None and deadline < limit:
        limit = deadline
    domains = cache.domains if cache is not None else {}
    components = cache.components if cache is not None else {}
    fresh_domains: dict = {}
    fresh_components: dict = {}
    model: dict[str, int] = {}
    sat = True
    try:
        for comp in split_independent(exprs):
            key = tuple(comp)
            m = components.get(key, _MISS)
            if m is _MISS:
                m = fresh_components[key] = _solve_component(
                    comp, limit, domains, fresh_domains)
            if m is None:
                sat = False
                break
            model.update(m)
    except SolverTimeout:
        return SatResult(True, None, timed_out=True)
    domains.update(fresh_domains)
    components.update(fresh_components)
    return SatResult(True, model) if sat else SatResult(False, None)


class Solver:
    """Satisfiability interface over PathConditions.

    Collects timeout diagnostics rather than failing: a timed-out query
    over-approximates (path kept alive / value treated as not-unique).
    Every query goes through `check` with this Solver's `deadline` and
    tables: `domains` maps (constraint, variable, width) to the bitmask of
    satisfying values, and `components` maps a component's constraint tuple
    to its model, or None when unsat. `values` is the one loop that
    enumerates the feasible values of an expression; `query` is a single
    satisfiability query.
    """

    def __init__(self, timeout: float = 5.0, deadline: float | None = None,
                 memo=None):
        self.timeout = timeout
        self.deadline = deadline
        self.diagnostics: list[str] = []
        # the tables of `memo` (any object with `domains` and `components`
        # dicts), shared with every other Solver given it; else private
        self.domains: dict[tuple, int] = {} if memo is None else memo.domains
        self.components: dict[tuple, dict | None] = (
            {} if memo is None else memo.components)

    def _check(self, exprs: list) -> SatResult:
        return check(exprs, self.timeout, cache=self, deadline=self.deadline)

    def _exprs(self, pc) -> list[SymExpr]:
        return pc.exprs() if isinstance(pc, PathCondition) else list(pc)

    def query(self, pc, extra=()) -> SatResult:
        """Satisfiability of pc and extra, with a model when satisfiable; a
        timeout is reported and answers satisfiable with model None."""
        res = self._check(self._exprs(pc) + list(extra))
        if res.timed_out:
            self.diagnostics.append("solver timeout: assumed satisfiable")
        return res

    def model(self, pc) -> dict:
        res = self._check(self._exprs(pc))
        if not res.sat:
            raise Unsat()
        if res.model is None:
            self.diagnostics.append("solver timeout: empty model")
            return {}
        return res.model

    def _other_value(self, base: list, expr: SymExpr, v: int) -> SatResult:
        """The query for a value of expr other than v under base."""
        return self._check(base + [mk("ne", (expr, v), 1)])

    def values(self, pc, expr: SymExpr, limit: int, model: dict | None = None
               ) -> tuple[list[int], bool, bool]:
        """Up to `limit` distinct feasible values of expr under pc: take a
        model, exclude its value, ask again. Returns (values, more,
        timed_out). Once `limit` values are found, one more query sets
        `more`: another value is feasible, or that query timed out.
        `timed_out` says some query timed out; one before the limit ends the
        list early.

        With a `model` of pc, a `const` expr is its own answer with no
        query, since the model proves pc feasible. Otherwise one query first
        asks for a value other than the model's. When there is none, that
        value is the answer; otherwise the enumeration runs as without a
        model, so the values come in the same order, at the cost of that one
        query."""
        if model is not None and expr.op == "const":
            return [expr.value], False, False
        base = self._exprs(pc)
        timed_out = False
        if model is not None:
            v = eval_expr(expr, model)
            res = self._other_value(base, expr, v)
            if not res.sat:
                return [v], False, False
            timed_out = res.timed_out
        vals: list[int] = []
        extra: list[SymExpr] = []
        while len(vals) < limit:
            res = self._check(base + extra)
            if res.timed_out or not res.sat:
                return vals, False, timed_out or res.timed_out
            v = eval_expr(expr, res.model)
            vals.append(v)
            extra.append(mk("ne", (expr, v), 1))
        res = self._check(base + extra)
        return vals, res.sat, timed_out or res.timed_out

    def is_constant(self, pc, expr, model: dict | None = None):
        """The unique value of expr under pc, or NOT_UNIQUE. With a `model`
        of pc, one query decides it."""
        if isinstance(expr, int):
            return expr
        if expr.is_const():
            return expr.value
        if model is not None:
            v = eval_expr(expr, model)
            res = self._other_value(self._exprs(pc), expr, v)
            more, timed_out, vals = res.sat, res.timed_out, [v]
        else:
            vals, more, timed_out = self.values(pc, expr, 1)
        if timed_out:
            self.diagnostics.append("solver timeout in is_constant: not-unique")
            return NOT_UNIQUE
        if not vals:
            raise Unsat()
        return NOT_UNIQUE if more else vals[0]


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

_INFIX = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
          "xor": "^", "shl": "<<", "shr": ">>", "eq": "==", "ne": "!=",
          "ult": "<", "ugt": ">", "ule": "<=", "uge": ">="}


def to_text(e) -> str:
    """e's text, built in post-order. A node's text is dropped once its last
    user has read it, so a deep chain holds only the texts still due."""
    if isinstance(e, int):
        return str(e)
    order = list(_postorder((e,)))
    last = {id(a): i for i, n in enumerate(order) for a in n.args}
    text: dict[int, str] = {}
    for i, n in enumerate(order):
        if n.op == "const":
            t = f"0x{n.args[0]:x}" if n.args[0] > 9 else str(n.args[0])
        elif n.op == "var":
            t = n.args[0]
        elif n.op in _INFIX and len(n.args) == 2:
            t = f"({text[id(n.args[0])]} {_INFIX[n.op]} {text[id(n.args[1])]})"
        else:
            t = f"{n.op}({', '.join(text[id(a)] for a in n.args)})"
        for a in n.args:
            if last[id(a)] == i:
                text.pop(id(a), None)
        text[id(n)] = t
    return text[id(e)]
