"""Symbolic executor over the lifted IR.

States are self-contained: one byte-granular store per memory region
(`mem[Region]`), a path condition, coverage/interrupt bookkeeping. The PC
is always concrete; symbolic load/store addresses and indirect jump targets
are resolved by solver-bounded enumeration (forking one state per feasible
concrete value, up to a configurable fanout).

A byte reads its last write, else the policy's variable, else its reset
value. Every load and store of a block applies that rule inline in
`_exec_from`, the hot loop, and calls its hooks there; a forked access
re-enters that loop at the access with its address pinned. `Executor._read`
and `Executor._write` apply the rule only for interrupt entry (IE, SP and
the return-address push). The policy makes a byte's variable at its first
read, so a whole symbolic region (`--policy full`) costs only the bytes a
run reads.

Each state carries a model of its path: an assignment that satisfies it,
`{}` for the empty path, or None when unknown (after a solver timeout, or
when a fork's value is not the model's). A symbolic branch whose condition
or negation the path already holds takes that side with no evaluation and
no query: a polling loop tests the same byte on every pass. Any other
symbolic branch evaluates the model once, and the side it satisfies needs
no query; the model's value of a symbolic address is checked for
uniqueness with one query. With no model both fall back to querying each
side, or enumerating, from scratch.

`_exec_from` runs a block's prepared form (`prepare_block`), made once from
its lifted statements in one pass: a tuple per step over a per-block value
list, whose constants are preloaded and whose Assigns have their
`solver.OPS` rule and mask bound. A load of a constant address that the
block already read or wrote becomes a step that only calls the load hooks
with the byte a slot holds (a Reread); an Assign over constants is folded,
and an Assign of the same operator over the same slots as an earlier one
reuses its slot.
Every other step runs where its statement stood, so every listener still
sees every load and store, with the same site, state, region, address and
value, and may stop the run at any of them. A symbolic Assign builds its
expression through `Executor._mk`, which memoises `mk` per exploration, as
do address and interrupt-enable constraints, and the table is freed with
the run. Expressions are interned (see `solver`), so equal expressions are
one node across explorations, and the memo and every expression-keyed
table look them up by identity.

The pure work on an image is shared by every exploration given the same
`ImageMemo`: its lifted blocks, their prepared forms and the solver's
domain and component tables. An analysis makes one memo per image and
drops it when it returns; `execute` without one makes a private memo, so
nothing outlives the run. Each exploration still has its own `Solver`
diagnostics, RNG and `mk` memo, so sharing changes no result.

The next state to run is chosen by one RNG draw per pick (`select_next`):
a uniform-random pending state or the one that most recently grew
coverage, half the time each. An exploration given a distance map (pc ->
fewest instructions to a target; Query 1 under the discovered-set policy)
is directed: while a pending state has a distance, half the draws take the
nearest one, from a second heap of the `Frontier`, and the other half
split as before. Without distances the draws are the undirected ones.

Interrupts are scheduled between blocks: an enabled, discovered ISR whose
cooldown has expired forks a state that enters the handler (hardware-style
return-address push, no nesting). With no `isr_map`, the handlers are read
off the memo's lifted program (`lifter.discover_isrs`), as is each feasible
indirect-jump target; one that does not lift gets a diagnostic, no child.
A firing draws a cooldown for the source, in blocks of the state's own
path, for the handler's state and the continuation alike, from a seeded
RNG, so whole explorations replay deterministically from the config seed.
A state counts the blocks its path has run and keeps, per source, the
count from which that source may fire again; `_schedule_interrupts` is
the one place that reads or draws a cooldown.
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass

from . import isa, lifter, machine, solver
from .lifter import (Assign, Boundary, CJump, Jump, Load, Region, RetMark,
                     Store, Tmp)
from .solver import OPS, SymExpr, eval_expr, mk

_CODE = Region.CODE  # read by the step loop without an enum lookup

# Reset values of unwritten bytes the policy leaves concrete; every byte not
# listed reads 0.
_RESET = {(Region.SFR, machine.SP): machine.RESET_SP}


class SymbolicPolicy:
    """The symbolic bytes of an exploration: explicit `(Region, addr)`
    locations and whole regions. Every other byte reads its reset value.

    A policy is a value; nothing changes what it covers, but for
    discovery's run policy (`queries._CheckLoads`). That one adds a byte
    only where no read but the current one has taken the byte's initial
    value, and that read then takes its variable: the same as covering it
    from the start. `lookup` makes a covered byte's variable at its first
    read and memoises it, so a whole region costs nothing until its bytes
    are read."""

    def __init__(self, locations=(), regions=()):
        self.locations = frozenset((Region(r), a) for r, a in locations)
        self.regions = frozenset(Region(r) for r in regions)
        self._vars: dict[tuple[Region, int], SymExpr] = {}

    @staticmethod
    def var_name(region: Region, addr: int) -> str:
        return f"{Region(region).name.lower()}_{addr:04x}"

    def lookup(self, region: Region, addr: int):
        key = (region, addr)
        v = self._vars.get(key)
        if v is None and (region in self.regions or key in self.locations):
            v = self._vars[key] = solver.var(self.var_name(region, addr), 8)
        return v

    @staticmethod
    def full() -> "SymbolicPolicy":
        """All IRAM and XRAM bytes symbolic (SFRs stay concrete)."""
        return SymbolicPolicy(regions=(Region.IRAM, Region.XRAM))


# The kinds of a prepared step. A step is a tuple whose first item is its
# kind; every other item is a slot of the block's value list or a constant.
class Site:
    """(Site, addr): the instruction at addr starts (a Boundary)."""


class Compute:
    """(Compute, dst, rule, mask, op, width, a, b): slot dst is `op` over
    slots a and b; rule is `OPS[op]`, mask the width's."""


class ComputeN:
    """(ComputeN, dst, rule, mask, op, width, args): Compute over the slots
    of args, one or three of them."""


class Read:
    """(Read, region, addr, dst): slot dst is the byte at slot addr."""


class Write:
    """(Write, region, addr, src): the byte at slot addr is slot src."""


class Reread:
    """(Reread, region, addr, src): a forwarded load of constant addr, whose
    byte slot src holds; the load hooks see it."""


class Branch:
    """(Branch, cond, taken, fall): a CJump on slot cond."""


class Goto:
    """(Goto, target, reti): a Jump or RetMark to slot target; reti is True
    for a RETI."""


class PreparedBlock:
    """A lifted block in the form `Executor._exec_from` runs: its steps, and
    `init`, the start of its value list. Each constant has a preloaded slot,
    and each value a step makes a slot that is None until the step runs."""
    __slots__ = ("addr", "steps", "init", "instr_addrs")

    def __init__(self, addr, steps, init, instr_addrs):
        self.addr = addr
        self.steps = steps
        self.init = init
        self.instr_addrs = instr_addrs


def prepare_block(blk) -> PreparedBlock:
    """The prepared form of blk, made in one pass over its statements.
    A Load of a constant address that an earlier Load or Store of the block
    read or wrote becomes a Reread of the slot that holds that byte; a Store
    to a computed address may write any byte of its region, so it forgets
    the block's bytes there. An Assign over constants is folded into a
    constant; an Assign of the same operator over the same slots as an
    earlier one reuses its slot. Every operand is a slot, and every
    Assign's rule is bound. A step runs exactly where its statement stood,
    so the listeners see every load and store as before."""
    init: list = []
    consts: dict[int, int] = {}          # constant -> its slot
    slot: dict[int, int] = {}            # Tmp index -> slot
    made: dict[tuple, int] = {}          # (op, slots, width) -> slot
    known: dict[tuple, int] = {}         # (region, addr) -> slot of its byte
    steps: list[tuple] = []
    for st in blk.stmts:
        cls = st.__class__
        if cls is Assign:
            args = []
            folded = True
            for a in st.args:
                if type(a) is Tmp:
                    k = slot[a.i]
                else:
                    k = consts.get(a)
                    if k is None:
                        k = consts[a] = len(init)
                        init.append(a)
                if init[k] is None:
                    folded = False
                args.append(k)
            args = tuple(args)
            op, width = st.op, st.width
            mask = (1 << width) - 1
            if folded:
                value = OPS[op](mask, [init[k] for k in args])
                k = consts.get(value)
                if k is None:
                    k = consts[value] = len(init)
                    init.append(value)
                slot[st.dst.i] = k
                continue
            key = (op, args, width)
            k = made.get(key)
            if k is not None:
                slot[st.dst.i] = k
                continue
            k = made[key] = slot[st.dst.i] = len(init)
            init.append(None)
            if len(args) == 2:
                steps.append((Compute, k, OPS[op], mask, op, width, *args))
            else:
                steps.append((ComputeN, k, OPS[op], mask, op, width, args))
        elif cls is Load:
            a = st.addr
            if type(a) is Tmp:
                steps.append((Read, st.region, slot[a.i], len(init)))
                slot[st.dst.i] = len(init)
                init.append(None)
                continue
            key = (st.region, a)
            k = known.get(key)
            if k is not None:
                slot[st.dst.i] = k
                steps.append((Reread, st.region, a, k))
                continue
            k = consts.get(a)
            if k is None:
                k = consts[a] = len(init)
                init.append(a)
            known[key] = slot[st.dst.i] = len(init)
            steps.append((Read, st.region, k, len(init)))
            init.append(None)
        elif cls is Store:
            a, v = st.addr, st.src
            if type(a) is Tmp:
                ka = slot[a.i]
            else:
                ka = consts.get(a)
                if ka is None:
                    ka = consts[a] = len(init)
                    init.append(a)
            if type(v) is Tmp:
                kv = slot[v.i]
            else:
                kv = consts.get(v)
                if kv is None:
                    kv = consts[v] = len(init)
                    init.append(v)
            steps.append((Write, st.region, ka, kv))
            if type(a) is Tmp:
                known = {key: k for key, k in known.items()
                         if key[0] != st.region}
            else:
                known[(st.region, a)] = kv
        elif cls is Boundary:
            steps.append((Site, st.addr))
        else:  # the terminator: CJump, Jump or RetMark
            a = st.cond if cls is CJump else st.target
            if type(a) is Tmp:
                k = slot[a.i]
            else:
                k = consts.get(a)
                if k is None:
                    k = consts[a] = len(init)
                    init.append(a)
            if cls is CJump:
                steps.append((Branch, k, st.taken, st.fall))
            elif cls is Jump:
                steps.append((Goto, k, False))
            elif cls is RetMark:
                steps.append((Goto, k, st.reti))
    return PreparedBlock(blk.addr, steps, init, blk.instr_addrs)


class ImageMemo:
    """The pure work on one image, shared by the explorations given this
    memo: the lifted program, each block's prepared form (made from
    `program.block` at its first run), and the `domains` and `components`
    tables of their Solvers (see solver.Solver). It lives as long as its
    holder."""

    def __init__(self, image: bytes):
        self.program = lifter.lift_program(image)
        self.prepared: dict[int, PreparedBlock] = {}
        self.domains: dict[tuple, int] = {}
        self.components: dict[tuple, dict | None] = {}

    def block(self, addr: int) -> PreparedBlock:
        pb = self.prepared.get(addr)
        if pb is None:
            pb = self.prepared[addr] = prepare_block(self.program.block(addr))
        return pb


@dataclass
class ExplorationConfig:
    max_states: int = 4096
    block_repeat_threshold: int = 256
    cooldown_min: int = 20
    cooldown_max: int = 100
    deadline: float | None = None       # absolute time.monotonic() value
    max_blocks: int = 250_000
    max_indirect_fanout: int = 16
    targets: frozenset = frozenset()
    seed: int = 0
    solver_timeout: float = 5.0


STOP_ALL = "stop-all"


class Listener:
    """Hooks on every load and store at a concrete address. Returning
    STOP_ALL ends the run; None lets the path go on. A load hook may
    instead return a value, which a load from memory then reads in place
    of the byte's (a forwarded load's value stays)."""

    def on_load(self, site, state, region, addr, value):
        return None

    def on_store(self, site, state, region, addr, value):
        return None


def _hooks(listeners, name: str) -> list:
    """The bound `name` hooks of the listeners that override Listener's."""
    default = getattr(Listener, name)
    return [getattr(ln, name) for ln in listeners
            if getattr(getattr(ln, name), "__func__", None) is not default]


class ExecState:
    __slots__ = ("pc", "mem", "path", "model", "stale", "blocks",
                 "ready_at", "active_isr", "isr_written",
                 "last_cover_seq", "sid", "terminated", "cur_site",
                 "cur_block")

    def __init__(self):
        self.pc = 0
        # written bytes, one dict per Region (CODE's stays empty)
        self.mem: list[dict[int, object]] = [{} for _ in Region]
        self.path = solver.PathCondition()
        self.model: dict | None = {}  # satisfies path; None if unknown
        self.stale: dict[int, int] = {}
        self.blocks = 0  # blocks this state's path has run
        # source -> the `blocks` count from which it may fire again
        self.ready_at: dict[str, int] = {}
        self.active_isr: str | None = None
        self.isr_written: set = set()
        self.last_cover_seq = 0
        self.sid = 0
        self.terminated: str | None = None
        self.cur_site = 0
        self.cur_block = 0

    def clone(self) -> "ExecState":
        c = ExecState.__new__(ExecState)
        c.pc = self.pc
        c.mem = [m.copy() for m in self.mem]
        c.path = self.path.copy()
        c.model = self.model
        c.stale = dict(self.stale)
        c.blocks = self.blocks
        c.ready_at = dict(self.ready_at)
        c.active_isr = self.active_isr
        c.isr_written = set(self.isr_written)
        c.last_cover_seq = self.last_cover_seq
        c.sid = self.sid
        c.terminated = None
        c.cur_site = self.cur_site
        c.cur_block = self.cur_block
        return c


@dataclass
class TargetHit:
    state: ExecState
    states_created: int
    coverage: int


@dataclass
class ExplorationResult:
    ended: list[ExecState]
    coverage: set[int]
    states_created: int
    blocks_executed: int
    reason: str
    diagnostics: list[str]
    target_hits: dict[int, TargetHit]
    wall_time: float
    solver: solver.Solver


class Frontier:
    """Pending states in the order they were added, with a heap on
    (-last_cover_seq, sid, push number) beside them; and, given a distance
    map `dist` (pc -> instructions to a target), a second heap on
    (dist[pc], sid, push number) over the states whose pc has a distance.

    The first heap's top is the first pending state, in list order, with the
    greatest (last_cover_seq, -sid); the second's is the nearest state, the
    least sid first on a tie. A state's keys do not change while it is
    pending. A state removed by one pick leaves its entries in the other
    heap behind; an entry counts only while its push number is the state's
    current one."""

    def __init__(self, states=(), dist: dict[int, int] | None = None):
        self.states: list[ExecState] = []
        self.dist = dist
        self._heap: list[tuple] = []
        self._near: list[tuple] = []
        self._live: dict[int, int] = {}  # id(state) -> its push number
        self._pushes = 0
        for s in states:
            self.push(s)

    def __len__(self):
        return len(self.states)

    def push(self, s: ExecState):
        n = self._pushes
        self._pushes += 1
        self.states.append(s)
        self._live[id(s)] = n
        heapq.heappush(self._heap, (-s.last_cover_seq, s.sid, n, s))
        if self.dist is not None:
            d = self.dist.get(s.pc)
            if d is not None:
                heapq.heappush(self._near, (d, s.sid, n, s))

    def _forget(self, s: ExecState):
        """Drop s's push number; a heap that stale entries have grown past
        twice the pending states is rebuilt from its live entries."""
        live = self._live
        del live[id(s)]
        cap = 2 * len(self.states) + 64
        if len(self._heap) > cap:
            self._heap = [e for e in self._heap if live.get(id(e[3])) == e[2]]
            heapq.heapify(self._heap)
        if len(self._near) > cap:
            self._near = [e for e in self._near if live.get(id(e[3])) == e[2]]
            heapq.heapify(self._near)

    def pop_at(self, i: int) -> ExecState:
        s = self.states.pop(i)
        self._forget(s)
        return s

    def pop_latest_cover(self) -> ExecState:
        while True:
            _, _, n, s = heapq.heappop(self._heap)
            if self._live.get(id(s)) == n:
                self.states.remove(s)
                self._forget(s)
                return s

    def has_nearest(self) -> bool:
        """Whether a pending state has a distance. Stale entries on top of
        the second heap are dropped."""
        near, live = self._near, self._live
        while near and live.get(id(near[0][3])) != near[0][2]:
            heapq.heappop(near)
        return bool(near)

    def pop_nearest(self) -> ExecState:
        """The pending state of least (distance, sid), after `has_nearest`
        said there is one."""
        s = heapq.heappop(self._near)[3]
        self.states.remove(s)
        self._forget(s)
        return s


def select_next(frontier: Frontier, rng: random.Random) -> ExecState:
    """Remove and return the next state, decided by one draw: an even split
    between a uniform-random choice and the state that most recently grew
    the global coverage set. When a pending state has a distance to a target
    (a directed frontier), the lower half of the draws takes the nearest
    one, and the upper half, stretched back to [0, 1), splits as before.
    Directing every pick would keep the search in polling loops near a
    target; without a distance, the picks and RNG draws are the undirected
    ones."""
    n = len(frontier.states)
    if n == 1:
        return frontier.pop_at(0)
    u = rng.random()
    if frontier.has_nearest():
        if u < 0.5:
            return frontier.pop_nearest()
        u = 2 * u - 1
    if u < 0.5:
        return frontier.pop_at(rng.randrange(n))
    return frontier.pop_latest_cover()


class Executor:
    def __init__(self, image: bytes, policy: SymbolicPolicy,
                 config: ExplorationConfig, listeners=(),
                 isr_map: dict[str, int] | None = None,
                 initial_constraints=(), memo: ImageMemo | None = None,
                 distances: dict[int, int] | None = None):
        self.initial_constraints = list(initial_constraints)
        self.distances = distances
        self.image = bytes(image)
        self.policy = policy
        self.config = config
        # the hooks each listener overrides, bound once
        self._on_load = _hooks(listeners, "on_load")
        self._on_store = _hooks(listeners, "on_store")
        if memo is None:
            memo = ImageMemo(self.image)
        elif memo.program.image != self.image:
            raise ValueError("the memo is of another image")
        self.memo = memo
        # Every query of this exploration goes through this Solver, whose
        # tables are the memo's.
        self.solver = solver.Solver(config.solver_timeout, config.deadline,
                                    memo)
        self.rng = random.Random(config.seed)
        self.isr_map = (lifter.discover_isrs(memo.program) if isr_map is None
                        else isr_map)
        self._sources = sorted(self.isr_map)
        # (op, operands, width) -> the expression mk built for them
        self._expr_memo: dict[tuple, SymExpr] = {}
        self.covered: set[int] = set()
        self.cover_seq = 0
        self.states_created = 0
        self.blocks_executed = 0
        self.diagnostics: list[str] = []
        self.ended: list[ExecState] = []
        self.target_hits: dict[int, TargetHit] = {}
        self.stop_reason: str | None = None
        self.t0 = 0.0

    # -- state memory ------------------------------------------------------

    def _read(self, s: ExecState, region: Region, addr: int):
        v = s.mem[region].get(addr)
        if v is None:
            v = self.policy.lookup(region, addr)
            if v is None:
                return _RESET.get((region, addr), 0)
        return v

    @staticmethod
    def _write(s: ExecState, region: Region, addr: int, value):
        s.mem[region][addr] = value
        if s.active_isr is not None:
            s.isr_written.add((region, addr))

    # -- helpers -----------------------------------------------------------

    def _fork(self, s: ExecState) -> ExecState:
        c = s.clone()
        self.states_created += 1
        c.sid = self.states_created
        return c

    def _terminate(self, s: ExecState, reason: str):
        s.terminated = reason
        self.ended.append(s)

    def _enumerate(self, s: ExecState, expr: SymExpr, bound: int,
                   what: str) -> list[int]:
        """Feasible concrete values of expr under the path, up to the fanout,
        that lie below bound."""
        limit = self.config.max_indirect_fanout
        vals, more, timed_out = self.solver.values(s.path, expr, limit,
                                                   s.model)
        if timed_out:
            self.diagnostics.append(f"solver timeout enumerating {what} "
                                    f"at 0x{s.cur_site:04x}")
        if more:
            self.diagnostics.append(
                f"{what} fanout over {limit} at 0x{s.cur_site:04x}; extra "
                f"targets dropped")
        inside = [v for v in vals if v < bound]
        if vals and not inside:
            self.diagnostics.append(
                f"symbolic {what} out of region at 0x{s.cur_site:04x} "
                f"(bound 0x{bound:x})")
        return inside

    def _mk(self, op: str, args: tuple, width: int) -> SymExpr:
        """mk, memoised for the exploration."""
        key = (op, args, width)
        e = self._expr_memo.get(key)
        if e is None:
            e = self._expr_memo[key] = mk(op, args, width)
        return e

    def _feasible(self, s: ExecState, expr: SymExpr):
        """(whether s's path allows expr, a model of both or None): s's own
        model when it satisfies expr, else one query's answer."""
        m = s.model
        if m is not None and eval_expr(expr, m):
            return True, m
        res = self.solver.query(s.path, (expr,))
        return res.sat, res.model

    def _pin(self, s: ExecState, expr: SymExpr, v: int,
             note: str) -> ExecState:
        """A fork of s whose path adds expr == v. It keeps s's model only
        when that model gives expr the value v."""
        child = self._fork(s)
        child.path.append(self._mk("eq", (expr, v), 1), s.cur_site, note)
        if child.model is not None and eval_expr(expr, child.model) != v:
            child.model = None
        return child

    def _bound(self, region: Region) -> int:
        """One past the last address of region."""
        return (len(self.image) if region == Region.CODE
                else lifter.REGION_SIZE[region])

    def _out_of_budget(self) -> bool:
        """Whether the run has used its states or passed its deadline. If
        so, `stop_reason` says which, and the state limit's diagnostic is
        added once per run."""
        cfg = self.config
        if self.states_created >= cfg.max_states:
            if self.stop_reason != "state-limit":
                self.diagnostics.append("out of state budget: partial result")
            self.stop_reason = "state-limit"
            return True
        if cfg.deadline is not None and time.monotonic() > cfg.deadline:
            self.stop_reason = "time-limit"
            return True
        return False

    def _same_child(self, s: ExecState, region: Region,
                    addr: SymExpr) -> int | None:
        """The value of a `const` address inside region, when s has a
        model. A fork there has one child, and it equals s: its pin folds to
        true and the model gives the address that value. So s becomes that
        child in place, with a new sid, and the access is a concrete one: a
        budget stops the run at its next fork or block. None sends the
        access to `_fork_access`: no model, or out of the region."""
        if addr.op != "const" or s.model is None:
            return None
        v = addr.args[0]
        if v >= self._bound(region):
            return None
        self.states_created += 1
        s.sid = self.states_created
        return v

    def _fork_access(self, s: ExecState, pb: PreparedBlock, i: int,
                     addr: SymExpr, vals: list) -> list[ExecState]:
        """Make the symbolic address of pb's Read or Write step i concrete:
        one child per feasible value in the region, each constrained to it
        and run by `_exec_from` from step i with that value as the address,
        so the access and its hooks happen there. A listener's stop verdict,
        at the access or later in the block, drops the remaining values.
        Out of budget (`_out_of_budget`), s ends unfinished; a fan-out
        already under way still runs each value it enumerated."""
        if self._out_of_budget():
            self._terminate(s, "unfinished")
            return []
        kind, region = pb.steps[i][:2]
        what = "load address" if kind is Read else "store address"
        choices = self._enumerate(s, addr, self._bound(region), what)
        out = []
        for v in choices:
            child = self._pin(s, addr, v, "mem-index")
            out.extend(self._exec_from(child, pb, i, list(vals), v))
            if self.stop_reason == "listener-stop":
                break
        if not choices:
            self._terminate(s, "mem-index-out-of-region")
        return out

    def _branch(self, s: ExecState, cond: SymExpr, taken: int,
                fall: int) -> list[ExecState]:
        """A CJump on a symbolic condition: each side the path allows goes
        on, the taken side in a fork. When s has a model and its path holds
        cond or its negation, s takes that side with no evaluation and no
        query: the model satisfies the path, and the other side contradicts
        it. Otherwise the model is evaluated once, and a side it satisfies
        needs no query."""
        site = s.cur_site
        neg = solver.bool_not(cond)
        m = s.model
        if m is not None and s.path.holds(cond):
            t_ok, t_model, f_ok = True, m, False
        elif m is not None and s.path.holds(neg):
            t_ok, f_ok, f_model = False, True, m
        else:
            by_model = None if m is None else eval_expr(cond, m) != 0
            if by_model:
                t_ok, t_model = True, m
            else:
                res = self.solver.query(s.path, (cond,))
                t_ok, t_model = res.sat, res.model
            if by_model is False:
                f_ok, f_model = True, m
            else:
                res = self.solver.query(s.path, (neg,))
                f_ok, f_model = res.sat, res.model
        if t_ok and f_ok:
            child = self._fork(s)
            child.path.append(cond, site, "taken")
            child.model = t_model
            child.pc = taken
            s.path.append(neg, site, "fall")
            s.model = f_model
            s.pc = fall
            return [s, child]
        if t_ok:
            s.path.append(cond, site, "taken")
            s.model = t_model
            s.pc = taken
            return [s]
        if f_ok:
            s.path.append(neg, site, "fall")
            s.model = f_model
            s.pc = fall
            return [s]
        self._terminate(s, "infeasible")
        return []

    def _indirect(self, s: ExecState, target: SymExpr,
                  reti: bool) -> list[ExecState]:
        """A jump to a symbolic target: one child per feasible target in the
        image whose block lifts."""
        choices = self._enumerate(s, target, len(self.image), "jump target")
        out = []
        for v in choices:
            try:
                self.memo.program.block(v)  # the lift the child runs
            except isa.IsaError:
                self.diagnostics.append(
                    f"indirect target 0x{v:04x} undecodable "
                    f"(site 0x{s.cur_site:04x})")
                continue
            child = self._pin(s, target, v, "indirect-target")
            if reti:
                child.active_isr = None
            child.pc = v
            out.append(child)
        if not choices:
            self._terminate(s, "mem-index-out-of-region")
        elif not out:
            self._terminate(s, "indirect-undecodable")
        return out

    # -- interrupts --------------------------------------------------------

    def _schedule_interrupts(self, s: ExecState) -> list[ExecState]:
        """Fork ISR-entry states for every eligible source.

        Eligible: handler discovered, no ISR frame already active (nesting is
        unsupported), cooldown expired (`s.ready_at[source] <= s.blocks`),
        and the IE predicate (EA and the source bit) satisfiable under the
        path condition. The continuation also redraws the cooldown so a
        pending source does not fork at every block boundary.
        """
        if s.active_isr is not None:
            return []
        ready_at, blocks = s.ready_at, s.blocks
        ready = [src for src in self._sources
                 if ready_at.get(src, 0) <= blocks]
        if not ready:
            return []
        cfg = self.config
        ie = self._read(s, Region.SFR, machine.IE)
        forks: list[ExecState] = []
        for source in ready:
            mask = machine.ie_mask(source)
            pred = None
            if type(ie) is int:
                if ie & mask != mask:
                    continue
            else:
                masked = self._mk("and", (ie, mask), 8)
                pred = self._mk("eq", (masked, mask), 1)
                ok, model = self._feasible(s, pred)
                if not ok:
                    continue
            sp = self._read(s, Region.SFR, machine.SP)
            if type(sp) is not int:
                continue  # symbolic stack pointer: cannot model the hardware push
            child = self._fork(s)
            if pred is not None:
                child.path.append(pred, s.pc, f"isr-enable:{source}")
                child.model = model
            child.active_isr = source
            self._write(child, Region.IRAM, (sp + 1) & 0xFF, s.pc & 0xFF)
            self._write(child, Region.IRAM, (sp + 2) & 0xFF, s.pc >> 8)
            self._write(child, Region.SFR, machine.SP, (sp + 2) & 0xFF)
            child.pc = self.isr_map[source]
            child.ready_at[source] = blocks + self.rng.randint(
                cfg.cooldown_min, cfg.cooldown_max)
            ready_at[source] = blocks + self.rng.randint(cfg.cooldown_min,
                                                         cfg.cooldown_max)
            forks.append(child)
        return forks

    # -- block execution ---------------------------------------------------

    def _exec_from(self, s: ExecState, pb: PreparedBlock, i: int,
                   vals: list, at: int | None = None) -> list[ExecState]:
        """Run pb's steps from i; returns continuation states (PC advanced).

        Every Read and Write runs here, and calls its hooks here. One at a
        symbolic address takes `at` when it is the step i that a fork
        started from (`_fork_access` enumerated that value), else runs in
        place (`_same_child`), else forks. A Reread calls its load hooks
        only, and keeps its value whatever they return. The kinds are
        tested in the order of how often they run."""
        steps = pb.steps
        mem = s.mem
        image = self.image
        lookup = self.policy.lookup
        on_load, on_store = self._on_load, self._on_store
        targets = self.config.targets
        mk_memo = self._mk
        while True:
            st = steps[i]
            i += 1
            cls = st[0]
            if cls is Site:
                addr = st[1]
                s.cur_site = addr
                if addr in targets and addr not in self.target_hits:
                    self.target_hits[addr] = TargetHit(
                        s, self.states_created, len(self.covered))
                    self._terminate(s, f"target:0x{addr:04x}")
                    return []
                continue
            elif cls is Write:
                _, region, a, k = st
                addr = vals[a]
                if type(addr) is not int:
                    v = at if at is not None else self._same_child(
                        s, region, addr)
                    if v is None:
                        return self._fork_access(s, pb, i - 1, addr, vals)
                    addr, at = v, None
                if region == _CODE:
                    raise AssertionError("store to CODE")
                value = vals[k]
                mem[region][addr] = value
                if s.active_isr is not None:
                    s.isr_written.add((region, addr))
                hooks = on_store
            elif cls is Compute:
                _, d, rule, mask, op, width, a, b = st
                x = vals[a]
                y = vals[b]
                if type(x) is int and type(y) is int:
                    vals[d] = rule(mask, (x, y))
                else:
                    vals[d] = mk_memo(op, (x, y), width)
                continue
            elif cls is Reread:
                _, region, addr, k = st
                value = vals[k]
                hooks = on_load
            elif cls is Read:
                _, region, a, d = st
                addr = vals[a]
                if type(addr) is not int:
                    v = at if at is not None else self._same_child(
                        s, region, addr)
                    if v is None:
                        return self._fork_access(s, pb, i - 1, addr, vals)
                    addr, at = v, None
                if region == _CODE:
                    value = image[addr] if addr < len(image) else 0
                else:
                    value = mem[region].get(addr)
                    if value is None:
                        value = lookup(region, addr)
                        if value is None:
                            value = _RESET.get((region, addr), 0)
                vals[d] = value
                hooks = on_load
            elif cls is Branch:
                cond = vals[st[1]]
                if type(cond) is not int:
                    return self._branch(s, cond, st[2], st[3])
                s.pc = st[2] if cond else st[3]
                return [s]
            elif cls is Goto:
                target = vals[st[1]]
                if type(target) is not int:
                    return self._indirect(s, target, st[2])
                if st[2]:
                    s.active_isr = None
                s.pc = target & 0xFFFF
                return [s]
            elif cls is ComputeN:
                _, d, rule, mask, op, width, args = st
                operands = tuple([vals[k] for k in args])
                for x in operands:
                    if type(x) is not int:
                        vals[d] = mk_memo(op, operands, width)
                        break
                else:
                    vals[d] = rule(mask, operands)
                continue
            # the hooks of the Read, Write or Reread st
            if hooks:
                stop = False
                for cb in hooks:
                    got = cb(s.cur_site, s, region, addr, value)
                    if got == STOP_ALL:
                        stop = True
                    elif got is not None and cls is Read:
                        vals[st[3]] = value = got  # the byte's new value
                if stop:
                    self.stop_reason = "listener-stop"
                    self._terminate(s, "listener-stop")
                    return []

    def _run_block(self, s: ExecState) -> list[ExecState]:
        try:
            pb = self.memo.block(s.pc)
        except isa.IsaError as e:
            self._terminate(s, f"decode-error:{e}")
            return []
        s.cur_block = pb.addr
        outs = self._exec_from(s, pb, 0, pb.init[:])
        self.blocks_executed += 1
        entry = pb.addr
        new_cover = not self.covered.issuperset(pb.instr_addrs)
        if new_cover:
            self.covered.update(pb.instr_addrs)
            self.cover_seq += 1
        threshold = self.config.block_repeat_threshold
        survivors = []
        for o in outs:
            o.blocks += 1
            if new_cover:
                o.last_cover_seq = self.cover_seq
                o.stale.clear()
            else:
                n = o.stale.get(entry, 0) + 1
                o.stale[entry] = n
                if n > threshold:
                    self._terminate(o, "loop-pruned")
                    continue
            survivors.append(o)
        return survivors

    def run(self) -> ExplorationResult:
        self.t0 = time.monotonic()
        s0 = ExecState()
        for expr, note in self.initial_constraints:
            s0.path.append(expr, -1, note)
        if not all(eval_expr(e, {}) for e in s0.path.exprs()):
            s0.model = None
        self.states_created = 1
        frontier = Frontier([s0], self.distances)
        reason = "complete"
        cfg = self.config
        targets, max_blocks = cfg.targets, cfg.max_blocks
        target_hits = self.target_hits
        rng = self.rng
        image_end = len(self.image)
        while frontier and not self.stop_reason:
            if targets and target_hits.keys() >= targets:
                reason = "targets-hit"
                break
            if self._out_of_budget():
                break
            if self.blocks_executed >= max_blocks:
                reason = "block-limit"
                break
            s = select_next(frontier, rng)
            if s.pc >= image_end:
                self._terminate(s, "exit-image")
                continue
            for o in self._run_block(s):
                for f in self._schedule_interrupts(o):
                    frontier.push(f)
                frontier.push(o)
        if self.stop_reason:  # also when the stop ended the last state
            reason = self.stop_reason
        for s in frontier.states:
            self._terminate(s, "unfinished")
        return ExplorationResult(
            ended=self.ended,
            coverage=set(self.covered),
            states_created=self.states_created,
            blocks_executed=self.blocks_executed,
            reason=reason,
            diagnostics=list(self.diagnostics),
            target_hits=dict(self.target_hits),
            wall_time=time.monotonic() - self.t0,
            solver=self.solver,
        )


def execute(image: bytes, policy: SymbolicPolicy, config: ExplorationConfig,
            listeners=(), isr_map: dict[str, int] | None = None,
            initial_constraints=(), memo: ImageMemo | None = None,
            distances: dict[int, int] | None = None) -> ExplorationResult:
    """Run one exploration. Given `distances` (pc -> fewest instructions to
    a target), it is directed (`select_next`)."""
    return Executor(image, policy, config, listeners, isr_map,
                    initial_constraints, memo, distances).run()
