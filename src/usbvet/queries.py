"""The two semantic queries over a firmware image.

Query 1 ("what identity can the device claim?") is target reachability:
symbolically execute toward the code that serves descriptor data, and report
the path constraints that gate it. Given the image's static facts, its
search is directed by each site's static distance to a target. Query 2 ("is the endpoint data flow
consistent with that identity?") flags concrete data flowing into endpoint
buffers, either against predicted endpoint addresses or, when endpoints
cannot be predicted, by mixed symbolic/concrete writers to one address from
different blocks.

Both queries run under the `SymbolicPolicy` their caller passes in; no
query chooses a policy of its own. Query 2 explores under a policy with
its locations plus the delay counters, and its regions.

Discovery and both queries take the caller's `symexec.ImageMemo` and hand
it to every exploration they run, so the explorations of one analysis lift
each block once and share the solver's tables; discovery reads the
handlers' entries off its lifted program. Without one, discovery makes one
for its handlers, proofs and all its runs, `query2_unexpected` and
`query2_inconsistent` make one for their static pass and exploration, and
Query 1's exploration makes its own.

Supporting passes: iterative discovery of the memory bytes that must be
symbolic (interrupt handlers reading locations they never wrote are reading
the environment), and counter detection (delay counters guard injection
payloads and must be symbolic for the payload to be explored) over the
static facts of `usbstatic.prop_const_mem`. Discovery ends a handler's
iterations with a static proof where it can: one walk per handler gives
the locations its loads may read fresh, and an iteration is proved once
they are all symbolic. One run stands for the iterations that would
rerun it unchanged up to the location it found.

Preconditions are made by one function (`_precondition_exprs`, one table
from relation to constraint) and solved only in `check_preconditions`,
which Query 1 calls once its policy covers each precondition's byte.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from . import isa, machine, solver, usbstatic
from .lifter import (Assign, CJump, Jump, Load, Region, RetMark, Store, Tmp,
                     discover_isrs)
from .solver import NOT_UNIQUE, is_symbolic, mk
from .symexec import (ExplorationConfig, ImageMemo, Listener, STOP_ALL,
                      SymbolicPolicy, execute)

# USB constants surfaced when annotating path conditions. Names are hints for
# the analyst; values are from the USB 2.0 / HID class tables.
USB_CONSTANT_NAMES = {
    1: "DEVICE descriptor type",
    2: "CONFIGURATION descriptor type",
    3: "STRING descriptor type",
    4: "INTERFACE descriptor type",
    5: "ENDPOINT descriptor type",
    6: "GET_DESCRIPTOR request",
    9: "SET_CONFIGURATION request",
    33: "HID class descriptor type",
    34: "HID report descriptor type",
}

_CODE = Region.CODE  # read without an enum lookup


def _as_region(r) -> Region:
    if isinstance(r, str):
        return Region[r.upper()]
    return Region(r)


# ---------------------------------------------------------------------------
# Finding symbolic locations (per-ISR iterative discovery)
# ---------------------------------------------------------------------------

@dataclass
class IterationRecord:
    source: str
    iteration: int
    added: tuple | None          # (region name, addr) or None
    duration: float
    reason: str


@dataclass
class SymbolicLocationSet:
    locations: set              # {(Region, addr)}
    log: list[IterationRecord]

    def names(self) -> list[tuple[str, int]]:
        return sorted((Region(r).name, a) for r, a in self.locations)


def _reads_fresh(loc, known, written) -> bool:
    """Whether an in-handler load of loc reads environment data: loc is
    neither a CODE byte (an image constant), nor already symbolic (in
    `known`), nor written by the handler (in `written`). The one rule of a
    fresh read, for `_CheckLoads` and `_fresh_reads` alike."""
    return loc[0] != _CODE and loc not in known and loc not in written


class _CheckLoads(SymbolicPolicy, Listener):
    """A discovery run's policy, which covers `known`, and its listener,
    which adds to `known` each location an in-handler load reads fresh
    (`_reads_fresh`, with `ExecState.isr_written`): environment data.
    Alg. 3 stops the run at the first and reruns it cold with that location
    symbolic. A policy decides only reads of a byte's initial value, so if
    no read before this one took the location's, the rerun repeats this run
    up to here. Then, unless `stop(n)` holds for the n found, the run goes
    on as the rerun, and a load of the initial value reads the variable."""

    def __init__(self, known: set, stop):
        super().__init__()
        self.locations, self.stop = known, stop
        self.found: list = []  # (location, when found)
        self.initial_reads = Counter()  # of the bytes left concrete

    def lookup(self, region, addr):
        v = super().lookup(region, addr)
        if v is None:
            self.initial_reads[region, addr] += 1
        return v

    def on_load(self, site, state, region, addr, value):
        if state.active_isr is None:
            return None
        loc = (region, addr)
        if not _reads_fresh(loc, self.locations, state.isr_written):
            return None
        self.locations.add(loc)
        self.found.append((loc, time.monotonic()))
        initial = addr not in state.mem[region]
        if self.stop(len(self.found)) or self.initial_reads[loc] != initial:
            return STOP_ALL
        return self.lookup(region, addr) if initial else None


# The abstract value of `_fresh_reads` at the handler's stack: the entry
# SP plus k (mod 256) is ("sp", k). A location (Region.IRAM, ("sp", k)) is
# the IRAM byte there, a stack slot of the handler's frame.
def _sp(k: int) -> tuple:
    return ("sp", k & 0xFF)


def _abstract_op(op: str, args: list, width: int):
    """An IR operator over abstract values: its value when every operand is
    a constant, the entry SP plus a constant for an 8-bit add or sub of one,
    else None (unknown)."""
    if all(type(a) is int for a in args):
        return solver.eval_op(op, args, width)
    if (op in ("add", "sub") and width == 8 and type(args[0]) is tuple
            and type(args[1]) is int):
        k = args[0][1]
        return _sp(k + args[1] if op == "add" else k - args[1])
    return None


def _fresh_reads(program, entry: int, deadline) -> frozenset | None:
    """The set C of locations that a load of the handler at `entry` may
    read fresh (`_reads_fresh`, with nothing yet symbolic) on some path from
    entry to its RETI, whatever the state it is entered in; or None when it
    cannot tell. Once every location of C is symbolic, a discovery run of
    the handler can find no location. The walk never reads the symbolic
    set, so one walk answers every iteration of the handler's discovery.

    A forward must-analysis over `program`'s lifted blocks. Per block entry
    it keeps the locations every path has written since the handler's
    entry, and the values that every path gives some locations: constants,
    and stack addresses relative to the entry SP. Entry writes SP and the
    two return-address bytes below it, as `Executor._schedule_interrupts`
    does. A join keeps the locations written on both sides and the values
    equal on both. A store where the proof cannot tell what it overwrites
    forgets the values it may overwrite. Each path ends at RETI, at the
    image end or at an undecodable block, as an exploration's does.

    None when it cannot tell: a load of a non-CODE byte at an address it
    cannot resolve, an indirect jump, a RET to an unresolved address, or
    the deadline passed."""
    image_end = len(program.image)
    start_written = frozenset({(Region.SFR, machine.SP),
                               (Region.IRAM, _sp(0)), (Region.IRAM, _sp(-1))})
    at = {entry: (start_written, {(Region.SFR, machine.SP): _sp(0)})}
    fresh: set = set()
    work = [entry]
    while work:
        if deadline is not None and time.monotonic() > deadline:
            return None
        addr = work.pop()
        if addr >= image_end:
            continue
        try:
            blk = program.block(addr)
        except isa.IsaError:
            continue
        written, values = at[addr]
        written, values = set(written), dict(values)
        tmps: list = [None] * blk.n_temps

        def val(a):
            return tmps[a.i] if type(a) is Tmp else a

        succs: tuple = ()
        for st in blk.stmts:
            cls = st.__class__
            if cls is Assign:
                tmps[st.dst.i] = _abstract_op(
                    st.op, [val(a) for a in st.args], st.width)
            elif cls is Load:
                a = val(st.addr)
                if st.region == _CODE:
                    if type(a) is int:
                        tmps[st.dst.i] = (program.image[a] if a < image_end
                                          else 0)
                    continue
                if a is None:
                    return None
                loc = (st.region, a)
                if _reads_fresh(loc, (), written):
                    fresh.add(loc)
                tmps[st.dst.i] = values.get(loc)
            elif cls is Store:
                a, v = val(st.addr), val(st.src)
                # forget every value the store may overwrite: a stack slot
                # may be any absolute address, and the reverse
                values = {k: x for k, x in values.items()
                          if k[0] != st.region
                          or (a is not None and type(k[1]) is type(a)
                              and k[1] != a)}
                if a is not None:
                    written.add((st.region, a))
                    if v is not None:
                        values[(st.region, a)] = v
            elif cls is CJump:
                c = val(st.cond)
                succs = ((st.taken, st.fall) if c is None
                         else (st.taken if c else st.fall,))
            elif cls is Jump:
                if type(st.target) is Tmp:
                    return None  # JMP @A+DPTR
                succs = (st.target,)
            elif cls is RetMark and not st.reti:
                t = val(st.target)
                if type(t) is not int:
                    return None
                succs = (t & 0xFFFF,)
        for nxt in succs:
            old = at.get(nxt)
            if old is None:
                at[nxt] = (frozenset(written), values)
            else:
                w = old[0] & written
                kept = {k: x for k, x in old[1].items()
                        if k in values and values[k] == x}
                if w == old[0] and len(kept) == len(old[1]):
                    continue
                at[nxt] = (w, kept)
            if nxt not in work:
                work.append(nxt)
    return frozenset(fresh)


def find_symbolic_locations(image: bytes, tau: int = 16,
                            config: ExplorationConfig | None = None,
                            memo: ImageMemo | None = None
                            ) -> SymbolicLocationSet:
    """Alg. 3: up to tau iterations per ISR, each a run restricted to that
    interrupt source that ends at the first location it finds (reason
    `listener-stop`) and adds it. One run stands for several iterations
    where `_CheckLoads` finds it is their reruns. One static walk per
    handler (`_fresh_reads`) gives the locations its loads may read fresh;
    before the deadline, an iteration is `proved` once all of them are
    symbolic, and makes no run, since no run could find a location. A
    `proved` iteration, or a run that finds none, ends the handler's
    discovery; that run's reason says whether it explored everything
    (`complete`)."""
    base = config or ExplorationConfig()
    if memo is None:
        memo = ImageMemo(image)  # one memo serves the proof and every run
    isrs = discover_isrs(memo.program)
    # Tight budgets: each run only has to reach the handler's next fresh
    # read, not saturate the whole program.
    cfg = replace(base, max_states=min(base.max_states, 192),
                  block_repeat_threshold=min(base.block_repeat_threshold, 32),
                  cooldown_min=2, cooldown_max=8,
                  max_blocks=min(base.max_blocks, 4_000), targets=frozenset())
    locations: set = set()
    log: list[IterationRecord] = []
    for source in sorted(isrs):
        # the first iteration's duration includes the walk
        t0 = time.monotonic()
        fresh = _fresh_reads(memo.program, isrs[source], base.deadline)

        def proved() -> bool:
            return (fresh is not None and fresh <= locations
                    and (base.deadline is None
                         or time.monotonic() <= base.deadline))

        it = 1
        while it <= tau:
            # proved: a fixpoint, where no run of this handler can find a
            # location
            found, reason = [], "proved"
            if not proved():
                checker = _CheckLoads(locations, lambda n, left=tau - it + 1:
                                      n == left or proved())
                reason = execute(image, checker, cfg, listeners=[checker],
                                 isr_map={source: isrs[source]},
                                 memo=memo).reason
                found = checker.found
            for (region, addr), t in found:
                log.append(IterationRecord(source, it,
                                           (Region(region).name, addr),
                                           t - t0, "listener-stop"))
                it, t0 = it + 1, t
            if reason != "listener-stop":
                # a rerun would be identical, so this handler's discovery
                # ends (complete only if reason says so)
                log.append(IterationRecord(source, it, None,
                                           time.monotonic() - t0, reason))
                break
    return SymbolicLocationSet(locations, log)


# ---------------------------------------------------------------------------
# Preconditions
# ---------------------------------------------------------------------------

# Each relation's constraint on a byte's variable v and a value x (a bit
# number for bit-set and bit-clear).
_RELATION_EXPRS = {
    "==": lambda v, x: mk("eq", (v, x), 1),
    "!=": lambda v, x: mk("ne", (v, x), 1),
    "<": lambda v, x: mk("ult", (v, x), 1),
    ">": lambda v, x: mk("ugt", (v, x), 1),
    "bit-set": lambda v, x: mk("ne", (mk("and", (v, 1 << x), 8), 0), 1),
    "bit-clear": lambda v, x: mk("eq", (mk("and", (v, 1 << x), 8), 0), 1),
}
RELATIONS = tuple(_RELATION_EXPRS)


@dataclass(frozen=True)
class Precondition:
    region: object              # Region or name
    addr: int
    relation: str
    value: int


class PreconditionError(Exception):
    pass


class UnsatisfiablePreconditions(PreconditionError):
    pass


def _precondition_exprs(preconditions):
    """Each precondition's constraint (`_RELATION_EXPRS`), with its note. A
    byte's variable is named by region and address
    (`SymbolicPolicy.var_name`), the name every policy gives it."""
    out = []
    for p in preconditions:
        region = _as_region(p.region)
        relation = _RELATION_EXPRS.get(p.relation)
        if relation is None:
            raise PreconditionError(f"unknown relation {p.relation!r}")
        v = solver.var(SymbolicPolicy.var_name(region, p.addr), 8)
        note = (f"precondition {region.name}[0x{p.addr:04x}] "
                f"{p.relation} {p.value}")
        out.append((relation(v, p.value), note))
    return out


def check_preconditions(preconditions, config: ExplorationConfig):
    """The preconditions' constraints (`_precondition_exprs`), or
    UnsatisfiablePreconditions when their conjunction has no solution. A
    solver timeout counts as satisfiable. Preconditions are solved only here."""
    init = _precondition_exprs(preconditions)
    if init and not solver.check([e for e, _ in init], config.solver_timeout,
                                 deadline=config.deadline).sat:
        raise UnsatisfiablePreconditions(
            "unsatisfiable: " + "; ".join(note for _, note in init))
    return init


# ---------------------------------------------------------------------------
# Query 1: claimed identity (target reachability)
# ---------------------------------------------------------------------------

@dataclass
class UsbConstraintNote:
    location: str
    value: int
    meaning: str | None


@dataclass
class Query1Target:
    target: int
    reached: bool
    states_explored: int
    coverage_at_hit: int
    path: list[dict] = field(default_factory=list)
    witness: dict = field(default_factory=dict)
    usb_constraints: list[UsbConstraintNote] = field(default_factory=list)


@dataclass
class Query1Report:
    targets: dict[int, Query1Target]
    states_explored: int
    blocks_executed: int
    coverage: int
    reason: str
    diagnostics: list[str]
    wall_time: float

    @property
    def any_reached(self) -> bool:
        return any(t.reached for t in self.targets.values())


def _usb_notes(path: solver.PathCondition) -> list[UsbConstraintNote]:
    notes = []
    for expr, _site, _note in path:
        if expr.op != "eq" or len(expr.args) != 2:
            continue
        a, b = expr.args
        if a.op == "var" and b.op == "const":
            notes.append(UsbConstraintNote(a.args[0], b.value,
                                           USB_CONSTANT_NAMES.get(b.value)))
        elif b.op == "var" and a.op == "const":
            notes.append(UsbConstraintNote(b.args[0], a.value,
                                           USB_CONSTANT_NAMES.get(a.value)))
    return notes


def target_distances(M: usbstatic.PropMap, targets) -> dict[int, int]:
    """The fewest instructions from each site of M to one of `targets`
    (0 at a target): a breadth-first search from the targets over the
    reverse of the static successor relation, `_Summary.succ`. A site with
    no path to a target has no entry."""
    preds: dict[int, list[int]] = {}
    for a, sm in M.summaries.items():
        for b in sm.succ:
            preds.setdefault(b, []).append(a)
    dist = dict.fromkeys(sorted(targets), 0)
    queue = deque(dist)
    while queue:
        b = queue.popleft()
        d = dist[b] + 1
        for a in preds.get(b, ()):
            if a not in dist:
                dist[a] = d
                queue.append(a)
    return dist


def query1(image: bytes, targets, policy: SymbolicPolicy, preconditions=(),
           config: ExplorationConfig | None = None,
           memo: ImageMemo | None = None,
           M: usbstatic.PropMap | None = None) -> Query1Report:
    """Reachability of `targets` under `policy` and `preconditions`, each
    of whose bytes the policy must cover (PreconditionError names the
    first that it does not). Their conjunction must be satisfiable
    (`check_preconditions`). Given the image's static facts `M`, the
    exploration is directed (`symexec.select_next`): while a pending state
    has a distance to a target (`target_distances`), half its picks take
    the nearest one."""
    if not targets:
        raise ValueError("query1 requires at least one target instruction")
    for p in preconditions:
        region = _as_region(p.region)
        if policy.lookup(region, p.addr) is None:
            raise PreconditionError(
                f"{region.name}[0x{p.addr:04x}] is not designated "
                f"symbolic; preconditions may only constrain symbolic bytes")
    base = config or ExplorationConfig()
    cfg = replace(base, targets=frozenset(targets))
    init = check_preconditions(preconditions, cfg)
    dist = None if M is None else target_distances(M, targets)
    res = execute(image, policy, cfg, initial_constraints=init, memo=memo,
                  distances=dist)
    out: dict[int, Query1Target] = {}
    for t in sorted(targets):
        hit = res.target_hits.get(t)
        if hit is None:
            out[t] = Query1Target(t, False, res.states_created,
                                  len(res.coverage))
            continue
        st = hit.state
        model = res.solver.model(st.path)
        path_rows = [{"constraint": solver.to_text(e),
                      "site": f"0x{site:04x}" if site >= 0 else "initial",
                      "note": note}
                     for e, site, note in st.path]
        out[t] = Query1Target(
            t, True, hit.states_created, hit.coverage,
            path=path_rows,
            witness={k: model[k] for k in sorted(model)},
            usb_constraints=_usb_notes(st.path))
    # read after the witnesses, so a timeout while building one is reported
    return Query1Report(out, res.states_created, res.blocks_executed,
                        len(res.coverage), res.reason,
                        res.diagnostics + res.solver.diagnostics,
                        res.wall_time)


# ---------------------------------------------------------------------------
# Counter discovery
# ---------------------------------------------------------------------------

def find_counters(M: usbstatic.PropMap) -> set[tuple[Region, int]]:
    """IRAM bytes that INC/DEC update and whose value never feeds an address
    or index computation, given an image's static facts `M`: candidate
    delay counters."""
    counters: set[tuple[Region, int]] = set()

    def value_feeds_address(start: int, loc) -> bool:
        """Taint walk through copies: does loc's value reach an address or
        @A+DPTR/@A+PC index operand?"""
        seen = set()
        queue = [(succ, frozenset((loc,))) for succ in M.summaries[start].succ]
        budget = 512
        while queue and budget:
            budget -= 1
            addr, live = queue.pop()
            sm = M.summaries.get(addr)
            if sm is None or (addr, live) in seen:
                continue
            seen.add((addr, live))
            if live & sm.addr_load or live & sm.addr_store:
                return True
            if (usbstatic.ACC in live
                    and M.by_addr[addr].mnemonic in ("MOVC", "JMP")):
                return True  # @A+... index use
            new_live = live - sm.writes
            if live & sm.reads_value and sm.value_dst_reg is not None:
                new_live |= {sm.value_dst_reg}
            if new_live:
                for succ in sm.succ:
                    queue.append((succ, new_live))
        return False

    for ins in M.instrs:
        if ins.mnemonic not in ("INC", "DEC"):
            continue
        writes = M.summaries[ins.addr].writes
        if len(writes) != 1:
            continue
        (loc,) = writes
        if loc[0] == Region.SFR:
            continue  # hardware registers are not data counters
        if value_feeds_address(ins.addr, loc):
            continue
        counters.add(loc)

    # XRAM read-modify-write through a tracked DPTR constant
    for idx, ins in enumerate(M.instrs):
        if ins.mnemonic != "MOVX" or ins.operands[0].kind is not isa.OpKind.ACC:
            continue
        tracked = M.get(ins.addr, "src")[1]
        if tracked is None:
            continue
        window = M.instrs[idx + 1: idx + 5]
        bumped = any(w.mnemonic in ("INC", "DEC", "ADD", "ADDC", "SUBB")
                     and w.operands and w.operands[0].kind is isa.OpKind.ACC
                     for w in window)
        if not bumped:
            continue
        for w in window:
            if (w.mnemonic == "MOVX"
                    and w.operands[0].kind is not isa.OpKind.ACC
                    and M.get(w.addr, "dst")[1] == tracked):
                counters.add((Region.XRAM, tracked))
                break
    return counters


# ---------------------------------------------------------------------------
# Query 2
# ---------------------------------------------------------------------------

EP_PACKET_SIZES = (8, 16, 32, 64)

# Values that are protocol constants rather than injected data; flags whose
# payload sits in this set are labeled, never suppressed.
_KNOWN_PROTOCOL_BYTES = frozenset((0x55, 0x53, 0x42, 0x43))  # "USBC" CBW tag


@dataclass
class FlaggedAccess:
    site: int
    write_addr: int
    values: list[int]
    label: str | None = None


@dataclass
class RankedWrite:
    write_addr: int
    writers: list[int]
    symbolic_sources: list[str]
    concrete_values: list[int]
    score: int


@dataclass
class Query2Report:
    kind: str
    flagged: list[FlaggedAccess]
    counters: list[tuple[str, int]]
    ranked: list[RankedWrite]
    states_explored: int
    blocks_executed: int
    coverage: int
    reason: str
    diagnostics: list[str]
    wall_time: float


def other_endpoint_addresses(ep0: set[int], max_ep: int = 4) -> set[int]:
    """Candidate non-control endpoint buffers: EP0 plus packet-size strides."""
    out = set()
    for e in ep0:
        for size in EP_PACKET_SIZES:
            for k in range(1, max_ep + 1):
                out.add((e + size * k) & 0xFFFF)
    return out


class _ConcreteFlowListener(Listener):
    """Flag target stores whose value is a single concrete byte under the
    path condition."""

    def __init__(self, target_sites: set[int], sat: solver.Solver):
        self.targets = target_sites
        self.sat = sat
        self.flags: dict[tuple[int, int], FlaggedAccess] = {}

    def on_store(self, site, state, region, addr, value):
        if site not in self.targets or region != Region.XRAM:
            return None
        v = self.sat.is_constant(state.path, value, state.model)
        if v is NOT_UNIQUE:
            return None
        key = (site, addr)
        fa = self.flags.get(key)
        if fa is None:
            label = ("known-protocol-constant"
                     if v in _KNOWN_PROTOCOL_BYTES else None)
            self.flags[key] = FlaggedAccess(site, addr, [v], label)
        elif v not in fa.values:
            fa.values.append(v)
        return None


class _AccessRecorder(Listener):
    """Alg-5-style recording: per (address, block) symbolic/concrete marks."""

    def __init__(self):
        self.sym: dict[tuple[int, int], set] = {}       # (addr, block) -> var names
        self.conc: dict[tuple[int, int], dict] = {}     # (addr, block) -> {site: values}

    def on_store(self, site, state, region, addr, value):
        if region != Region.XRAM:
            return None
        key = (addr, state.cur_block)
        if is_symbolic(value):
            self.sym.setdefault(key, set()).update(value.vars())
        else:
            v = value if isinstance(value, int) else value.value
            self.conc.setdefault(key, {}).setdefault(site, set()).add(v)
        return None


def _rank(flagged: list[FlaggedAccess],
          sym_sources: dict[int, set]) -> list[RankedWrite]:
    by_addr: dict[int, list[FlaggedAccess]] = {}
    for f in flagged:
        by_addr.setdefault(f.write_addr, []).append(f)
    rows = []
    for addr, items in by_addr.items():
        values = sorted({v for f in items for v in f.values})
        rows.append(RankedWrite(addr, sorted({f.site for f in items}),
                                sorted(sym_sources.get(addr, ())),
                                values, len(values)))
    rows.sort(key=lambda r: (-r.score, r.write_addr))
    return rows


def query2(image: bytes, ep0: set[int], policy: SymbolicPolicy,
           M: usbstatic.PropMap, max_ep: int = 4,
           config: ExplorationConfig | None = None,
           memo: ImageMemo | None = None
           ) -> tuple[Query2Report | None, Query2Report]:
    """Both Query 2 detectors over one exploration. Returns the
    unexpected-flow report, None when EP0 is unknown, and the
    inconsistent-flow report.

    Both the endpoint targets and the delay counters come from the image's
    static facts `M` (see usbstatic.prop_const_mem), which the caller builds
    once per image; Query 2 runs no propagation of its own. Endpoint buffers
    are predicted from EP0 by constant packet-size offsets; stores whose
    tracked destination lands there are targets. The exploration runs under
    `policy`'s regions and its locations plus the delay counters, so
    threshold-guarded payloads are explored without unrolling."""
    cfg = config or ExplorationConfig()
    rec = _AccessRecorder()
    flow = None
    if ep0:
        other_eps = other_endpoint_addresses(ep0, max_ep)
        targets = {ins.addr for ins in M.instrs
                   if M.get(ins.addr, "dst")[1] in other_eps}
        flow = _ConcreteFlowListener(
            targets, solver.Solver(cfg.solver_timeout, cfg.deadline, memo))
    counters = find_counters(M)
    with_counters = SymbolicPolicy(policy.locations | counters, policy.regions)
    res = execute(image, with_counters, cfg,
                  listeners=[ln for ln in (flow, rec) if ln is not None],
                  memo=memo)
    sym_addrs: dict[int, set] = {}
    sym_sources: dict[int, set] = {}
    for (addr, block), names in rec.sym.items():
        sym_addrs.setdefault(addr, set()).add(block)
        sym_sources.setdefault(addr, set()).update(names)
    flagged: list[FlaggedAccess] = []
    for (addr, block), sites in sorted(rec.conc.items()):
        other_blocks = sym_addrs.get(addr, set()) - {block}
        if not other_blocks:
            continue
        for site, values in sorted(sites.items()):
            flagged.append(FlaggedAccess(site, addr, sorted(values)))
    inconsistent = Query2Report(
        "inconsistent-flow", flagged, [], _rank(flagged, sym_sources),
        res.states_created, res.blocks_executed, len(res.coverage), res.reason,
        res.diagnostics + res.solver.diagnostics, res.wall_time)
    if flow is None:
        return None, inconsistent
    stores = sorted(flow.flags.values(), key=lambda f: (f.write_addr, f.site))
    return replace(inconsistent, kind="unexpected-flow", flagged=stores,
                   counters=sorted((Region(r).name, a) for r, a in counters),
                   ranked=_rank(stores, {}),
                   diagnostics=inconsistent.diagnostics + flow.sat.diagnostics
                   ), inconsistent


def _query2_alone(image: bytes, ep0: set[int], policy: SymbolicPolicy,
                  max_ep: int, config: ExplorationConfig | None):
    """query2 for a caller with no static facts: one memo serves the static
    pass (`usbstatic.prop_const_mem` over its reachable blocks) and the
    exploration."""
    memo = ImageMemo(image)
    instrs = usbstatic.reachable_instructions(memo.program)
    M = usbstatic.prop_const_mem(instrs, memo.program)
    return query2(image, ep0, policy, M, max_ep, config, memo)


def query2_unexpected(image: bytes, ep0: set[int], policy: SymbolicPolicy,
                      max_ep: int = 4,
                      config: ExplorationConfig | None = None
                      ) -> Query2Report:
    """Concrete data flowing into predicted endpoint buffers (see query2),
    with the static facts built from `image`."""
    if not ep0:
        raise ValueError("query2_unexpected requires a nonempty EP0 set")
    return _query2_alone(image, ep0, policy, max_ep, config)[0]


def query2_inconsistent(image: bytes, policy: SymbolicPolicy,
                        config: ExplorationConfig | None = None
                        ) -> Query2Report:
    """Inconsistent data flow: an address written concretely in one block and
    symbolically in another. Write addresses are ranked by the number of
    distinct concrete values involved (single-value writers rank low; they
    are the documented false-positive shape). Like query2, it explores with
    the image's delay counters added to `policy`."""
    return _query2_alone(image, set(), policy, 4, config)[1]
