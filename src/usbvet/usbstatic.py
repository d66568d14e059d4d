"""Domain-informed static analysis over raw firmware images.

Four layers: byte-signature scanning for USB descriptors, cross-reference
discovery (code that reads a descriptor through DPTR), an under-approximate
constant-address propagation over the disassembly (worklist, each site
updated at most twice), and the EP0/target inference built on top of it:
device- and configuration-descriptor copies vote for the EP0 buffer, and a
store that moves function-specific data (e.g. an HID report descriptor) into
that buffer is a target instruction. EP0 votes are cast once, and target
stores are found for every claimed class from the same votes.

An image is disassembled and lifted one way: `reachable_instructions`
walks what static control flow reaches from the reset and interrupt
vectors, block by block over a `lifter.LiftedProgram`. An analysis passes
the program of its `symexec.ImageMemo`, so the blocks the walk lifts are
the ones its explorations run. Both the XREF scan (`scan_with_xrefs`, by
the one rule `find_xrefs`) and the static facts read the walk's list. So
a data table that no code reaches never decodes into a phantom reference,
and code reached only through a `JMP @A+DPTR` or `MOVC A,@A+PC` table is
in neither.

`prop_const_mem` returns the image's static facts as one `PropMap`: the
instructions in address order, the read/write summary of each, and the
propagated tuples M. An analysis builds it once from the reachable
instructions and the same program; EP0 inference, Query 2's endpoint
targets and its counter detection all read that one map. Given the
analysis deadline, the walk and the propagation raise StaticTimeLimit once
it has passed; with none they check no clock.

Each instruction's summary is read off its lifted IR, the statements
between its `Boundary` and the next in a lifted block, and so is its
control flow (`_exits`: the terminators the executor follows, plus a
call's fall-through, the call-returns assumption), so the static pass and
the symbolic executor share one instruction semantics and one lift. One
pass over a block's statements summarises all of its instructions
(`_block_summaries`). A summary names a location `(Region, addr)`, as the
executor does, so Query 2's counter detection takes a summary's write as
it is.

The propagation runs at the instruction level. Arithmetic does not
propagate tuples, register banking is assumed to stay on bank 0, the stack
is not modelled, and calls are followed both into the callee and across
(call-returns assumption); all four keep the analysis an
under-approximation, which is the contract the emitting queries rely on.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from . import isa, machine
from .lifter import (Assign, Boundary, CJump, IRBlock, LiftedProgram, Load,
                     Region, Store, Tmp, lift)

# ---------------------------------------------------------------------------
# Signature patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignaturePattern:
    name: str
    pattern: tuple  # byte values; None matches anything

    def __len__(self):
        return len(self.pattern)


DEVICE_DESC = SignaturePattern("DEVICE_DESC", (0x12, 0x01, 0x00, None, 0x00))
CONFIG_DESC = SignaturePattern("CONFIG_DESC",
                               (0x09, 0x02, None, None, None, 0x01, 0x00))
HID_REPORT = SignaturePattern("HID_REPORT", (0x05, 0x01, 0x09, 0x06, 0xA1))
MASS_STORAGE_CBW = SignaturePattern("MASS_STORAGE_CBW", (0x55, 0x53, 0x42, 0x43))

DEFAULT_SIGNATURES = (DEVICE_DESC, CONFIG_DESC, HID_REPORT, MASS_STORAGE_CBW)

# Function-specific evidence per claimed class (extensible via signature files).
CLASS_FUNCSPEC = {
    "hid": ("HID_REPORT",),
    "mass-storage": ("MASS_STORAGE_CBW",),
}


def parse_signature_file(text: str) -> list[SignaturePattern]:
    """One pattern per line: `NAME: 12 01 00 ?? 00` (hex bytes, ?? wildcard)."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(\w+)\s*:\s*(.+)$", line)
        if not m:
            raise ValueError(f"signature file line {line_no}: {raw!r}")
        pat = []
        for c in m.group(2).split():
            if c == "??":
                pat.append(None)
            elif re.fullmatch(r"[0-9A-Fa-f]{1,2}", c):
                pat.append(int(c, 16))
            else:
                raise ValueError(f"signature file line {line_no}: cell {c!r} "
                                 f"is not a hex byte or ??")
        out.append(SignaturePattern(m.group(1), tuple(pat)))
    return out


@dataclass
class DescriptorHit:
    name: str
    addr: int
    matched: bytes
    xrefs: list[int] = field(default_factory=list)


@lru_cache(maxsize=64)
def _regex(pattern: tuple) -> re.Pattern:
    """One compiled bytes regex per pattern; a wildcard matches any byte."""
    return re.compile(b"".join(b"." if b is None else re.escape(bytes((b,)))
                               for b in pattern), re.DOTALL)


def scan_signatures(image: bytes, patterns=DEFAULT_SIGNATURES) -> list[DescriptorHit]:
    """All non-overlapping matches per pattern, ascending address."""
    hits = [DescriptorHit(pat.name, m.start(), m.group())
            for pat in patterns for m in _regex(pat.pattern).finditer(image)]
    hits.sort(key=lambda h: (h.addr, h.name))
    return hits


def descriptor_extent(image: bytes, hit: DescriptorHit) -> int:
    """Plausible byte length of the matched descriptor."""
    if hit.name == "DEVICE_DESC":
        return 18
    if hit.name == "CONFIG_DESC" and hit.addr + 4 <= len(image):
        total = image[hit.addr + 2] | (image[hit.addr + 3] << 8)
        if 9 <= total <= 0x400:
            return total
        return 9
    return 64  # report descriptors and tags: fixed window


# ---------------------------------------------------------------------------
# Cross references
# ---------------------------------------------------------------------------

_XREF_SCAN_LIMIT = 32  # instructions examined after a DPTR load
_MOV_DPTR_IMM = 0x90   # MOV DPTR,#imm16, the only constant load of DPTR


def _feeds_code_read(load: isa.Instruction, following) -> bool:
    """Whether the DPTR load `load` is an XREF, given the instructions in
    address order after it (read lazily, at most _XREF_SCAN_LIMIT): a CODE
    read comes before any control flow or DPTR re-target in the same block.
    Accepts when the fall-through does not decode or the look-ahead runs
    out (conservative)."""
    expect = load.addr + load.length
    for nxt in islice(following, _XREF_SCAN_LIMIT):
        if nxt.addr != expect:
            return True  # the fall-through does not decode: be conservative
        if nxt.mnemonic == "MOVC" or nxt.mnemonic == "JMP":
            return True
        if nxt.mnemonic in isa.CONTROL_FLOW:
            return False
        if nxt.opcode == _MOV_DPTR_IMM:
            return False  # DPTR re-targeted before any CODE read
        expect = nxt.addr + nxt.length
    return True


def find_xrefs(instrs: list[isa.Instruction], target: int,
               range_len: int = 1) -> list[int]:
    """Addresses of the instructions of `instrs` (in address order) that
    load DPTR with a constant inside [target, target+range_len) and feed a
    CODE read downstream in the same block (`_feeds_code_read`)."""
    return [ins.addr for idx, ins in enumerate(instrs)
            if ins.opcode == _MOV_DPTR_IMM
            and target <= ins.operands[1].value < target + range_len
            and _feeds_code_read(ins, islice(instrs, idx + 1, None))]


def scan_with_xrefs(image: bytes, instrs: list[isa.Instruction],
                    patterns=DEFAULT_SIGNATURES) -> list[DescriptorHit]:
    """Signature hits, each with its XREFs among `instrs`, the image's
    reachable instructions in address order (`reachable_instructions`)."""
    hits = scan_signatures(image, patterns)
    for h in hits:
        h.xrefs = find_xrefs(instrs, h.addr, descriptor_extent(image, h))
    return hits


class StaticTimeLimit(Exception):
    """The static pass ran past its caller's deadline."""


def reachable_instructions(program: LiftedProgram,
                           deadline: float | None = None
                           ) -> list[isa.Instruction]:
    """Recursive-descent decoding from the reset vector and interrupt
    vectors: the instructions static control flow can actually reach, in
    address order. Keeps data tables from decoding into phantom code the
    flow analyses would otherwise chew on.

    The walk reads `program`'s lifted blocks, one per entry it meets: a
    block's instructions are the fall-through successors of its first, and
    its exits (`_exits`) are the next entries. Past `deadline` (a
    `time.monotonic()` value, checked before each block) it raises
    StaticTimeLimit."""
    image_end = len(program.image)
    seen: dict[int, isa.Instruction] = {}
    work = [0] + [vec for vec, _bit in machine.INT_SOURCES.values()]
    while work:
        addr = work.pop()
        if addr in seen or addr >= image_end:
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise StaticTimeLimit(
                "time-limit passed in reachable_instructions")
        try:
            blk = program.block(addr)
        except isa.IsaError:
            continue
        for ins in blk.instrs:
            seen[ins.addr] = ins
        work.extend(_exits(blk))
    return [seen[a] for a in sorted(seen)]


# ---------------------------------------------------------------------------
# Constant-address propagation (worklist, visit bound of two per site)
# ---------------------------------------------------------------------------

# Locations are (Region.SFR, a) / (Region.IRAM, a), as in every other
# layer; register bank 0 is assumed.
ACC = (Region.SFR, machine.ACC)
PSW = (Region.SFR, machine.PSW)
SP = (Region.SFR, machine.SP)
DPL = (Region.SFR, machine.DPL)
DPH = (Region.SFR, machine.DPH)
DPTR_LOCS = frozenset((DPL, DPH))
_NONE = frozenset()  # shared: each frozenset() call makes a new object
_SFR, _IRAM = Region.SFR, Region.IRAM  # read without an enum lookup


def is_register(loc) -> bool:
    """Memory-mapped registers: every SFR plus the four register banks."""
    region, addr = loc
    return region == _SFR or addr < 0x20


BOT = (None, None)


class _Summary(NamedTuple):
    """Static read/write/flow facts for one instruction."""
    reads_value: frozenset   # a copy's source location
    addr_load: frozenset     # locations used as a load address
    addr_store: frozenset    # locations used as a store address
    writes: frozenset        # locations stored to
    seed: tuple | None       # (value, width) for const-to-register
    value_dst_reg: tuple | None  # register location a copy stores to
    store_class: bool        # writes non-register memory
    succ: tuple              # successor addresses (`_block_summaries`)


# What a temp of one instruction's IR holds, besides a location's value (the
# location itself): a byte loaded from elsewhere, or a mark on the
# computations the lifter builds addresses from.
_MEMORY = "memory"
_BANK = "bank"          # PSW & 0x18, the register-bank base (taken as 0)
_DPH_HIGH = "dph<<8"
_DPTR = "dptr"          # DPH:DPL, also as the base of @A+DPTR
_MARKS = {("and", PSW, 0x18): _BANK, ("shl", DPH, 8): _DPH_HIGH,
          ("or", _DPH_HIGH, DPL): _DPTR, ("add", ACC, _DPTR): _DPTR}


def _summary(writes: list, addr_load: list, addr_store: list, consts: dict,
             copies: list, store_class: bool, succ: tuple) -> _Summary:
    """The `_Summary` of one instruction from what `_block_summaries` read
    off its statements: the locations it writes and uses as load and store
    addresses, the constants it stores to registers, its copies of loaded
    values (source, destination), whether it is store-class, and its
    successors."""
    reads_value, value_dst_reg = _NONE, None
    if len(copies) == 1:
        src, dst = copies[0]
        if src is not _MEMORY:
            reads_value = frozenset((src,))
        if dst is not None and is_register(dst):
            value_dst_reg = dst
    seed = None
    if consts.keys() == DPTR_LOCS:
        seed = ((consts[DPH] << 8) | consts[DPL], 16)
    elif consts:
        (value,) = consts.values()
        seed = (value, 8)
    return _Summary(reads_value,
                    frozenset(addr_load) if addr_load else _NONE,
                    frozenset(addr_store) if addr_store else _NONE,
                    frozenset(writes) if writes else _NONE,
                    seed, value_dst_reg, store_class, succ)


def _block_summaries(blk: IRBlock) -> list[_Summary]:
    """The facts of each instruction of blk, in order, read in one pass
    over its statements. An instruction's facts start afresh at its
    `Boundary`; its successors are the next instruction inside blk, else
    blk's exits (`_exits`).

    A location is a constant SFR or low-IRAM address, or register slot n
    (bank base + n, the base folded to 0). A `Store` at a location writes
    it, and a constant stored to a register seeds it. An address held by a
    location other than SP, or by DPTR, is tracked. A store to non-register
    memory or through a tracked address is store-class; a store through any
    other address is a stack slot, which is not modelled. An instruction
    that stores exactly one loaded value is a copy."""
    out: list[_Summary] = []
    # temps are assigned once per block, so these hold across instructions
    facts: dict[int, object] = {}   # temp -> location, _MEMORY or a mark
    slots: dict[int, tuple] = {}    # temp -> the register slot it addresses
    # the Boundary of the instruction being read; the block's first
    # statement is one, and it starts that instruction's facts
    at = None
    for stmt in blk.stmts:
        cls = stmt.__class__
        if cls is Assign:
            # a mark or a slot is made of two operands, the first a temp
            # that holds a location or a mark
            args = stmt.args
            a = args[0]
            held = facts.get(a.i) if type(a) is Tmp else None
            if held is not None and len(args) == 2:
                b = args[1]
                if type(b) is Tmp:
                    b = facts.get(b.i)
                if held is _BANK and stmt.op == "add":
                    slots[stmt.dst.i] = (_IRAM, b)
                else:
                    mark = _MARKS.get((stmt.op, held, b))
                    if mark is not None:
                        facts[stmt.dst.i] = mark
        elif cls is Load:
            region, a = stmt.region, stmt.addr
            if type(a) is Tmp:
                loc = slots.get(a.i)
                if loc is None:
                    held = facts.get(a.i)
                    if held == _DPTR:
                        addr_load.extend(DPTR_LOCS)
                    elif type(held) is tuple and held != SP:
                        addr_load.append(held)
                    loc = _MEMORY
            elif region == _SFR or (region == _IRAM and a < 0x80):
                loc = (region, a)
            else:
                loc = _MEMORY
            facts[stmt.dst.i] = loc
        elif cls is Store:
            region, a = stmt.region, stmt.addr
            if type(a) is Tmp:
                loc = slots.get(a.i)
            elif region == _SFR or (region == _IRAM and a < 0x80):
                loc = (region, a)
            else:
                loc = None
            if loc is not None:
                writes.append(loc)
                if not is_register(loc):
                    store_class = True
                elif type(stmt.src) is int:
                    consts[loc] = stmt.src
            else:
                held = facts.get(a.i) if type(a) is Tmp else None
                if held == _DPTR:
                    addr_store.extend(DPTR_LOCS)
                elif type(held) is tuple and held != SP:
                    addr_store.append(held)
                else:
                    continue  # a stack slot
                store_class = True
            src = facts.get(stmt.src.i) if type(stmt.src) is Tmp else None
            if src is _MEMORY or type(src) is tuple:
                copies.append((src, loc))
        elif cls is Boundary:
            if at is not None:
                out.append(_summary(writes, addr_load, addr_store, consts,
                                    copies, store_class,
                                    (at.addr + at.length,)))
            at = stmt
            writes, addr_load, addr_store, copies = [], [], [], []
            consts: dict[tuple, int] = {}   # register -> constant stored
            store_class = False
    out.append(_summary(writes, addr_load, addr_store, consts, copies,
                        store_class, _exits(blk)))
    return out


def _exits(blk: IRBlock) -> tuple:
    """Where control leaves blk: its terminator's constant targets (a
    CJump's taken then fall, a Jump's int target; a RetMark's target is a
    temp), plus a call's fall-through (call-returns assumption); or the
    fall-through of a block cut after an instruction that is not control
    flow. A fall-through is never wrapped past 0xFFFF to 0."""
    last = blk.instrs[-1]
    fall = last.addr + last.length
    if last.mnemonic not in isa.CONTROL_FLOW:
        return (fall,)
    term = blk.stmts[-1]
    if term.__class__ is CJump:
        return (term.taken, fall)
    if type(term.target) is not int:  # RET, RETI or JMP @A+DPTR
        return ()
    if last.mnemonic in ("LCALL", "ACALL"):
        return (term.target, fall)
    return (term.target,)


def _fall_through(by_addr: dict, addr: int):
    """The instructions of by_addr from addr in fall-through order, up to
    the first address it does not hold."""
    ins = by_addr.get(addr)
    while ins is not None:
        yield ins
        ins = by_addr.get(ins.addr + ins.length)


class PropMap:
    """The static facts of one instruction set: the instructions in address
    order, `by_addr`, the `_Summary` of each, and M: (site, 'src'|'dst') ->
    (value, tracked address); absent means (bot,bot).

    Summaries read lifted blocks: `program`'s, when the instructions were
    decoded from its image (an analysis passes its memo's, whose blocks the
    reachability walk already lifted), else blocks lifted from the list
    itself. Either way each instruction is summarised from the first block
    that holds it, in address order."""

    def __init__(self, instrs: list[isa.Instruction],
                 program: LiftedProgram | None = None):
        self.instrs = sorted(instrs, key=lambda i: i.addr)
        by_addr = self.by_addr = {i.addr: i for i in self.instrs}
        summaries = self.summaries = {}
        for first in self.instrs:
            if first.addr in summaries:
                continue
            blk = (program.block(first.addr) if program is not None
                   else lift(_fall_through(by_addr, first.addr)))
            for ins, sm in zip(blk.instrs, _block_summaries(blk)):
                if ins.addr in by_addr and ins.addr not in summaries:
                    summaries[ins.addr] = sm
        self.m: dict[tuple[int, str], tuple] = {}

    def get(self, site: int, role: str) -> tuple:
        return self.m.get((site, role), BOT)


def prop_const_mem(instrs: list[isa.Instruction],
                   program: LiftedProgram | None = None,
                   deadline: float | None = None) -> PropMap:
    """Worklist propagation of constant values / tracked addresses over the
    static facts of `instrs` (`PropMap`, with `program`'s blocks if given).

    Seeds are stores of constants into memory-mapped registers. A value
    tuple consumed as an indirect address converts to a tracked address;
    loads and register-to-register copies carry tuples through; stores to
    non-register memory record roles but stop propagation. The defined-role
    guard bounds updates to at most two per site.

    Past `deadline` (a `time.monotonic()` value, checked before each
    worklist site) it raises StaticTimeLimit.
    """
    M = PropMap(instrs, program)
    summaries = M.summaries
    wl: deque[int] = deque()
    for ins in M.instrs:
        sm = summaries[ins.addr]
        if sm.seed is not None:
            M.m[ins.addr, "dst"] = (sm.seed[0], None)
            wl.append(ins.addr)

    def uses_of(site: int) -> list[tuple[int, str]]:
        """(site, kind) of each use of site's writes, kind 'value',
        'addr-load' or 'addr-store'."""
        tracked = summaries[site].writes
        if not tracked:
            return []
        uses: list[tuple[int, str]] = []
        seen = {site: tracked}
        queue = deque((succ, tracked) for succ in summaries[site].succ)
        while queue:
            addr, live = queue.popleft()
            sm = summaries.get(addr)
            if sm is None:
                continue
            prev = seen.get(addr)
            if prev is not None and live <= prev:
                continue
            seen[addr] = (prev or frozenset()) | live
            if live & sm.reads_value:
                uses.append((addr, "value"))
            if live & sm.addr_load:
                uses.append((addr, "addr-load"))
            if live & sm.addr_store:
                uses.append((addr, "addr-store"))
            live = live - sm.writes
            if live:
                for succ in sm.succ:
                    queue.append((succ, live))
        return uses

    while wl:
        site = wl.popleft()
        if deadline is not None and time.monotonic() > deadline:
            raise StaticTimeLimit("time-limit passed in prop_const_mem")
        tup = M.get(site, "dst")
        if tup == BOT:
            continue
        for j, kind in uses_of(site):
            sm = summaries[j]
            srcdef = M.get(j, "src") != BOT
            dstdef = M.get(j, "dst") != BOT
            # defined-role guard: a store may be visited twice (src and dst
            # roles), anything else once; a revisit overwrites the role
            if sm.store_class:
                if srcdef and dstdef:
                    continue
            elif srcdef or dstdef:
                continue
            if kind == "value":
                M.m[j, "src"] = tup
                if sm.value_dst_reg is not None:
                    M.m[j, "dst"] = tup  # copy-through into a register
            elif kind == "addr-load":
                if tup[0] is None:
                    continue  # only a known value can become an address
                conv = (None, tup[0])
                M.m[j, "src"] = conv
                if sm.value_dst_reg is not None:
                    M.m[j, "dst"] = conv
            else:  # addr-store
                if tup[0] is None:
                    continue
                M.m[j, "dst"] = (None, tup[0])
            if not sm.store_class:
                wl.append(j)
    return M


# ---------------------------------------------------------------------------
# EP0 / target inference
# ---------------------------------------------------------------------------


class NoDescriptors(Exception):
    pass


@dataclass
class Ep0Inference:
    ep0_1: set[int]
    ep0_2: set[int]
    ep0: set[int]
    target_sites: dict[str, list[int]]  # per CLASS_FUNCSPEC class


def _in_ranges(value, image, hits) -> bool:
    if value is None:
        return False
    for h in hits:
        if h.addr <= value < h.addr + descriptor_extent(image, h):
            return True
    return False


def find_devspec_to_ep0(image: bytes, M: PropMap, hits) -> Ep0Inference:
    """Candidate EP0 buffer addresses, voted once from the image's signature
    `hits` and static facts `M`, and per CLASS_FUNCSPEC class the stores
    that copy that class's function-specific data into them."""
    cand_dd = [h for h in hits if h.name == "DEVICE_DESC"]
    cand_cd = [h for h in hits if h.name == "CONFIG_DESC"]
    if not cand_dd or not cand_cd:
        raise NoDescriptors(
            f"device={len(cand_dd)} config={len(cand_cd)} candidates")
    stores = [(ins.addr, M.get(ins.addr, "src")[1], M.get(ins.addr, "dst")[1])
              for ins in M.instrs if M.summaries[ins.addr].store_class]
    ep0_1: set[int] = set()
    ep0_2: set[int] = set()
    for _site, src_tracked, dst_tracked in stores:
        if dst_tracked is None:
            continue
        if _in_ranges(src_tracked, image, cand_cd):
            ep0_1.add(dst_tracked)
        if _in_ranges(src_tracked, image, cand_dd):
            ep0_2.add(dst_tracked)
    ep0 = ep0_1 & ep0_2
    targets = {}
    for cls, func_names in CLASS_FUNCSPEC.items():
        cand_fs = [h for h in hits if h.name in func_names]
        targets[cls] = [site for site, src_tracked, dst_tracked in stores
                        if dst_tracked in ep0
                        and _in_ranges(src_tracked, image, cand_fs)]
    return Ep0Inference(ep0_1, ep0_2, ep0, targets)
