"""Reference forms of the IR consumers that read a block in one pass:
block preparation in two passes (`forward_loads`, then `prepare_block`)
and the static summary of one instruction's statements at a time
(`summarize`, over the slices `by_instruction` cuts), and the handler
entry of each interrupt vector decoded from the image (`discover_isrs`).
The tests compare the one-pass and lifted-program code against them."""

import random

from usbvet import isa, lifter, machine, usbstatic
from usbvet.lifter import (Assign, Boundary, CJump, Jump, Load, Region,
                           RetMark, Store, Tmp)
from usbvet.solver import OPS
from usbvet.symexec import (Branch, Compute, ComputeN, Goto, PreparedBlock,
                            Read, Reread, Site, Write)
from usbvet.usbstatic import (_BANK, _DPTR, _MARKS, _MEMORY, _NONE, DPH,
                              DPL, DPTR_LOCS, SP, _exits, _Summary,
                              is_register)


class Reload:
    """A Load of a constant address whose byte an earlier Load or Store of
    the same block read or wrote: the atom `src` holds that byte."""
    __slots__ = ("dst", "region", "addr", "src")

    def __init__(self, dst, region, addr, src):
        self.dst = dst
        self.region = region
        self.addr = addr
        self.src = src


def forward_loads(stmts: list) -> list:
    """The block's statements, with each Load of a constant address that an
    earlier Load or Store of the block read or wrote replaced by a Reload.
    A Store to a computed address may write any byte of its region, so it
    forgets what the block knows there."""
    known: dict[tuple, object] = {}  # (region, addr) -> atom holding the byte
    out = []
    for st in stmts:
        cls = st.__class__
        if cls is Load and type(st.addr) is int:
            key = (st.region, st.addr)
            if key in known:
                st = Reload(st.dst, st.region, st.addr, known[key])
            else:
                known[key] = st.dst
        elif cls is Store:
            if type(st.addr) is int:
                known[(st.region, st.addr)] = st.src
            else:
                known = {k: v for k, v in known.items() if k[0] != st.region}
        out.append(st)
    return out


def prepare_block(blk, forward: bool = True) -> PreparedBlock:
    """The prepared form of blk in two passes: its loads forwarded by
    `forward_loads` (or not, with forward False), then each statement made
    a step."""
    init: list = []
    consts: dict[int, int] = {}          # constant -> its slot
    slot: dict[int, int] = {}            # Tmp index -> slot
    made: dict[tuple, int] = {}          # (op, slots, width) -> slot

    def atom(a) -> int:
        if type(a) is Tmp:
            return slot[a.i]
        k = consts.get(a)
        if k is None:
            k = consts[a] = len(init)
            init.append(a)
        return k

    def fresh(t: Tmp) -> int:
        k = slot[t.i] = len(init)
        init.append(None)
        return k

    steps: list[tuple] = []
    for st in forward_loads(blk.stmts) if forward else blk.stmts:
        cls = st.__class__
        if cls is Assign:
            args = tuple(atom(a) for a in st.args)
            mask = (1 << st.width) - 1
            key = (st.op, args, st.width)
            if all(init[k] is not None for k in args):
                value = OPS[st.op](mask, [init[k] for k in args])
                slot[st.dst.i] = atom(value)
            elif key in made:
                slot[st.dst.i] = made[key]
            else:
                d = made[key] = fresh(st.dst)
                if len(args) == 2:
                    steps.append((Compute, d, OPS[st.op], mask, st.op,
                                  st.width, *args))
                else:
                    steps.append((ComputeN, d, OPS[st.op], mask, st.op,
                                  st.width, args))
        elif cls is Load:
            steps.append((Read, st.region, atom(st.addr), fresh(st.dst)))
        elif cls is Reload:
            k = slot[st.dst.i] = atom(st.src)
            steps.append((Reread, st.region, st.addr, k))
        elif cls is Store:
            steps.append((Write, st.region, atom(st.addr), atom(st.src)))
        elif cls is Boundary:
            steps.append((Site, st.addr))
        elif cls is CJump:
            steps.append((Branch, atom(st.cond), st.taken, st.fall))
        elif cls is Jump:
            steps.append((Goto, atom(st.target), False))
        elif cls is RetMark:
            steps.append((Goto, atom(st.target), st.reti))
    return PreparedBlock(blk.addr, steps, init, blk.instr_addrs)


def unforwarded(blk) -> PreparedBlock:
    """blk prepared with no load forwarded: every Load is a Read."""
    return prepare_block(blk, forward=False)


def by_instruction(blk):
    """Each instruction of blk with its statements (from its `Boundary` to
    the next one, or to the terminator) and its successors: the next
    instruction inside blk, else blk's exits (`_exits`)."""
    stmts = blk.stmts
    starts = [k for k, st in enumerate(stmts) if st.__class__ is Boundary]
    starts.append(len(stmts) - 1)
    last = len(blk.instrs) - 1
    for k, ins in enumerate(blk.instrs):
        succ = _exits(blk) if k == last else (ins.addr + ins.length,)
        yield ins, stmts[starts[k] + 1:starts[k + 1]], succ


def summarize(stmts, succ: tuple) -> _Summary:
    """An instruction's facts, from its statements `stmts` alone and its
    successors `succ` (`by_instruction`)."""
    facts: dict[int, object] = {}   # temp -> location, _MEMORY or a mark
    slots: dict[int, tuple] = {}    # temp -> the register slot it addresses
    writes, addr_load, addr_store = set(), set(), set()
    consts: dict[tuple, int] = {}   # register -> constant stored to it
    copies = []                     # (source, destination) of loaded values
    store_class = False

    def location(region, addr):
        if type(addr) is Tmp:
            return slots.get(addr.i)
        if region == Region.SFR or (region == Region.IRAM and addr < 0x80):
            return (region, addr)
        return None

    def tracked(addr) -> frozenset:
        held = facts.get(addr.i) if type(addr) is Tmp else None
        if held == _DPTR:
            return DPTR_LOCS
        if type(held) is tuple and held != SP:
            return frozenset((held,))
        return _NONE

    for stmt in stmts:
        cls = stmt.__class__
        if cls is Assign:
            args = [facts.get(a.i) if type(a) is Tmp else a for a in stmt.args]
            if stmt.op == "add" and args[0] is _BANK:
                slots[stmt.dst.i] = (Region.IRAM, args[1])
            else:
                mark = _MARKS.get((stmt.op, *args))
                if mark is not None:
                    facts[stmt.dst.i] = mark
        elif cls is Load:
            loc = location(stmt.region, stmt.addr)
            if loc is None:
                addr_load |= tracked(stmt.addr)
                loc = _MEMORY
            facts[stmt.dst.i] = loc
        elif cls is Store:
            loc = location(stmt.region, stmt.addr)
            if loc is not None:
                writes.add(loc)
                if not is_register(loc):
                    store_class = True
                elif type(stmt.src) is int:
                    consts[loc] = stmt.src
            else:
                through = tracked(stmt.addr)
                if not through:
                    continue  # a stack slot
                addr_store |= through
                store_class = True
            src = facts.get(stmt.src.i) if type(stmt.src) is Tmp else None
            if src is _MEMORY or type(src) is tuple:
                copies.append((src, loc))
    reads_value, value_dst_reg = _NONE, None
    if len(copies) == 1:
        src, dst = copies[0]
        if src is not _MEMORY:
            reads_value = frozenset((src,))
        if dst is not None and is_register(dst):
            value_dst_reg = dst
    seed = None
    if consts.keys() == DPTR_LOCS:
        seed = (consts[DPH] << 8) | consts[DPL]
    elif consts:
        (seed,) = consts.values()
    return _Summary(reads_value, frozenset(addr_load) or _NONE,
                    frozenset(addr_store) or _NONE, frozenset(writes) or _NONE,
                    seed, value_dst_reg, store_class, succ)


def block_summaries(blk) -> list[_Summary]:
    """`summarize` over each instruction of blk, in order."""
    return [summarize(stmts, succ) for _ins, stmts, succ in by_instruction(blk)]


def sample_blocks(images, seed: int) -> list:
    """Blocks to compare a one-pass consumer with its reference on: each
    legal opcode with seeded operand bytes, then a NOP and `sjmp $`; and
    every block the static pass of each image (`reachable_instructions`)
    leaves in its program, suffixes included."""
    rng = random.Random(seed)
    blocks = []
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        for _ in range(4):
            image = bytes([op]) + rng.randbytes(2) + bytes([0x00, 0x80, 0xFE])
            blocks.append(lifter.lift_block(image, 0))
    for image in images:
        program = lifter.lift_program(image)
        usbstatic.reachable_instructions(program)
        blocks += program.cache.values()
    return blocks


def discover_isrs(image: bytes) -> dict[str, int]:
    """Interrupt sources to handler entries, decoding each vector's
    instruction from the image: RETI means no handler, a direct jump enters
    at its target, anything else at the vector."""
    isrs: dict[str, int] = {}
    for source, (vector, _bit) in machine.INT_SOURCES.items():
        if vector >= len(image):
            continue
        try:
            ins = isa.decode(image, vector)
        except isa.IsaError:
            continue
        if ins.mnemonic == "RETI":
            continue
        if ins.mnemonic in ("LJMP", "AJMP", "SJMP"):
            isrs[source] = ins.operands[0].value
        else:
            isrs[source] = vector
    return isrs
