"""Demand-driven lifter from 8051 machine code to a region-aware RISC-like IR.

Every memory access in the IR carries a region tag (CODE / IRAM / SFR / XRAM)
fixed at lift time: on the 8051 the addressing mode fully determines the
region, so no runtime resolution is needed. Flag side effects (carry, aux
carry, overflow, parity) are explicit IR stores into PSW. Register-bank
R0-R7 accesses lift to IRAM loads/stores at bank_base(PSW) + n, and DPTR is
the DPH:DPL pair, so direct writes to 0x82/0x83 stay coherent.

Value convention: IR temps hold unsigned integers masked to the statement's
result width; a condition is true when nonzero. PSW bit 0 is the live parity
of ACC, so full-byte reads of PSW substitute it explicitly in the IR.

A block is a list of seven statement kinds: a `Boundary` before each
instruction, `Assign`, `Load` and `Store`, and one terminator (`CJump`,
`Jump` or `RetMark`). A register write is a `Store` to its SFR address;
`format_block` prints one to a named register as `put NAME`.

Each mnemonic has one emitter, a function that `_lift_one` looks up in the
`_EMITTERS` table by the instruction's mnemonic. The emitters, the
statement builder `_Emit` and `run_lifted` read regions and operand kinds
through module aliases (`_SFR`, `_K_ACC`, ...), never as enum members.

An analysed image is decoded only here, each instruction once, by
`LiftedProgram`; `discover_isrs` reads the handlers' entries off it.
`run_lifted` evaluates the IR concretely; it evaluates a two-operand
`Assign`, the most common statement, without building a list.
"""

from __future__ import annotations

from enum import IntEnum

from . import isa, machine


class Region(IntEnum):
    CODE = 0
    IRAM = 1
    SFR = 2
    XRAM = 3


# Address-space size of each region (SFR addresses are 0x80-0xFF of a
# byte-wide space).
REGION_SIZE = {Region.CODE: 0x10000, Region.IRAM: 0x100, Region.SFR: 0x100,
               Region.XRAM: 0x10000}

# The regions and operand kinds as module names: the emitters, `_Emit` and
# `run_lifted` read them per statement, and a global read costs a fraction of
# an enum member lookup.
_CODE, _IRAM, _SFR, _XRAM = Region.CODE, Region.IRAM, Region.SFR, Region.XRAM
_K_ACC, _K_REG = isa.OpKind.ACC, isa.OpKind.REG
_K_DIRECT, _K_INDIRECT = isa.OpKind.DIRECT, isa.OpKind.INDIRECT
_K_IMM8, _K_IMM16 = isa.OpKind.IMM8, isa.OpKind.IMM16
_K_BIT, _K_NOT_BIT = isa.OpKind.BIT, isa.OpKind.NOT_BIT
_K_CARRY, _K_DPTR = isa.OpKind.CARRY, isa.OpKind.DPTR
_K_IND_DPTR, _K_CODE_DPTR = isa.OpKind.IND_DPTR, isa.OpKind.CODE_DPTR


class Tmp:
    """Reference to a block-local single-assignment temporary."""
    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i

    def __repr__(self):
        return f"t{self.i}"


# An atom is either an int constant or a Tmp.

class Boundary:
    __slots__ = ("addr", "length")

    def __init__(self, addr, length):
        self.addr = addr
        self.length = length


class Load:
    __slots__ = ("dst", "region", "addr")

    def __init__(self, dst, region, addr):
        self.dst = dst
        self.region = region
        self.addr = addr


class Store:
    __slots__ = ("region", "addr", "src")

    def __init__(self, region, addr, src):
        self.region = region
        self.addr = addr
        self.src = src


class Assign:
    __slots__ = ("dst", "op", "args", "width")

    def __init__(self, dst, op, args, width):
        self.dst = dst
        self.op = op
        self.args = args
        self.width = width


class CJump:
    __slots__ = ("cond", "taken", "fall")

    def __init__(self, cond, taken, fall):
        self.cond = cond
        self.taken = taken
        self.fall = fall


class Jump:
    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target


class RetMark:
    """Terminator for RET/RETI: indirect jump through the popped address."""
    __slots__ = ("target", "reti")

    def __init__(self, target, reti):
        self.target = target
        self.reti = reti


class IRBlock:
    """A lifted block: its statements, and `instrs`, the decoded
    instructions they were lifted from, in order. The k-th `Boundary`
    starts the statements of `instrs[k]`."""
    __slots__ = ("addr", "stmts", "n_temps", "instrs")

    def __init__(self, addr, stmts, n_temps, instrs):
        self.addr = addr
        self.stmts = stmts
        self.n_temps = n_temps
        self.instrs = instrs

    @property
    def instr_addrs(self) -> list[int]:
        return [ins.addr for ins in self.instrs]


_PSW = machine.PSW
_ACC = machine.ACC
_B = machine.B
_SP = machine.SP
_DPL = machine.DPL
_DPH = machine.DPH

_REG_NAMES = {machine.ACC: "ACC", machine.B: "B", machine.PSW: "PSW",
              machine.SP: "SP", machine.DPL: "DPL", machine.DPH: "DPH"}

# PSW flag masks
_CY = 0x80
_AC = 0x40
_OV = 0x04


# _TMPS[n] is the Tmp of index n in every block: temps are read-only and
# read only through `.i`, so blocks share them. Grown on demand, to the
# largest block lifted so far.
_TMPS: list[Tmp] = []


def _new_tmp(n: int) -> Tmp:
    """Append Tmp(n) to _TMPS, whose length is n."""
    t = Tmp(n)
    _TMPS.append(t)
    return t


class _Emit:
    """Statement builder for one block."""

    def __init__(self):
        self.stmts: list = []
        self.n = 0

    def tmp(self, op, args, width) -> Tmp:
        n = self.n
        self.n = n + 1
        try:
            t = _TMPS[n]
        except IndexError:
            t = _new_tmp(n)
        self.stmts.append(Assign(t, op, args, width))
        return t

    def load(self, region, addr) -> Tmp:
        n = self.n
        self.n = n + 1
        try:
            t = _TMPS[n]
        except IndexError:
            t = _new_tmp(n)
        self.stmts.append(Load(t, region, addr))
        return t

    def store(self, region, addr, src):
        self.stmts.append(Store(region, addr, src))

    def put(self, reg, src):
        self.stmts.append(Store(_SFR, reg, src))

    # -- register file helpers ------------------------------------------

    def sfr(self, addr) -> Tmp:
        return self.load(_SFR, addr)

    def acc(self) -> Tmp:
        return self.load(_SFR, _ACC)

    def set_acc(self, v):
        self.put(_ACC, v)

    def psw_raw(self) -> Tmp:
        return self.sfr(_PSW)

    def psw_norm(self) -> Tmp:
        """PSW with the parity bit substituted from ACC (bit 0 is combinational)."""
        raw = self.psw_raw()
        p = self.tmp("par", (self.acc(),), 8)
        hi = self.tmp("and", (raw, 0xFE), 8)
        return self.tmp("or", (hi, p), 8)

    def carry(self) -> Tmp:
        return self.tmp("shr", (self.psw_raw(), 7), 8)

    def set_flags(self, cy=None, ac=None, ov=None):
        mask = 0xFF
        if cy is not None:
            mask &= ~_CY
        if ac is not None:
            mask &= ~_AC
        if ov is not None:
            mask &= ~_OV
        v = self.tmp("and", (self.psw_raw(), mask), 8)
        if cy is not None:
            v = self.tmp("or", (v, self.tmp("shl", (cy, 7), 8)), 8)
        if ac is not None:
            v = self.tmp("or", (v, self.tmp("shl", (ac, 6), 8)), 8)
        if ov is not None:
            v = self.tmp("or", (v, self.tmp("shl", (ov, 2), 8)), 8)
        self.put(_PSW, v)

    def bank_slot(self, n: int) -> Tmp:
        base = self.tmp("and", (self.psw_raw(), 0x18), 8)
        return self.tmp("add", (base, n), 8)

    def reg_read(self, n: int) -> Tmp:
        return self.load(_IRAM, self.bank_slot(n))

    def reg_write(self, n: int, v):
        self.store(_IRAM, self.bank_slot(n), v)

    def dptr(self) -> Tmp:
        hi = self.tmp("shl", (self.sfr(_DPH), 8), 16)
        return self.tmp("or", (hi, self.sfr(_DPL)), 16)

    def set_dptr(self, v):
        self.put(_DPL, self.tmp("and", (v, 0xFF), 8))
        self.put(_DPH, self.tmp("shr", (v, 8), 8))

    # -- operand access --------------------------------------------------

    def read_operand(self, op: isa.Operand) -> Tmp | int:
        k = op.kind
        if k is _K_ACC:
            return self.acc()
        if k is _K_REG:
            return self.reg_read(op.value)
        if k is _K_DIRECT:
            if op.value == _PSW:
                return self.psw_norm()
            region = _IRAM if op.value < 0x80 else _SFR
            return self.load(region, op.value)
        if k is _K_INDIRECT:
            return self.load(_IRAM, self.reg_read(op.value))
        if k is _K_IMM8 or k is _K_IMM16:
            return op.value
        raise AssertionError(k)

    def write_operand(self, op: isa.Operand, v):
        k = op.kind
        if k is _K_ACC:
            self.set_acc(v)
        elif k is _K_REG:
            self.reg_write(op.value, v)
        elif k is _K_DIRECT:
            region = _IRAM if op.value < 0x80 else _SFR
            self.store(region, op.value, v)
        elif k is _K_INDIRECT:
            self.store(_IRAM, self.reg_read(op.value), v)
        else:
            raise AssertionError(k)

    def bit_location(self, bit: int) -> tuple[Region, int, int]:
        """(region, byte address, bit index) for a bit-address operand."""
        if bit < 0x80:
            return _IRAM, 0x20 + (bit >> 3), bit & 7
        return _SFR, bit & 0xF8, bit & 7

    def read_bit(self, bit: int) -> Tmp:
        region, addr, idx = self.bit_location(bit)
        if addr == _PSW:
            byte = self.psw_norm()
        else:
            byte = self.load(region, addr)
        return self.tmp("and", (self.tmp("shr", (byte, idx), 8), 1), 8)

    def write_bit_value(self, bit: int, v):
        """Read-modify-write of the containing byte; v must be 0/1."""
        region, addr, idx = self.bit_location(bit)
        byte = self.psw_norm() if addr == _PSW else self.load(region, addr)
        cleared = self.tmp("and", (byte, (~(1 << idx)) & 0xFF), 8)
        newb = self.tmp("or", (cleared, self.tmp("shl", (v, idx), 8)), 8)
        self.store(region, addr, newb)

    def push(self, v):
        sp = self.sfr(_SP)
        sp1 = self.tmp("add", (sp, 1), 8)
        self.put(_SP, sp1)
        self.store(_IRAM, sp1, v)

    def add_with_flags(self, value, carry_in):
        a = self.acc()
        total = self.tmp("add", (self.tmp("add", (a, value), 16), carry_in), 16)
        r = self.tmp("and", (total, 0xFF), 8)
        cy = self.tmp("shr", (total, 8), 8)
        an = self.tmp("and", (a, 0x0F), 8)
        bn = self.tmp("and", (value, 0x0F), 8)
        nib = self.tmp("add", (self.tmp("add", (an, bn), 16), carry_in), 16)
        ac = self.tmp("shr", (nib, 4), 8)
        ac = self.tmp("and", (ac, 1), 8)
        xa = self.tmp("xor", (a, r), 8)
        xb = self.tmp("xor", (value, r), 8)
        ov = self.tmp("shr", (self.tmp("and", (xa, xb), 8), 7), 8)
        self.set_flags(cy=cy, ac=ac, ov=ov)
        self.set_acc(r)


# -- emitters -----------------------------------------------------------
# One per mnemonic, looked up in _EMITTERS: emit(e, ops, next_pc) emits the
# IR of one instruction with operands ops, whose successor in the image is at
# next_pc, and returns its terminator, or None when it falls through.

def _lift_nop(e: _Emit, ops, next_pc):
    return None


def _lift_jump(e: _Emit, ops, next_pc):  # LJMP, AJMP, SJMP
    return Jump(ops[0].value)


def _lift_jmp(e: _Emit, ops, next_pc):  # @A+DPTR
    t = e.tmp("add", (e.acc(), e.dptr()), 16)
    return Jump(t)


def _lift_call(e: _Emit, ops, next_pc):  # LCALL, ACALL
    e.push(next_pc & 0xFF)
    e.push(next_pc >> 8)
    return Jump(ops[0].value)


def _return(reti: bool):
    """The emitter of RETI when reti is true, else of RET."""
    def lift_return(e: _Emit, ops, next_pc):
        sp = e.sfr(_SP)
        hi = e.load(_IRAM, sp)
        sp1 = e.tmp("sub", (sp, 1), 8)
        lo = e.load(_IRAM, sp1)
        e.put(_SP, e.tmp("sub", (sp, 2), 8))
        target = e.tmp("or", (e.tmp("shl", (hi, 8), 16), lo), 16)
        return RetMark(target, reti)
    return lift_return


def _lift_jz(e: _Emit, ops, next_pc):
    return CJump(e.tmp("eq", (e.acc(), 0), 8), ops[0].value, next_pc)


def _lift_jnz(e: _Emit, ops, next_pc):
    return CJump(e.tmp("ne", (e.acc(), 0), 8), ops[0].value, next_pc)


def _lift_jc(e: _Emit, ops, next_pc):
    return CJump(e.carry(), ops[0].value, next_pc)


def _lift_jnc(e: _Emit, ops, next_pc):
    return CJump(e.tmp("eq", (e.carry(), 0), 8), ops[0].value, next_pc)


def _lift_jb(e: _Emit, ops, next_pc):
    return CJump(e.read_bit(ops[0].value), ops[1].value, next_pc)


def _lift_jnb(e: _Emit, ops, next_pc):
    cond = e.tmp("eq", (e.read_bit(ops[0].value), 0), 8)
    return CJump(cond, ops[1].value, next_pc)


def _lift_jbc(e: _Emit, ops, next_pc):
    region, addr, idx = e.bit_location(ops[0].value)
    byte = e.psw_norm() if addr == _PSW else e.load(region, addr)
    bit = e.tmp("and", (e.tmp("shr", (byte, idx), 8), 1), 8)
    cleared = e.tmp("and", (byte, (~(1 << idx)) & 0xFF), 8)
    # untaken arm must leave the stored byte untouched (PSW keeps its raw
    # dead parity bit), so reload raw for the else value
    old = e.psw_raw() if addr == _PSW else byte
    newb = e.tmp("ite", (bit, cleared, old), 8)
    e.store(region, addr, newb)
    return CJump(bit, ops[1].value, next_pc)


def _lift_cjne(e: _Emit, ops, next_pc):
    a = e.read_operand(ops[0])
    b = e.read_operand(ops[1])
    e.set_flags(cy=e.tmp("ult", (a, b), 8))
    return CJump(e.tmp("ne", (a, b), 8), ops[2].value, next_pc)


def _lift_djnz(e: _Emit, ops, next_pc):
    v = e.tmp("sub", (e.read_operand(ops[0]), 1), 8)
    e.write_operand(ops[0], v)
    return CJump(e.tmp("ne", (v, 0), 8), ops[1].value, next_pc)


def _lift_mov(e: _Emit, ops, next_pc):
    k0 = ops[0].kind
    if k0 is _K_DPTR:
        e.put(_DPL, ops[1].value & 0xFF)
        e.put(_DPH, ops[1].value >> 8)
    elif k0 is _K_CARRY:
        e.set_flags(cy=e.read_bit(ops[1].value))
    elif k0 is _K_BIT:
        e.write_bit_value(ops[0].value, e.carry())
    else:
        e.write_operand(ops[0], e.read_operand(ops[1]))
    return None


def _lift_movc(e: _Emit, ops, next_pc):
    if ops[1].kind is _K_CODE_DPTR:
        addr = e.tmp("add", (e.acc(), e.dptr()), 16)
    else:  # @A+PC: base is the address of the *next* instruction
        addr = e.tmp("add", (e.acc(), next_pc), 16)
    e.set_acc(e.load(_CODE, addr))
    return None


def _lift_movx(e: _Emit, ops, next_pc):
    if ops[0].kind is _K_ACC:
        src = ops[1]
        addr = e.dptr() if src.kind is _K_IND_DPTR else e.reg_read(src.value)
        e.set_acc(e.load(_XRAM, addr))
    else:
        dst = ops[0]
        addr = e.dptr() if dst.kind is _K_IND_DPTR else e.reg_read(dst.value)
        e.store(_XRAM, addr, e.acc())
    return None


def _lift_add(e: _Emit, ops, next_pc):
    e.add_with_flags(e.read_operand(ops[1]), 0)
    return None


def _lift_addc(e: _Emit, ops, next_pc):
    e.add_with_flags(e.read_operand(ops[1]), e.carry())
    return None


def _lift_subb(e: _Emit, ops, next_pc):
    a = e.acc()
    v = e.read_operand(ops[1])
    c = e.carry()
    total = e.tmp("sub", (e.tmp("sub", (a, v), 16), c), 16)
    r = e.tmp("and", (total, 0xFF), 8)
    cy = e.tmp("and", (e.tmp("shr", (total, 8), 16), 1), 8)  # borrow bit
    nib = e.tmp("sub", (e.tmp("sub", (e.tmp("and", (a, 0x0F), 8),
                                      e.tmp("and", (v, 0x0F), 8)), 16), c), 16)
    ac = e.tmp("and", (e.tmp("shr", (nib, 4), 16), 1), 8)
    xav = e.tmp("xor", (a, v), 8)
    xar = e.tmp("xor", (a, r), 8)
    ov = e.tmp("shr", (e.tmp("and", (xav, xar), 8), 7), 8)
    e.set_flags(cy=cy, ac=ac, ov=ov)
    e.set_acc(r)
    return None


def _lift_inc(e: _Emit, ops, next_pc):
    if ops[0].kind is _K_DPTR:
        e.set_dptr(e.tmp("add", (e.dptr(), 1), 16))
    else:
        e.write_operand(ops[0], e.tmp("add", (e.read_operand(ops[0]), 1), 8))
    return None


def _lift_dec(e: _Emit, ops, next_pc):
    e.write_operand(ops[0], e.tmp("sub", (e.read_operand(ops[0]), 1), 8))
    return None


def _logic(opname: str):
    """The emitter of ANL, ORL or XRL, whose IR operator is opname."""
    def lift_logic(e: _Emit, ops, next_pc):
        if ops[0].kind is _K_CARRY:
            bv = e.read_bit(ops[1].value)
            if ops[1].kind is _K_NOT_BIT:
                bv = e.tmp("xor", (bv, 1), 8)
            e.set_flags(cy=e.tmp(opname, (e.carry(), bv), 8))
        else:
            r = e.tmp(opname, (e.read_operand(ops[0]), e.read_operand(ops[1])), 8)
            e.write_operand(ops[0], r)
        return None
    return lift_logic


def _lift_clr(e: _Emit, ops, next_pc):
    if ops[0].kind is _K_ACC:
        e.set_acc(0)
    elif ops[0].kind is _K_CARRY:
        e.set_flags(cy=0)
    else:
        e.write_bit_value(ops[0].value, 0)
    return None


def _lift_setb(e: _Emit, ops, next_pc):
    if ops[0].kind is _K_CARRY:
        e.set_flags(cy=1)
    else:
        e.write_bit_value(ops[0].value, 1)
    return None


def _lift_cpl(e: _Emit, ops, next_pc):
    if ops[0].kind is _K_ACC:
        e.set_acc(e.tmp("xor", (e.acc(), 0xFF), 8))
    elif ops[0].kind is _K_CARRY:
        e.set_flags(cy=e.tmp("xor", (e.carry(), 1), 8))
    else:
        b = e.read_bit(ops[0].value)
        e.write_bit_value(ops[0].value, e.tmp("xor", (b, 1), 8))
    return None


def _lift_rl(e: _Emit, ops, next_pc):
    e.set_acc(e.tmp("rotl", (e.acc(), 1), 8))
    return None


def _lift_rr(e: _Emit, ops, next_pc):
    e.set_acc(e.tmp("rotl", (e.acc(), 7), 8))
    return None


def _lift_rlc(e: _Emit, ops, next_pc):
    a = e.acc()
    c = e.carry()
    e.set_flags(cy=e.tmp("shr", (a, 7), 8))
    e.set_acc(e.tmp("or", (e.tmp("shl", (a, 1), 8), c), 8))
    return None


def _lift_rrc(e: _Emit, ops, next_pc):
    a = e.acc()
    c = e.carry()
    e.set_flags(cy=e.tmp("and", (a, 1), 8))
    e.set_acc(e.tmp("or", (e.tmp("shl", (c, 7), 8), e.tmp("shr", (a, 1), 8)), 8))
    return None


def _lift_swap(e: _Emit, ops, next_pc):
    e.set_acc(e.tmp("rotl", (e.acc(), 4), 8))
    return None


def _lift_xch(e: _Emit, ops, next_pc):
    a = e.acc()
    other = e.read_operand(ops[1])
    e.set_acc(other)
    e.write_operand(ops[1], a)
    return None


def _lift_xchd(e: _Emit, ops, next_pc):
    a = e.acc()
    other = e.read_operand(ops[1])
    e.set_acc(e.tmp("or", (e.tmp("and", (a, 0xF0), 8),
                           e.tmp("and", (other, 0x0F), 8)), 8))
    e.write_operand(ops[1], e.tmp("or", (e.tmp("and", (other, 0xF0), 8),
                                         e.tmp("and", (a, 0x0F), 8)), 8))
    return None


def _lift_mul(e: _Emit, ops, next_pc):
    prod = e.tmp("mul", (e.acc(), e.sfr(_B)), 16)
    hi = e.tmp("shr", (prod, 8), 8)
    e.set_acc(e.tmp("and", (prod, 0xFF), 8))
    e.put(_B, hi)
    e.set_flags(cy=0, ov=e.tmp("ne", (hi, 0), 8))
    return None


def _lift_div(e: _Emit, ops, next_pc):
    a = e.acc()
    b = e.sfr(_B)
    bz = e.tmp("eq", (b, 0), 8)
    q = e.tmp("ite", (bz, a, e.tmp("udiv", (a, b), 8)), 8)
    r = e.tmp("ite", (bz, b, e.tmp("umod", (a, b), 8)), 8)
    e.set_acc(q)
    e.put(_B, r)
    e.set_flags(cy=0, ov=bz)
    return None


def _lift_da(e: _Emit, ops, next_pc):
    a = e.acc()
    cy = e.carry()
    ac = e.tmp("and", (e.tmp("shr", (e.psw_raw(), 6), 8), 1), 8)
    lowsel = e.tmp("or", (e.tmp("ugt", (e.tmp("and", (a, 0x0F), 8), 9), 8), ac), 8)
    t1 = e.tmp("add", (a, e.tmp("ite", (lowsel, 0x06, 0), 8)), 16)
    cy1 = e.tmp("or", (e.tmp("shr", (t1, 8), 8), cy), 8)
    a1 = e.tmp("and", (t1, 0xFF), 8)
    highsel = e.tmp("or", (cy1, e.tmp("ugt", (e.tmp("shr", (a1, 4), 8), 9), 8)), 8)
    t2 = e.tmp("add", (a1, e.tmp("ite", (highsel, 0x60, 0), 8)), 16)
    cyf = e.tmp("or", (cy1, e.tmp("shr", (t2, 8), 8)), 8)
    e.set_acc(e.tmp("and", (t2, 0xFF), 8))
    e.set_flags(cy=cyf)
    return None


def _lift_push(e: _Emit, ops, next_pc):
    v = e.read_operand(ops[0])
    e.push(v)
    return None


def _lift_pop(e: _Emit, ops, next_pc):
    sp = e.sfr(_SP)
    v = e.load(_IRAM, sp)
    e.put(_SP, e.tmp("sub", (sp, 1), 8))
    e.write_operand(ops[0], v)
    return None


_EMITTERS = {
    "NOP": _lift_nop,
    "LJMP": _lift_jump, "AJMP": _lift_jump, "SJMP": _lift_jump,
    "JMP": _lift_jmp,
    "LCALL": _lift_call, "ACALL": _lift_call,
    "RET": _return(False), "RETI": _return(True),
    "JZ": _lift_jz, "JNZ": _lift_jnz, "JC": _lift_jc, "JNC": _lift_jnc,
    "JB": _lift_jb, "JNB": _lift_jnb, "JBC": _lift_jbc,
    "CJNE": _lift_cjne, "DJNZ": _lift_djnz,
    "MOV": _lift_mov, "MOVC": _lift_movc, "MOVX": _lift_movx,
    "ADD": _lift_add, "ADDC": _lift_addc, "SUBB": _lift_subb,
    "INC": _lift_inc, "DEC": _lift_dec,
    "ANL": _logic("and"), "ORL": _logic("or"), "XRL": _logic("xor"),
    "CLR": _lift_clr, "SETB": _lift_setb, "CPL": _lift_cpl,
    "RL": _lift_rl, "RR": _lift_rr, "RLC": _lift_rlc, "RRC": _lift_rrc,
    "SWAP": _lift_swap, "XCH": _lift_xch, "XCHD": _lift_xchd,
    "MUL": _lift_mul, "DIV": _lift_div, "DA": _lift_da,
    "PUSH": _lift_push, "POP": _lift_pop,
}


def _lift_one(e: _Emit, ins: isa.Instruction) -> object | None:
    """Emit IR for one instruction; returns the terminator or None."""
    return _EMITTERS[ins.mnemonic](e, ins.operands,
                                   (ins.addr + ins.length) & 0xFFFF)


# A block ends at the first control-flow instruction, a decode failure, the
# image end, or this many instructions (keeps NOP seas from producing one
# giant block).
MAX_BLOCK_INSTRS = 128


def lift(instrs) -> IRBlock:
    """The block of `instrs`, decoded instructions in fall-through order,
    read lazily: it ends at the first control-flow instruction (terminator
    included), at MAX_BLOCK_INSTRS, or where `instrs` ends, then with a
    Jump to the next address."""
    e = _Emit()
    lifted: list[isa.Instruction] = []
    terminator = None
    for ins in instrs:
        e.stmts.append(Boundary(ins.addr, ins.length))
        lifted.append(ins)
        terminator = _lift_one(e, ins)
        if terminator is not None or len(lifted) >= MAX_BLOCK_INSTRS:
            break
    if terminator is None:
        terminator = Jump((ins.addr + ins.length) & 0xFFFF)
    e.stmts.append(terminator)
    return IRBlock(lifted[0].addr, e.stmts, e.n, lifted)


def _decoded(image: bytes, addr: int):
    """The instructions of image from addr in fall-through order, up to the
    image end or the first that does not decode; a decode failure at addr
    itself propagates."""
    ins = isa.decode(image, addr)
    while True:
        yield ins
        addr = (addr + ins.length) & 0xFFFF
        if addr >= len(image):
            return
        try:
            ins = isa.decode(image, addr)
        except isa.IsaError:
            return  # runtime error surfaces if actually reached


def lift_block(image: bytes, addr: int) -> IRBlock:
    """Lift the basic block starting at addr (terminator included)."""
    return lift(_decoded(image, addr))


def _suffix(blk: IRBlock, k: int) -> IRBlock:
    """The block of blk's instructions from the k-th on: its statements
    from that instruction's `Boundary` on, with blk's temps. Lifting the
    image there ends at the same terminator when blk stopped before
    MAX_BLOCK_INSTRS, and gives the same statements with other temps."""
    addr = blk.instrs[k].addr
    j = next(j for j, st in enumerate(blk.stmts)
             if st.__class__ is Boundary and st.addr == addr)
    return IRBlock(addr, blk.stmts[j:], blk.n_temps, blk.instrs[k:])


class LiftedProgram:
    """Lazily populated cache of lifted blocks, keyed by entry address.

    Each instruction is decoded and lifted once. An entry inside a cached
    block that stopped before MAX_BLOCK_INSTRS gets that block's suffix
    (`_suffix`), which decodes and lifts nothing; any other entry is lifted
    from the image (`lift_block`)."""

    def __init__(self, image: bytes):
        self.image = bytes(image)
        self.cache: dict[int, IRBlock] = {}
        # address -> (block, position) of each instruction after the first
        # of a lifted block that stopped before MAX_BLOCK_INSTRS
        self._inside: dict[int, tuple[IRBlock, int]] = {}

    def block(self, addr: int) -> IRBlock:
        blk = self.cache.get(addr)
        if blk is None:
            held = self._inside.get(addr)
            if held is not None:
                blk = _suffix(*held)
            else:
                blk = lift_block(self.image, addr)
                instrs = blk.instrs
                if len(instrs) < MAX_BLOCK_INSTRS:
                    inside = self._inside
                    for k in range(1, len(instrs)):
                        inside[instrs[k].addr] = (blk, k)
            self.cache[addr] = blk
        return blk


def lift_program(image: bytes) -> LiftedProgram:
    return LiftedProgram(image)


def discover_isrs(program: LiftedProgram) -> dict[str, int]:
    """Interrupt sources -> handler entries, read off the first instruction
    of each vector's lifted block: RETI (or no instruction) means no
    handler, a direct jump enters at its target, anything else at the
    vector."""
    isrs: dict[str, int] = {}
    for source, (vector, _bit) in machine.INT_SOURCES.items():
        try:
            ins = program.block(vector).instrs[0]
        except isa.IsaError:
            continue
        if ins.mnemonic == "RETI":
            continue
        isrs[source] = (ins.operands[0].value
                        if ins.mnemonic in ("LJMP", "AJMP", "SJMP")
                        else vector)
    return isrs


# ---------------------------------------------------------------------------
# Concrete IR evaluation (ints only) -- reference executor for the lifter and
# the fast half of the lifter/interpreter differential tests.
# ---------------------------------------------------------------------------

# Operator semantics are owned by the expression module so the concrete and
# symbolic evaluations of the same IR can never drift apart.
from .solver import OPS  # noqa: E402


def run_lifted(program: LiftedProgram, st: machine.ConcreteState,
               max_instrs: int) -> int:
    """Execute lifted IR concretely over a ConcreteState. Returns instructions run.

    Stops when max_instrs is reached, the PC leaves the image, or decoding
    fails at the PC. Accesses the raw memory images directly: all PSW parity
    and bank-pointer handling is already explicit in the IR.
    """
    image = program.image
    iram = st.iram
    sfr = st.sfr
    xram = st.xram
    executed = 0
    while st.pc < len(image):
        try:
            blk = program.block(st.pc)
        except isa.IsaError:
            break
        vals = [0] * blk.n_temps
        next_pc = None
        for stmt in blk.stmts:
            cls = stmt.__class__
            if cls is Assign:
                args = stmt.args
                if len(args) == 2:  # most statements: no list to build
                    x, y = args
                    args = (vals[x.i] if type(x) is Tmp else x,
                            vals[y.i] if type(y) is Tmp else y)
                else:
                    args = [vals[x.i] if type(x) is Tmp else x for x in args]
                vals[stmt.dst.i] = OPS[stmt.op]((1 << stmt.width) - 1, args)
            elif cls is Load:
                a = stmt.addr
                addr = vals[a.i] if type(a) is Tmp else a
                r = stmt.region
                if r == _IRAM:
                    vals[stmt.dst.i] = iram[addr & 0xFF]
                elif r == _SFR:
                    vals[stmt.dst.i] = sfr[(addr - 0x80) & 0x7F]
                elif r == _XRAM:
                    vals[stmt.dst.i] = xram.get(addr & 0xFFFF, 0)
                else:
                    vals[stmt.dst.i] = image[addr] if addr < len(image) else 0
            elif cls is Store:
                a = stmt.addr
                addr = vals[a.i] if type(a) is Tmp else a
                v = stmt.src
                v = vals[v.i] if type(v) is Tmp else v
                r = stmt.region
                if r == _SFR:  # first: every register write is one
                    sfr[(addr - 0x80) & 0x7F] = v
                elif r == _IRAM:
                    iram[addr & 0xFF] = v
                elif r == _XRAM:
                    xram[addr & 0xFFFF] = v
                else:
                    raise AssertionError("store to CODE")
            elif cls is Boundary:
                if executed >= max_instrs:
                    st.pc = stmt.addr
                    return executed
                executed += 1
                st.instr_count += 1
            elif cls is CJump:
                c = stmt.cond
                c = vals[c.i] if type(c) is Tmp else c
                next_pc = stmt.taken if c else stmt.fall
            elif cls is Jump:
                t = stmt.target
                next_pc = vals[t.i] if type(t) is Tmp else t
            elif cls is RetMark:
                t = stmt.target
                next_pc = vals[t.i] if type(t) is Tmp else t
                if stmt.reti:
                    st.in_interrupt = False
        st.pc = next_pc & 0xFFFF
    return executed


# ---------------------------------------------------------------------------
# Pretty printer (stable text form, one statement per line)
# ---------------------------------------------------------------------------

def _atom_text(a) -> str:
    if type(a) is Tmp:
        return f"t{a.i}"
    return f"0x{a:x}"


def _target_text(a) -> str:
    if type(a) is Tmp:
        return f"t{a.i}"
    return f"0x{a:04x}"


def format_block(blk: IRBlock) -> str:
    lines = [f"block 0x{blk.addr:04x}"]
    for s in blk.stmts:
        cls = s.__class__
        if cls is Boundary:
            lines.append(f"  instr 0x{s.addr:04x} len {s.length}")
        elif cls is Assign:
            args = ", ".join(_atom_text(a) for a in s.args)
            lines.append(f"  t{s.dst.i} = {s.op}.{s.width}({args})")
        elif cls is Load:
            lines.append(f"  t{s.dst.i} = load.{Region(s.region).name}"
                         f"[{_atom_text(s.addr)}]")
        elif cls is Store:
            if s.region == _SFR and s.addr in _REG_NAMES:
                dst = f"put {_REG_NAMES[s.addr]}"
            else:
                dst = f"store.{Region(s.region).name}[{_atom_text(s.addr)}]"
            lines.append(f"  {dst} = {_atom_text(s.src)}")
        elif cls is CJump:
            lines.append(f"  cjump {_atom_text(s.cond)} ? 0x{s.taken:04x}"
                         f" : 0x{s.fall:04x}")
        elif cls is Jump:
            lines.append(f"  jump {_target_text(s.target)}")
        elif cls is RetMark:
            kind = "reti" if s.reti else "ret"
            lines.append(f"  {kind} {_target_text(s.target)}")
    return "\n".join(lines)
