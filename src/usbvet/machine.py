"""Concrete 8051/8052 machine model.

Register file, the three runtime memory images (IRAM / SFR / XRAM; CODE is the
read-only image itself), the interrupt vectors and their IE gating, and a
plain interpreter, independent of the IR lifter, so the two can be
differentially tested against each other. The interpreter looks each
instruction's mnemonic up in a table of step handlers, one per mnemonic, and
keeps a decode memo for the last image it ran: each code address is decoded
once per image object, which is exact because CODE memory is read-only at
run time (the image must not change between steps).

Conventions pinned here (and mirrored by the lifter):
  - PSW bit 0 (parity of ACC) is combinational hardware; the stored byte's
    bit 0 is dead and every read of PSW substitutes parity(ACC).
  - DIV AB with B == 0 leaves A and B unchanged and sets OV (the datasheet
    declares the results undefined).
  - MOVX @Ri addresses XRAM page 0 (P2 paging is not modeled).
  - XRAM and unimplemented SFR addresses read 0 until written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import isa

# SFR addresses
P0 = 0x80
SP = 0x81
DPL = 0x82
DPH = 0x83
PCON = 0x87
TCON = 0x88
P1 = 0x90
SCON = 0x98
SBUF = 0x99
P2 = 0xA0
IE = 0xA8
P3 = 0xB0
IP = 0xB8
PSW = 0xD0
ACC = 0xE0
B = 0xF0
# 8052 timer-2 block
T2CON = 0xC8
RCAP2L = 0xCA
RCAP2H = 0xCB
TL2 = 0xCC
TH2 = 0xCD

SFR_NAMES = {
    P0: "P0", SP: "SP", DPL: "DPL", DPH: "DPH", PCON: "PCON", TCON: "TCON",
    P1: "P1", SCON: "SCON", SBUF: "SBUF", P2: "P2", IE: "IE", P3: "P3",
    IP: "IP", PSW: "PSW", ACC: "ACC", B: "B",
    T2CON: "T2CON", RCAP2L: "RCAP2L", RCAP2H: "RCAP2H", TL2: "TL2", TH2: "TH2",
}

# PSW bit positions
PSW_P = 0
PSW_OV = 2
PSW_AC = 6
PSW_CY = 7

RESET_SP = 0x07

# Interrupt sources: vector address and IE enable bit.
INT_SOURCES = {
    "external0": (0x0003, 0),
    "timer0": (0x000B, 1),
    "external1": (0x0013, 2),
    "timer1": (0x001B, 3),
    "serial": (0x0023, 4),
    "timer2": (0x002B, 5),  # 8052
}
IE_EA_BIT = 7


class MachineError(Exception):
    pass


class StackOverflow(MachineError):
    pass


def parity(v: int) -> int:
    """1 if v has an odd number of set bits (8051 P flag convention)."""
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return v & 1


def _reset_sfr() -> bytearray:
    """The SFR file at reset: every register 0 but SP, which is RESET_SP."""
    sfr = bytearray(128)
    sfr[SP - 0x80] = RESET_SP
    return sfr


@dataclass
class ConcreteState:
    """A machine state. A default state is the reset state; a given `sfr`
    is taken as it is, SP included, so `clone` copies every byte."""
    pc: int = 0
    iram: bytearray = field(default_factory=lambda: bytearray(256))
    sfr: bytearray = field(default_factory=_reset_sfr)
    xram: dict[int, int] = field(default_factory=dict)
    instr_count: int = 0
    in_interrupt: bool = False

    def clone(self) -> "ConcreteState":
        return ConcreteState(self.pc, bytearray(self.iram), bytearray(self.sfr),
                             dict(self.xram), self.instr_count,
                             self.in_interrupt)

    # SFR access. Reads of PSW fold in the live parity bit.
    def read_sfr(self, addr: int) -> int:
        v = self.sfr[addr - 0x80]
        if addr == PSW:
            v = (v & 0xFE) | parity(self.sfr[ACC - 0x80])
        return v

    def write_sfr(self, addr: int, value: int):
        self.sfr[addr - 0x80] = value & 0xFF

    def read_direct(self, addr: int) -> int:
        if addr < 0x80:
            return self.iram[addr]
        return self.read_sfr(addr)

    def write_direct(self, addr: int, value: int):
        if addr < 0x80:
            self.iram[addr] = value & 0xFF
        else:
            self.write_sfr(addr, value)

    def read_xram(self, addr: int) -> int:
        return self.xram.get(addr & 0xFFFF, 0)

    def write_xram(self, addr: int, value: int):
        self.xram[addr & 0xFFFF] = value & 0xFF

    # Register bank helpers: R0-R7 alias IRAM[bank_base + n].
    def bank_base(self) -> int:
        return self.sfr[PSW - 0x80] & 0x18

    def reg(self, n: int) -> int:
        return self.iram[self.bank_base() + n]

    def set_reg(self, n: int, value: int):
        self.iram[self.bank_base() + n] = value & 0xFF

    @property
    def acc(self) -> int:
        return self.sfr[ACC - 0x80]

    @acc.setter
    def acc(self, v: int):
        self.sfr[ACC - 0x80] = v & 0xFF

    @property
    def dptr(self) -> int:
        return (self.sfr[DPH - 0x80] << 8) | self.sfr[DPL - 0x80]

    @dptr.setter
    def dptr(self, v: int):
        self.sfr[DPL - 0x80] = v & 0xFF
        self.sfr[DPH - 0x80] = (v >> 8) & 0xFF

    @property
    def sp(self) -> int:
        return self.sfr[SP - 0x80]

    @sp.setter
    def sp(self, v: int):
        self.sfr[SP - 0x80] = v & 0xFF

    def flag(self, bit: int) -> int:
        if bit == PSW_P:
            return parity(self.acc)
        return (self.sfr[PSW - 0x80] >> bit) & 1

    def set_flag(self, bit: int, value: int):
        raw = self.sfr[PSW - 0x80]
        if value:
            raw |= 1 << bit
        else:
            raw &= ~(1 << bit) & 0xFF
        self.sfr[PSW - 0x80] = raw

    # Bit-addressable space: 0x00-0x7F map to IRAM 0x20-0x2F, 0x80-0xFF to
    # SFR bits (byte address = bit & 0xF8).
    def bit_byte_addr(self, bit: int) -> int:
        if bit < 0x80:
            return 0x20 + (bit >> 3)
        return bit & 0xF8

    def read_bit(self, bit: int) -> int:
        byte = self.read_direct(self.bit_byte_addr(bit))
        return (byte >> (bit & 7)) & 1

    def write_bit(self, bit: int, value: int):
        addr = self.bit_byte_addr(bit)
        byte = self.read_direct(addr)
        mask = 1 << (bit & 7)
        self.write_direct(addr, (byte | mask) if value else (byte & ~mask))

    def push(self, value: int):
        if self.sp == 0xFF:
            raise StackOverflow(f"SP wrap at pc=0x{self.pc:04x}")
        self.sp = self.sp + 1
        self.iram[self.sp] = value & 0xFF

    def pop(self) -> int:
        v = self.iram[self.sp]
        self.sp = (self.sp - 1) & 0xFF
        return v


# OpKind members the step handlers test, read through module aliases: an
# enum attribute lookup costs several times a global read.
_K_ACC, _K_REG = isa.OpKind.ACC, isa.OpKind.REG
_K_DIRECT, _K_INDIRECT = isa.OpKind.DIRECT, isa.OpKind.INDIRECT
_K_IMM8, _K_IMM16 = isa.OpKind.IMM8, isa.OpKind.IMM16
_K_BIT, _K_NOT_BIT = isa.OpKind.BIT, isa.OpKind.NOT_BIT
_K_CARRY, _K_DPTR = isa.OpKind.CARRY, isa.OpKind.DPTR
_K_IND_DPTR, _K_CODE_DPTR = isa.OpKind.IND_DPTR, isa.OpKind.CODE_DPTR


def _operand_value(st: ConcreteState, op: isa.Operand) -> int:
    k = op.kind
    if k is _K_ACC:
        return st.acc
    if k is _K_REG:
        return st.reg(op.value)
    if k is _K_DIRECT:
        return st.read_direct(op.value)
    if k is _K_INDIRECT:
        return st.iram[st.reg(op.value)]
    if k is _K_IMM8 or k is _K_IMM16:
        return op.value
    raise AssertionError(k)


def _operand_store(st: ConcreteState, op: isa.Operand, value: int):
    k = op.kind
    if k is _K_ACC:
        st.acc = value
    elif k is _K_REG:
        st.set_reg(op.value, value)
    elif k is _K_DIRECT:
        st.write_direct(op.value, value)
    elif k is _K_INDIRECT:
        st.iram[st.reg(op.value)] = value & 0xFF
    else:
        raise AssertionError(k)


def _add(st: ConcreteState, value: int, carry_in: int):
    a = st.acc
    total = a + value + carry_in
    st.set_flag(PSW_CY, total > 0xFF)
    st.set_flag(PSW_AC, ((a & 0x0F) + (value & 0x0F) + carry_in) > 0x0F)
    r = total & 0xFF
    st.set_flag(PSW_OV, ((a ^ r) & (value ^ r) & 0x80) != 0)
    st.acc = r


def _subb(st: ConcreteState, value: int):
    a = st.acc
    c = st.flag(PSW_CY)
    total = a - value - c
    st.set_flag(PSW_CY, total < 0)
    st.set_flag(PSW_AC, ((a & 0x0F) - (value & 0x0F) - c) < 0)
    r = total & 0xFF
    st.set_flag(PSW_OV, ((a ^ value) & (a ^ r) & 0x80) != 0)
    st.acc = r


# One step handler per mnemonic: handler(st, ops, next_pc, image) executes
# the instruction whose operands are `ops`, with st.pc already at next_pc.

def _step_nop(st, ops, next_pc, image):
    pass


def _step_jump(st, ops, next_pc, image):  # LJMP, AJMP, SJMP
    st.pc = ops[0].value


def _step_jmp(st, ops, next_pc, image):  # @A+DPTR
    st.pc = (st.acc + st.dptr) & 0xFFFF


def _step_call(st, ops, next_pc, image):  # LCALL, ACALL
    st.push(next_pc & 0xFF)
    st.push(next_pc >> 8)
    st.pc = ops[0].value


def _return(reti: bool):
    def step(st, ops, next_pc, image):
        hi = st.pop()
        lo = st.pop()
        st.pc = (hi << 8) | lo
        if reti:
            st.in_interrupt = False
    return step


def _step_jz(st, ops, next_pc, image):
    if st.acc == 0:
        st.pc = ops[0].value


def _step_jnz(st, ops, next_pc, image):
    if st.acc != 0:
        st.pc = ops[0].value


def _step_jc(st, ops, next_pc, image):
    if st.flag(PSW_CY):
        st.pc = ops[0].value


def _step_jnc(st, ops, next_pc, image):
    if not st.flag(PSW_CY):
        st.pc = ops[0].value


def _step_jb(st, ops, next_pc, image):
    if st.read_bit(ops[0].value):
        st.pc = ops[1].value


def _step_jnb(st, ops, next_pc, image):
    if not st.read_bit(ops[0].value):
        st.pc = ops[1].value


def _step_jbc(st, ops, next_pc, image):
    if st.read_bit(ops[0].value):
        st.write_bit(ops[0].value, 0)
        st.pc = ops[1].value


def _step_cjne(st, ops, next_pc, image):
    a = _operand_value(st, ops[0])
    b_val = _operand_value(st, ops[1])
    st.set_flag(PSW_CY, a < b_val)
    if a != b_val:
        st.pc = ops[2].value


def _step_djnz(st, ops, next_pc, image):
    v = (_operand_value(st, ops[0]) - 1) & 0xFF
    _operand_store(st, ops[0], v)
    if v != 0:
        st.pc = ops[1].value


def _step_mov(st, ops, next_pc, image):
    k0 = ops[0].kind
    if k0 is _K_DPTR:
        st.dptr = ops[1].value
    elif k0 is _K_CARRY:
        st.set_flag(PSW_CY, st.read_bit(ops[1].value))
    elif k0 is _K_BIT:
        st.write_bit(ops[0].value, st.flag(PSW_CY))
    else:
        _operand_store(st, ops[0], _operand_value(st, ops[1]))


def _step_movc(st, ops, next_pc, image):
    base = st.dptr if ops[1].kind is _K_CODE_DPTR else next_pc
    addr = (st.acc + base) & 0xFFFF
    st.acc = image[addr] if addr < len(image) else 0


def _step_movx(st, ops, next_pc, image):
    if ops[0].kind is _K_ACC:
        src = ops[1]
        addr = st.dptr if src.kind is _K_IND_DPTR else st.reg(src.value)
        st.acc = st.read_xram(addr)
    else:
        dst = ops[0]
        addr = st.dptr if dst.kind is _K_IND_DPTR else st.reg(dst.value)
        st.write_xram(addr, st.acc)


def _step_add(st, ops, next_pc, image):
    _add(st, _operand_value(st, ops[1]), 0)


def _step_addc(st, ops, next_pc, image):
    _add(st, _operand_value(st, ops[1]), st.flag(PSW_CY))


def _step_subb(st, ops, next_pc, image):
    _subb(st, _operand_value(st, ops[1]))


def _step_inc(st, ops, next_pc, image):
    if ops[0].kind is _K_DPTR:
        st.dptr = (st.dptr + 1) & 0xFFFF
    else:
        _operand_store(st, ops[0], (_operand_value(st, ops[0]) + 1) & 0xFF)


def _step_dec(st, ops, next_pc, image):
    _operand_store(st, ops[0], (_operand_value(st, ops[0]) - 1) & 0xFF)


def _logic(m: str):
    """The ANL, ORL or XRL handler: a byte operation, or for ANL and ORL
    also the carry with a bit or a complemented bit."""
    def step(st, ops, next_pc, image):
        if ops[0].kind is _K_CARRY:
            bit_op = ops[1]
            bv = st.read_bit(bit_op.value)
            if bit_op.kind is _K_NOT_BIT:
                bv ^= 1
            c = st.flag(PSW_CY)
            st.set_flag(PSW_CY, (c & bv) if m == "ANL" else (c | bv))
        else:
            a = _operand_value(st, ops[0])
            b_val = _operand_value(st, ops[1])
            r = a & b_val if m == "ANL" else a | b_val if m == "ORL" else a ^ b_val
            _operand_store(st, ops[0], r)
    return step


def _step_clr(st, ops, next_pc, image):
    if ops[0].kind is _K_ACC:
        st.acc = 0
    elif ops[0].kind is _K_CARRY:
        st.set_flag(PSW_CY, 0)
    else:
        st.write_bit(ops[0].value, 0)


def _step_setb(st, ops, next_pc, image):
    if ops[0].kind is _K_CARRY:
        st.set_flag(PSW_CY, 1)
    else:
        st.write_bit(ops[0].value, 1)


def _step_cpl(st, ops, next_pc, image):
    if ops[0].kind is _K_ACC:
        st.acc = st.acc ^ 0xFF
    elif ops[0].kind is _K_CARRY:
        st.set_flag(PSW_CY, st.flag(PSW_CY) ^ 1)
    else:
        st.write_bit(ops[0].value, st.read_bit(ops[0].value) ^ 1)


def _step_rl(st, ops, next_pc, image):
    a = st.acc
    st.acc = ((a << 1) | (a >> 7)) & 0xFF


def _step_rr(st, ops, next_pc, image):
    a = st.acc
    st.acc = ((a >> 1) | (a << 7)) & 0xFF


def _step_rlc(st, ops, next_pc, image):
    a = st.acc
    c = st.flag(PSW_CY)
    st.set_flag(PSW_CY, (a >> 7) & 1)
    st.acc = ((a << 1) | c) & 0xFF


def _step_rrc(st, ops, next_pc, image):
    a = st.acc
    c = st.flag(PSW_CY)
    st.set_flag(PSW_CY, a & 1)
    st.acc = (c << 7) | (a >> 1)


def _step_swap(st, ops, next_pc, image):
    a = st.acc
    st.acc = ((a << 4) | (a >> 4)) & 0xFF


def _step_xch(st, ops, next_pc, image):
    other = _operand_value(st, ops[1])
    a = st.acc
    st.acc = other
    _operand_store(st, ops[1], a)


def _step_xchd(st, ops, next_pc, image):
    other = _operand_value(st, ops[1])
    a = st.acc
    st.acc = (a & 0xF0) | (other & 0x0F)
    _operand_store(st, ops[1], (other & 0xF0) | (a & 0x0F))


def _step_mul(st, ops, next_pc, image):
    prod = st.acc * st.sfr[B - 0x80]
    st.acc = prod & 0xFF
    st.write_sfr(B, prod >> 8)
    st.set_flag(PSW_CY, 0)
    st.set_flag(PSW_OV, prod > 0xFF)


def _step_div(st, ops, next_pc, image):
    b_val = st.sfr[B - 0x80]
    st.set_flag(PSW_CY, 0)
    if b_val == 0:
        st.set_flag(PSW_OV, 1)
    else:
        a = st.acc
        st.acc = a // b_val
        st.write_sfr(B, a % b_val)
        st.set_flag(PSW_OV, 0)


def _step_da(st, ops, next_pc, image):
    a = st.acc
    cy = st.flag(PSW_CY)
    if (a & 0x0F) > 9 or st.flag(PSW_AC):
        a += 0x06
        if a > 0xFF:
            cy = 1
        a &= 0xFF
    if cy or ((a >> 4) & 0x0F) > 9:
        a += 0x60
        if a > 0xFF:
            cy = 1
        a &= 0xFF
    st.set_flag(PSW_CY, cy)
    st.acc = a


def _step_push(st, ops, next_pc, image):
    st.push(st.read_direct(ops[0].value))


def _step_pop(st, ops, next_pc, image):
    st.write_direct(ops[0].value, st.pop())


_STEPS = {
    "NOP": _step_nop,
    "LJMP": _step_jump, "AJMP": _step_jump, "SJMP": _step_jump,
    "JMP": _step_jmp,
    "LCALL": _step_call, "ACALL": _step_call,
    "RET": _return(False), "RETI": _return(True),
    "JZ": _step_jz, "JNZ": _step_jnz, "JC": _step_jc, "JNC": _step_jnc,
    "JB": _step_jb, "JNB": _step_jnb, "JBC": _step_jbc,
    "CJNE": _step_cjne, "DJNZ": _step_djnz,
    "MOV": _step_mov, "MOVC": _step_movc, "MOVX": _step_movx,
    "ADD": _step_add, "ADDC": _step_addc, "SUBB": _step_subb,
    "INC": _step_inc, "DEC": _step_dec,
    "ANL": _logic("ANL"), "ORL": _logic("ORL"), "XRL": _logic("XRL"),
    "CLR": _step_clr, "SETB": _step_setb, "CPL": _step_cpl,
    "RL": _step_rl, "RR": _step_rr, "RLC": _step_rlc, "RRC": _step_rrc,
    "SWAP": _step_swap, "XCH": _step_xch, "XCHD": _step_xchd,
    "MUL": _step_mul, "DIV": _step_div, "DA": _step_da,
    "PUSH": _step_push, "POP": _step_pop,
}

# The decode memo of the last image step_concrete ran: pc -> (handler,
# operands, next_pc). The strong reference keeps the image alive, so an
# `is` test cannot match a new object that reuses its id.
_memo_image: object = None
_memo: dict[int, tuple] = {}


def step_concrete(st: ConcreteState, image: bytes) -> ConcreteState:
    """Execute exactly one instruction, mutating and returning st.

    Each code address of `image` is decoded once, on its first step, and
    its handler, operands and next pc are kept for the later steps of the
    same image object. 8051 CODE memory is read-only at run time, so
    `image` must not change between calls; pass a new object for new code.
    A decode that raises is not kept, so it raises again on every call."""
    global _memo_image, _memo
    if image is not _memo_image:
        _memo_image = image
        _memo = {}
    pc = st.pc
    entry = _memo.get(pc)
    if entry is None:
        ins = isa.decode(image, pc)
        entry = _memo[pc] = (_STEPS[ins.mnemonic], ins.operands,
                             (pc + ins.length) & 0xFFFF)
    step, ops, next_pc = entry
    st.pc = next_pc
    st.instr_count += 1
    step(st, ops, next_pc, image)
    return st


def ie_mask(source: str) -> int:
    """IE bits that must all be set for source to interrupt: the global EA
    bit and the source's own enable bit."""
    return (1 << IE_EA_BIT) | (1 << INT_SOURCES[source][1])

