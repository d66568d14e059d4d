"""8051/8052 instruction set: 256-entry decode table and linear-sweep disassembler.

The table covers all 44 mnemonics across 255 legal opcodes; 0xA5 is the one
reserved encoding and always raises. One decode plan per opcode is built with the
table, so decoding parses no spec strings. Operands are normalized to
destination-first order in the plan (0x85, MOV direct,direct, is the only
instruction whose byte stream is [op, src, dst]). Records are named tuples,
which decode builds directly as tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import NamedTuple


class OpKind(Enum):
    ACC = auto()        # accumulator A
    REG = auto()        # R0-R7, value = n
    DIRECT = auto()     # direct 8-bit address
    INDIRECT = auto()   # @R0 / @R1, value = i
    IMM8 = auto()       # #data
    IMM16 = auto()      # #data16
    BIT = auto()        # bit address
    NOT_BIT = auto()    # /bit, complemented bit source (ANL/ORL C,/bit)
    REL = auto()        # value = absolute branch target
    ADDR11 = auto()     # value = absolute target within the 2 KiB page
    ADDR16 = auto()     # value = absolute target
    DPTR = auto()
    IND_DPTR = auto()   # @DPTR
    CODE_DPTR = auto()  # @A+DPTR
    CODE_PC = auto()    # @A+PC
    CARRY = auto()      # C
    AB = auto()         # A,B pair (MUL/DIV)


RESERVED_OPCODE = 0xA5


class IsaError(Exception):
    pass


class IllegalOpcode(IsaError):
    def __init__(self, addr: int, opcode: int):
        super().__init__(f"illegal opcode 0x{opcode:02x} at 0x{addr:04x}")
        self.addr = addr
        self.opcode = opcode


class TruncatedInstruction(IsaError):
    def __init__(self, addr: int, opcode: int, need: int, have: int):
        super().__init__(
            f"instruction 0x{opcode:02x} at 0x{addr:04x} needs {need} bytes, "
            f"image has {have}"
        )
        self.addr = addr
        self.opcode = opcode


class Operand(NamedTuple):
    kind: OpKind
    value: int | None = None

    def text(self) -> str:
        k, v = self.kind, self.value
        if k is OpKind.ACC:
            return "a"
        if k is OpKind.REG:
            return f"r{v}"
        if k is OpKind.DIRECT:
            return f"0x{v:02x}"
        if k is OpKind.INDIRECT:
            return f"@r{v}"
        if k is OpKind.IMM8:
            return f"#0x{v:02x}"
        if k is OpKind.IMM16:
            return f"#0x{v:04x}"
        if k is OpKind.BIT:
            return f"0x{v:02x}"
        if k is OpKind.NOT_BIT:
            return f"/0x{v:02x}"
        if k in (OpKind.REL, OpKind.ADDR11, OpKind.ADDR16):
            return f"0x{v:04x}"
        if k is OpKind.DPTR:
            return "dptr"
        if k is OpKind.IND_DPTR:
            return "@dptr"
        if k is OpKind.CODE_DPTR:
            return "@a+dptr"
        if k is OpKind.CODE_PC:
            return "@a+pc"
        if k is OpKind.CARRY:
            return "c"
        if k is OpKind.AB:
            return "ab"
        raise AssertionError(k)


class Instruction(NamedTuple):
    addr: int
    opcode: int
    mnemonic: str
    operands: tuple[Operand, ...]
    length: int
    raw: bytes

    def text(self) -> str:
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} " + ", ".join(op.text() for op in self.operands)


@dataclass(frozen=True)
class OpcodeInfo:
    mnemonic: str
    length: int
    specs: tuple[str, ...]


# Operand spec tokens and the number of instruction bytes each consumes.
_SPEC_BYTES = {
    "A": 0, "DPTR": 0, "@DPTR": 0, "@A+DPTR": 0, "@A+PC": 0, "C": 0, "AB": 0,
    "R0": 0, "R1": 0, "R2": 0, "R3": 0, "R4": 0, "R5": 0, "R6": 0, "R7": 0,
    "@R0": 0, "@R1": 0,
    "dir": 1, "#i8": 1, "bit": 1, "/bit": 1, "rel": 1, "a11": 1,
    "#i16": 2, "a16": 2,
}


def _build_table() -> dict[int, OpcodeInfo]:
    raw: dict[int, tuple[str, list[str]]] = {
        0x00: ("NOP", []),
        0x02: ("LJMP", ["a16"]),
        0x03: ("RR", ["A"]),
        0x04: ("INC", ["A"]),
        0x05: ("INC", ["dir"]),
        0x10: ("JBC", ["bit", "rel"]),
        0x12: ("LCALL", ["a16"]),
        0x13: ("RRC", ["A"]),
        0x14: ("DEC", ["A"]),
        0x15: ("DEC", ["dir"]),
        0x20: ("JB", ["bit", "rel"]),
        0x22: ("RET", []),
        0x23: ("RL", ["A"]),
        0x24: ("ADD", ["A", "#i8"]),
        0x25: ("ADD", ["A", "dir"]),
        0x30: ("JNB", ["bit", "rel"]),
        0x32: ("RETI", []),
        0x33: ("RLC", ["A"]),
        0x34: ("ADDC", ["A", "#i8"]),
        0x35: ("ADDC", ["A", "dir"]),
        0x40: ("JC", ["rel"]),
        0x42: ("ORL", ["dir", "A"]),
        0x43: ("ORL", ["dir", "#i8"]),
        0x44: ("ORL", ["A", "#i8"]),
        0x45: ("ORL", ["A", "dir"]),
        0x50: ("JNC", ["rel"]),
        0x52: ("ANL", ["dir", "A"]),
        0x53: ("ANL", ["dir", "#i8"]),
        0x54: ("ANL", ["A", "#i8"]),
        0x55: ("ANL", ["A", "dir"]),
        0x60: ("JZ", ["rel"]),
        0x62: ("XRL", ["dir", "A"]),
        0x63: ("XRL", ["dir", "#i8"]),
        0x64: ("XRL", ["A", "#i8"]),
        0x65: ("XRL", ["A", "dir"]),
        0x70: ("JNZ", ["rel"]),
        0x72: ("ORL", ["C", "bit"]),
        0x73: ("JMP", ["@A+DPTR"]),
        0x74: ("MOV", ["A", "#i8"]),
        0x75: ("MOV", ["dir", "#i8"]),
        0x80: ("SJMP", ["rel"]),
        0x82: ("ANL", ["C", "bit"]),
        0x83: ("MOVC", ["A", "@A+PC"]),
        0x84: ("DIV", ["AB"]),
        0x85: ("MOV", ["dir", "dir"]),  # stream order src,dst; swapped at decode
        0x90: ("MOV", ["DPTR", "#i16"]),
        0x92: ("MOV", ["bit", "C"]),
        0x93: ("MOVC", ["A", "@A+DPTR"]),
        0x94: ("SUBB", ["A", "#i8"]),
        0x95: ("SUBB", ["A", "dir"]),
        0xA0: ("ORL", ["C", "/bit"]),
        0xA2: ("MOV", ["C", "bit"]),
        0xA3: ("INC", ["DPTR"]),
        0xA4: ("MUL", ["AB"]),
        0xB0: ("ANL", ["C", "/bit"]),
        0xB2: ("CPL", ["bit"]),
        0xB3: ("CPL", ["C"]),
        0xB4: ("CJNE", ["A", "#i8", "rel"]),
        0xB5: ("CJNE", ["A", "dir", "rel"]),
        0xC0: ("PUSH", ["dir"]),
        0xC2: ("CLR", ["bit"]),
        0xC3: ("CLR", ["C"]),
        0xC4: ("SWAP", ["A"]),
        0xC5: ("XCH", ["A", "dir"]),
        0xD0: ("POP", ["dir"]),
        0xD2: ("SETB", ["bit"]),
        0xD3: ("SETB", ["C"]),
        0xD4: ("DA", ["A"]),
        0xD5: ("DJNZ", ["dir", "rel"]),
        0xE0: ("MOVX", ["A", "@DPTR"]),
        0xE4: ("CLR", ["A"]),
        0xE5: ("MOV", ["A", "dir"]),
        0xF0: ("MOVX", ["@DPTR", "A"]),
        0xF4: ("CPL", ["A"]),
        0xF5: ("MOV", ["dir", "A"]),
    }
    # AJMP/ACALL encode the high 3 target bits in the opcode.
    for page in range(8):
        raw[0x01 | (page << 5)] = ("AJMP", ["a11"])
        raw[0x11 | (page << 5)] = ("ACALL", ["a11"])
    # @Ri and Rn families.
    for i in range(2):
        ri = f"@R{i}"
        raw[0x06 + i] = ("INC", [ri])
        raw[0x16 + i] = ("DEC", [ri])
        raw[0x26 + i] = ("ADD", ["A", ri])
        raw[0x36 + i] = ("ADDC", ["A", ri])
        raw[0x46 + i] = ("ORL", ["A", ri])
        raw[0x56 + i] = ("ANL", ["A", ri])
        raw[0x66 + i] = ("XRL", ["A", ri])
        raw[0x76 + i] = ("MOV", [ri, "#i8"])
        raw[0x86 + i] = ("MOV", ["dir", ri])
        raw[0x96 + i] = ("SUBB", ["A", ri])
        raw[0xA6 + i] = ("MOV", [ri, "dir"])
        raw[0xB6 + i] = ("CJNE", [ri, "#i8", "rel"])
        raw[0xC6 + i] = ("XCH", ["A", ri])
        raw[0xD6 + i] = ("XCHD", ["A", ri])
        raw[0xE2 + i] = ("MOVX", ["A", ri])
        raw[0xE6 + i] = ("MOV", ["A", ri])
        raw[0xF2 + i] = ("MOVX", [ri, "A"])
        raw[0xF6 + i] = ("MOV", [ri, "A"])
    for n in range(8):
        rn = f"R{n}"
        raw[0x08 + n] = ("INC", [rn])
        raw[0x18 + n] = ("DEC", [rn])
        raw[0x28 + n] = ("ADD", ["A", rn])
        raw[0x38 + n] = ("ADDC", ["A", rn])
        raw[0x48 + n] = ("ORL", ["A", rn])
        raw[0x58 + n] = ("ANL", ["A", rn])
        raw[0x68 + n] = ("XRL", ["A", rn])
        raw[0x78 + n] = ("MOV", [rn, "#i8"])
        raw[0x88 + n] = ("MOV", ["dir", rn])
        raw[0x98 + n] = ("SUBB", ["A", rn])
        raw[0xA8 + n] = ("MOV", [rn, "dir"])
        raw[0xB8 + n] = ("CJNE", [rn, "#i8", "rel"])
        raw[0xC8 + n] = ("XCH", ["A", rn])
        raw[0xD8 + n] = ("DJNZ", [rn, "rel"])
        raw[0xE8 + n] = ("MOV", ["A", rn])
        raw[0xF8 + n] = ("MOV", [rn, "A"])

    table = {}
    for op, (mnem, specs) in raw.items():
        specs_t = tuple(specs)
        length = 1 + sum(_SPEC_BYTES[s] for s in specs_t)
        table[op] = OpcodeInfo(mnem, length, specs_t)
    assert len(table) == 255 and RESERVED_OPCODE not in table
    return table


TABLE: dict[int, OpcodeInfo] = _build_table()

MNEMONICS = frozenset(info.mnemonic for info in TABLE.values())

CONTROL_FLOW = frozenset({
    "AJMP", "LJMP", "SJMP", "JMP", "ACALL", "LCALL", "RET", "RETI",
    "JZ", "JNZ", "JC", "JNC", "JB", "JNB", "JBC", "CJNE", "DJNZ",
})


# How decode makes each spec token's operand: an Operand ready-made when it
# reads no image bytes, a 256-entry table indexed by the byte for a one-byte
# operand, else the OpKind whose value decode computes from the bytes.
_HOW = {
    "A": Operand(OpKind.ACC), "DPTR": Operand(OpKind.DPTR),
    "@DPTR": Operand(OpKind.IND_DPTR), "@A+DPTR": Operand(OpKind.CODE_DPTR),
    "@A+PC": Operand(OpKind.CODE_PC), "C": Operand(OpKind.CARRY),
    "AB": Operand(OpKind.AB),
    **{f"R{n}": Operand(OpKind.REG, n) for n in range(8)},
    **{f"@R{i}": Operand(OpKind.INDIRECT, i) for i in range(2)},
    "dir": tuple(Operand(OpKind.DIRECT, v) for v in range(256)),
    "#i8": tuple(Operand(OpKind.IMM8, v) for v in range(256)),
    "bit": tuple(Operand(OpKind.BIT, v) for v in range(256)),
    "/bit": tuple(Operand(OpKind.NOT_BIT, v) for v in range(256)),
    "rel": OpKind.REL, "a11": OpKind.ADDR11, "a16": OpKind.ADDR16,
    "#i16": OpKind.IMM16,
}


def _plan(opcode: int, info: OpcodeInfo) -> tuple:
    """(mnemonic, length, operands, steps): `operands` is the whole tuple when
    no operand reads image bytes, else None, and `steps` lists each operand's
    (byte offset, how) in canonical order."""
    steps = []
    offset = 1
    for spec in info.specs:
        steps.append((offset, _HOW[spec]))
        offset += _SPEC_BYTES[spec]
    if opcode == 0x85:
        steps.reverse()  # byte stream is src,dst; canonical order is dst,src
    if all(how.__class__ is Operand for _, how in steps):
        return info.mnemonic, info.length, tuple(how for _, how in steps), ()
    return info.mnemonic, info.length, None, tuple(steps)


# One decode plan per opcode, None for the reserved one.
_PLANS = [_plan(op, TABLE[op]) if op in TABLE else None for op in range(256)]

_new = tuple.__new__  # decode's record constructor (see its docstring)
_REL, _ADDR11 = OpKind.REL, OpKind.ADDR11


def decode(image: bytes, addr: int) -> Instruction:
    """Decode the instruction at addr. Raises IllegalOpcode / TruncatedInstruction.

    Follows the opcode's plan: operands that read no image bytes come
    ready-made, and the `Instruction` and each computed `Operand` are built
    with `tuple.__new__`, which gives the same named tuple as its
    constructor at about half the cost."""
    n = len(image)
    if addr >= n:
        raise TruncatedInstruction(addr, 0, 1, n - addr)
    opcode = image[addr]
    plan = _PLANS[opcode]
    if plan is None:
        raise IllegalOpcode(addr, opcode)
    mnemonic, length, operands, steps = plan
    end = addr + length
    if end > n:
        raise TruncatedInstruction(addr, opcode, length, n - addr)
    if operands is None:
        ops = []
        for offset, how in steps:
            cls = how.__class__
            if cls is Operand:
                ops.append(how)
                continue
            b = image[addr + offset]
            if cls is tuple:
                ops.append(how[b])
                continue
            if how is _REL:
                v = (end + (b ^ 0x80) - 0x80) & 0xFFFF
            elif how is _ADDR11:
                v = (end & 0xF800) | (opcode & 0xE0) << 3 | b
            else:  # ADDR16, IMM16
                v = b << 8 | image[addr + offset + 1]
            ops.append(_new(Operand, (how, v)))
        operands = tuple(ops)
    return _new(Instruction, (addr, opcode, mnemonic, operands, length,
                              bytes(image[addr:end])))


@dataclass(frozen=True)
class DecodeDiagnostic:
    addr: int
    reason: str


def disassemble_sweep(
    image: bytes, start: int = 0
) -> tuple[list[Instruction], list[DecodeDiagnostic]]:
    """Linear sweep from start to image end: each instruction decodes where
    the one before it ends. A reserved opcode or a truncated tail
    instruction gets a diagnostic and is skipped one byte at a time, so
    data tables embedded in code do not abort the sweep."""
    instrs: list[Instruction] = []
    diags: list[DecodeDiagnostic] = []
    pos = start
    while pos < len(image):
        try:
            ins = decode(image, pos)
        except IsaError as e:
            diags.append(DecodeDiagnostic(pos, str(e)))
            pos += 1
            continue
        instrs.append(ins)
        pos += ins.length
    return instrs, diags
