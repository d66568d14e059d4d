"""Test-fixture toolkit: a small two-pass 8051 assembler and generators for
synthetic benign/malicious firmware images.

The assembler covers the subset fixtures need (full instruction set, labels,
.org/.db/.equ); it is a test tool, not a product. Every generated fixture
comes with a ground-truth manifest recording the addresses the test suites
assert against, so no magic numbers live in tests. The same generators build
the inputs of the benchmark workloads (bench/workloads.py).

The USB templates are written from shared pieces: one vector table, one
`.db` renderer and one EP0 descriptor-copy routine (`_copy_to_ep0`), which
each SETUP handler instantiates once per descriptor under its own labels.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

from . import isa, machine


class AsmError(Exception):
    pass


class UnresolvedLabel(AsmError):
    pass


class OperandRange(AsmError):
    pass


# parsed operand shapes -> table spec tokens they can occupy
_EXACT = {
    "a": "A", "c": "C", "ab": "AB", "dptr": "DPTR", "@dptr": "@DPTR",
    "@a+dptr": "@A+DPTR", "@a+pc": "@A+PC",
    "@r0": "@R0", "@r1": "@R1",
    "r0": "R0", "r1": "R1", "r2": "R2", "r3": "R3",
    "r4": "R4", "r5": "R5", "r6": "R6", "r7": "R7",
}

_SFR_BY_NAME = {name.lower(): addr for addr, name in machine.SFR_NAMES.items()}


@dataclass
class _Operand:
    shape: str          # 'exact' | 'imm' | 'plain' | 'notbit'
    token: str          # normalized text (exact) or value expression


@dataclass
class _Item:
    kind: str           # 'instr' | 'db' | 'org'
    line_no: int
    addr: int = 0
    mnemonic: str = ""
    operands: list = field(default_factory=list)
    spec: tuple = ()
    opcode: int = 0
    length: int = 0
    data: list = field(default_factory=list)


@dataclass
class AsmProgram:
    items: list[_Item]
    symbols: dict[str, int]
    size: int


# table spec token -> the parsed shape of a written operand that fills it;
# an exact operand fills only its own spec (`_EXACT`)
_SHAPE_OF_SPEC = {"#i8": "imm", "#i16": "imm", "/bit": "notbit",
                  "dir": "plain", "bit": "plain", "rel": "plain",
                  "a11": "plain", "a16": "plain"}


def _build_encoder_index():
    """(mnemonic, operand shapes) -> (specs, opcodes). A shape is an exact
    operand's spec, or a written operand's parsed shape. No two encodings
    of a mnemonic accept the same shapes, so each key has one encoding."""
    by_specs: dict[tuple[str, tuple[str, ...]], list[int]] = {}
    for op, info in isa.TABLE.items():
        by_specs.setdefault((info.mnemonic, info.specs), []).append(op)
    index: dict[tuple[str, tuple[str, ...]], tuple] = {}
    for (mnemonic, specs), opcodes in by_specs.items():
        key = (mnemonic, tuple(_SHAPE_OF_SPEC.get(s, s) for s in specs))
        if key in index:
            raise AssertionError(f"two encodings accept {key}")
        index[key] = (specs, sorted(opcodes))
    return index


_ENCODER = _build_encoder_index()


def _match_signature(mnemonic: str, parsed: list[_Operand]):
    match = _ENCODER.get((mnemonic, tuple(
        _EXACT[p.token] if p.shape == "exact" else p.shape for p in parsed)))
    if match is None:
        raise AsmError(f"no encoding for {mnemonic} "
                       f"{[p.token for p in parsed]}")
    return match


_TOKEN_SPLIT = re.compile(r",(?![^(]*\))")


class Assembler:
    def __init__(self):
        self.symbols: dict[str, int] = {}

    # -- expression / operand parsing ------------------------------------

    def _value(self, text: str, here: int) -> int:
        text = text.strip()
        if text == "$":
            return here
        low = text.lower()
        if low in _SFR_BY_NAME:
            return _SFR_BY_NAME[low]
        try:
            return int(text, 0)
        except ValueError:
            pass
        if text in self.symbols:
            return self.symbols[text]
        raise UnresolvedLabel(text)

    def _bit_value(self, text: str, here: int) -> int:
        if "." in text:
            byte_s, bit_s = text.rsplit(".", 1)
            byte = self._value(byte_s, here)
            bit = int(bit_s, 0)
            if not 0 <= bit <= 7:
                raise OperandRange(f"bit index {bit}")
            if byte >= 0x80:
                if byte & 7:
                    raise OperandRange(f"SFR 0x{byte:02x} is not bit-addressable")
                return byte + bit
            if not 0x20 <= byte <= 0x2F:
                raise OperandRange(f"byte 0x{byte:02x} is not bit-addressable")
            return (byte - 0x20) * 8 + bit
        return self._value(text, here)

    @staticmethod
    def _parse_operand(text: str) -> _Operand:
        t = text.strip()
        low = t.lower().replace(" ", "")
        if low in _EXACT:
            return _Operand("exact", low)
        if t.startswith("#"):
            return _Operand("imm", t[1:].strip())
        if t.startswith("/"):
            return _Operand("notbit", t[1:].strip())
        return _Operand("plain", t)

    # -- two passes -------------------------------------------------------

    def parse(self, source: str) -> AsmProgram:
        items: list[_Item] = []
        pending_labels: list[str] = []
        # pass 1: sizes and label addresses
        pc = 0
        for line_no, raw in enumerate(source.splitlines(), 1):
            line = raw.split(";", 1)[0].strip()
            if not line:
                continue
            while True:
                m = re.match(r"^([A-Za-z_][\w]*):\s*(.*)$", line)
                if not m:
                    break
                pending_labels.append(m.group(1))
                line = m.group(2).strip()
            if not line:
                for lbl in pending_labels:
                    self.symbols[lbl] = pc
                pending_labels.clear()
                continue
            parts = line.split(None, 1)
            head = parts[0].lower()
            rest = parts[1] if len(parts) > 1 else ""
            if head == ".equ":
                name, val = [x.strip() for x in rest.split(",", 1)]
                self.symbols[name] = self._value(val, pc)
                continue
            if head == ".org":
                pc = self._value(rest, pc)
                for lbl in pending_labels:
                    self.symbols[lbl] = pc
                pending_labels.clear()
                items.append(_Item("org", line_no, addr=pc))
                continue
            for lbl in pending_labels:
                self.symbols[lbl] = pc
            pending_labels.clear()
            if head == ".db":
                data = []
                for chunk in _TOKEN_SPLIT.split(rest):
                    chunk = chunk.strip()
                    if chunk.startswith('"') and chunk.endswith('"'):
                        data.extend(ord(ch) for ch in chunk[1:-1])
                    else:
                        data.append(chunk)
                items.append(_Item("db", line_no, addr=pc, data=data))
                pc += len(data)
                continue
            mnemonic = head.upper()
            if mnemonic not in isa.MNEMONICS:
                raise AsmError(f"line {line_no}: unknown mnemonic {head}")
            operands = ([self._parse_operand(t)
                         for t in _TOKEN_SPLIT.split(rest)] if rest else [])
            specs, opcodes = _match_signature(mnemonic, operands)
            length = 1 + sum(isa._SPEC_BYTES[s] for s in specs)
            items.append(_Item("instr", line_no, addr=pc, mnemonic=mnemonic,
                               operands=operands, spec=specs,
                               opcode=opcodes[0], length=length))
            pc += length
        for lbl in pending_labels:
            self.symbols[lbl] = pc
        size = max((it.addr + (it.length or len(it.data)) for it in items),
                   default=0)
        return AsmProgram(items, dict(self.symbols), size)

    def encode(self, program: AsmProgram) -> bytes:
        image = bytearray(program.size)
        for it in program.items:
            if it.kind == "org":
                continue
            if it.kind == "db":
                for i, d in enumerate(it.data):
                    v = d if isinstance(d, int) else self._value(d, it.addr)
                    if not 0 <= v <= 0xFF:
                        raise OperandRange(f"line {it.line_no}: byte {v}")
                    image[it.addr + i] = v
                continue
            image[it.addr:it.addr + it.length] = self._encode_instr(it)
        return bytes(image)

    def _encode_instr(self, it: _Item) -> bytes:
        specs = it.spec
        opcode = it.opcode
        next_pc = it.addr + it.length
        # byte stream order equals spec order except MOV direct,direct
        ordered = list(zip(specs, it.operands))
        if opcode == 0x85:
            ordered.reverse()  # emit src byte then dst byte
        out = [opcode]
        for spec, op in ordered:
            if isa._SPEC_BYTES[spec] == 0:
                continue
            if spec == "dir":
                v = self._value(op.token, it.addr)
                if not 0 <= v <= 0xFF:
                    raise OperandRange(f"line {it.line_no}: direct 0x{v:x}")
                out.append(v)
            elif spec == "#i8":
                v = self._value(op.token, it.addr)
                if not 0 <= v <= 0xFF:
                    raise OperandRange(f"line {it.line_no}: imm 0x{v:x}")
                out.append(v)
            elif spec == "#i16":
                v = self._value(op.token, it.addr)
                if not 0 <= v <= 0xFFFF:
                    raise OperandRange(f"line {it.line_no}: imm16 0x{v:x}")
                out.extend((v >> 8, v & 0xFF))
            elif spec in ("bit", "/bit"):
                v = self._bit_value(op.token, it.addr)
                out.append(v)
            elif spec == "rel":
                target = self._value(op.token, it.addr)
                delta = target - next_pc
                if not -128 <= delta <= 127:
                    raise OperandRange(
                        f"line {it.line_no}: relative target 0x{target:04x} "
                        f"out of range from 0x{it.addr:04x}")
                out.append(delta & 0xFF)
            elif spec == "a16":
                v = self._value(op.token, it.addr)
                out.extend((v >> 8, v & 0xFF))
            elif spec == "a11":
                v = self._value(op.token, it.addr)
                if (v & 0xF800) != (next_pc & 0xF800):
                    raise OperandRange(
                        f"line {it.line_no}: addr11 target 0x{v:04x} "
                        f"outside the 2 KiB page")
                out[0] = (opcode & 0x1F) | (((v >> 8) & 7) << 5)
                out.append(v & 0xFF)
            else:
                raise AssertionError(spec)
        return bytes(out)


def assemble_with_symbols(source: str) -> tuple[bytes, dict[str, int]]:
    """Assemble source text into a flat image and its label addresses."""
    asm = Assembler()
    program = asm.parse(source)
    return asm.encode(program), program.symbols


# ---------------------------------------------------------------------------
# Fixture generation
# ---------------------------------------------------------------------------

@dataclass
class FixtureSpec:
    """What to generate. The EzHID-shaped addresses are the defaults; the
    storage template swaps in its Phison-shaped layout when
    `device_desc_addr` is left at the default, which sets three fields
    (`device_desc_addr`, `config_desc_addr`, `hid_report_addr`), and
    `ep0_fifo` too when it is left at its default, and keeps the rest of
    the spec."""
    template: str                     # benign-hid | injector-hid |
                                      # storage-claiming-hid | straightline |
                                      # branchy
    device_desc_addr: int = 0xB8A     # EzHID-shaped defaults
    config_desc_addr: int = 0xB9C
    hid_report_addr: int = 0xBBE
    ep0_fifo: int = 0x7E00
    ep1_buffer: int = 0x7E80
    setup_base: int = 0x7FE8
    usb_irq_addr: int = 0x7FAB
    kbd_stat_addr: int = 0x7F80
    kbd_data_addr: int = 0x7F81
    inject_threshold: int = 6
    scancodes: tuple = (0xE2, 0x3B, 0x1B, 0x17, 0x08, 0x15, 0x10, 0x28,
                        0x04, 0x16, 0x07, 0x09, 0x0A, 0x0B, 0x0C, 0x28)
    guard_count: int = 3              # branchy: chained guarded env reads
    guard_base: int = 0x7C00
    mode_addr: int = 0x7F00           # storage-claiming: hidden trigger byte
    mode_magic: int = 0x5A


@dataclass
class FixtureManifest:
    """Ground truth of one fixture; a field a template does not set keeps its
    empty default."""
    template: str
    image_size: int
    labels: dict[str, int]
    descriptors: dict[str, int] = field(default_factory=dict)
    ep0: int | None = None
    ep_buffers: list[int] = field(default_factory=list)
    setup_base: int | None = None
    # expected symbolic set (region, addr)
    env_bytes: list[tuple[str, int]] = field(default_factory=list)
    counter_addrs: list[int] = field(default_factory=list)
    target_sites: dict[str, int] = field(default_factory=dict)
    malicious_store_sites: list[int] = field(default_factory=list)
    isr_entries: dict[str, int] = field(default_factory=dict)
    scancodes: list[int] = field(default_factory=list)
    inject_threshold: int = 0

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["env_bytes"] = [[r, a] for r, a in self.env_bytes]
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _db(data) -> str:
    return ".db " + ", ".join(f"0x{x:02x}" for x in data)


def _device_descriptor_db(vid=0x1234, pid=0x5678) -> str:
    # bLength bType bcdUSB(2.00) class sub proto maxpkt vid pid bcdDev iM iP iS nCfg
    return _db([0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40,
                vid & 0xFF, vid >> 8, pid & 0xFF, pid >> 8, 0x00, 0x01,
                0x01, 0x02, 0x00, 0x01])


def _hid_config_db() -> str:
    cfg = [0x09, 0x02, 0x22, 0x00, 0x01, 0x01, 0x00, 0x80, 0x32]
    iface = [0x09, 0x04, 0x00, 0x00, 0x01, 0x03, 0x01, 0x01, 0x00]
    hid = [0x09, 0x21, 0x11, 0x01, 0x00, 0x01, 0x22, 0x3F, 0x00]
    ep = [0x07, 0x05, 0x81, 0x03, 0x08, 0x00, 0x0A]
    return _db(cfg + iface + hid + ep)


def _storage_config_db() -> str:
    cfg = [0x09, 0x02, 0x20, 0x00, 0x01, 0x01, 0x00, 0x80, 0x32]
    iface = [0x09, 0x04, 0x00, 0x00, 0x02, 0x08, 0x06, 0x50, 0x00]
    ep_in = [0x07, 0x05, 0x81, 0x02, 0x40, 0x00, 0x00]
    ep_out = [0x07, 0x05, 0x02, 0x02, 0x40, 0x00, 0x00]
    return _db(cfg + iface + ep_in + ep_out)


def _hid_report_db() -> str:
    head = [0x05, 0x01, 0x09, 0x06, 0xA1, 0x01, 0x05, 0x07]
    body = head + [0x19, 0x00, 0x29, 0x65, 0x15, 0x00, 0x25, 0x65]
    body += [0x75, 0x08, 0x95, 0x08, 0x81, 0x00, 0xC0]
    # pad to the wDescriptorLength that _hid_config_db declares
    return _db(body + [0x00] * (0x3F - len(body)))


def _vector_table(ext0: str | None, timer0: str | None) -> str:
    lines = [".org 0x0000", "    ljmp main"]
    for source, (vec, _bit) in sorted(machine.INT_SOURCES.items(),
                                      key=lambda kv: kv[1][0]):
        lines.append(f".org 0x{vec:04x}")
        if source == "external0" and ext0:
            lines.append(f"    ljmp {ext0}")
        elif source == "timer0" and timer0:
            lines.append(f"    ljmp {timer0}")
        else:
            lines.append("    reti")
    return "\n".join(lines)


def _copy_to_ep0(loop: str, table: str, count: int, store: str,
                 fifo: int) -> str:
    """Copy `count` bytes of the code-space `table` to the EP0 FIFO; `store`
    labels the FIFO write."""
    return f"""    mov r0, #0
    mov r7, #{count}
{loop}:
    mov a, r0
    mov dptr, #{table}
    movc a, @a+dptr
    mov dptr, #{fifo}
{store}:
    movx @dptr, a
    inc r0
    djnz r7, {loop}"""


def _hid_firmware_asm(spec: FixtureSpec, inject: bool) -> str:
    """Shared skeleton of benign-hid and injector-hid (EzHID-shaped)."""
    s = spec
    tick_handling = ""
    counter_routine = ""
    if inject:
        tick_handling = """
chk_tick:
    mov a, 0x2e          ; timer tick pending?
    jz decoys
    mov 0x2e, #0
    lcall advance_counter
"""
        counter_routine = f"""
advance_counter:
    inc 0x35             ; injection delay counter
    mov a, 0x35
    cjne a, #{s.inject_threshold}, ac_done
    mov r0, #0
    mov r6, #2           ; two 8-byte reports from the script
rep_loop:
    mov r7, #8
inj_loop:
    mov a, r0
    mov dptr, #script
    movc a, @a+dptr
    mov r2, a
    mov a, r0
    anl a, #7
    mov dptr, #{s.ep1_buffer}
    add a, dpl
    mov dpl, a
    mov a, r2
inject_store:
    movx @dptr, a        ; static scancode into the interrupt-IN buffer
    inc r0
    djnz r7, inj_loop
    djnz r6, rep_loop
ac_done:
    ret
"""
    else:
        tick_handling = """
chk_tick:
    mov a, 0x2e
    jz decoys
    mov 0x2e, #0
"""
    return f"""
{_vector_table("usb_isr", "t0_isr")}

.org 0x0040
main:
    mov sp, #0x47
    mov psw, #0
    mov ie, #0x83        ; EA | ET0 | EX0
loop:
    mov a, 0x3a          ; decoy status flags: only forks when fully symbolic
    jz d1
    mov 0x3b, #1
d1:
    mov a, 0x3c
    jz d2
    mov 0x3d, #1
d2:
    mov a, 0x2f          ; SETUP pending?
    jz chk_tick
    mov 0x2f, #0
    lcall handle_setup
{tick_handling}
decoys:
    sjmp loop

handle_setup:
    mov a, 0x30          ; bRequest
    cjne a, #6, hs_done  ; GET_DESCRIPTOR only
    mov a, 0x31          ; wValueH: descriptor type
    cjne a, #1, hs_cfg
{_copy_to_ep0("sd_loop", "dev_desc", 18, "dev_store", s.ep0_fifo)}
    sjmp hs_done
hs_cfg:
    cjne a, #2, hs_rep
{_copy_to_ep0("sc_loop", "cfg_desc", 34, "cfg_store", s.ep0_fifo)}
    sjmp hs_done
hs_rep:
    cjne a, #34, hs_done ; HID report descriptor request (wValueH == 0x22)
hid_target:
{_copy_to_ep0("hr_loop", "hid_report", 0x3F, "hid_store", s.ep0_fifo)}
hs_done:
    ret
{counter_routine}
usb_isr:
    mov psw, #0
    mov dptr, #{s.usb_irq_addr}
    movx a, @dptr        ; USB IRQ status (environment)
    jnb acc.0, ui_done
    mov dptr, #{s.setup_base + 1}
    movx a, @dptr        ; bRequest
    mov 0x30, a
    mov dptr, #{s.setup_base + 3}
    movx a, @dptr        ; wValueH
    mov 0x31, a
    mov dptr, #{s.setup_base + 4}
    movx a, @dptr        ; wIndexL
    mov 0x32, a
    mov 0x2f, #1
ui_done:
    reti

t0_isr:
    mov psw, #0
    mov 0x2e, #1         ; tick for the main loop
    mov dptr, #{s.kbd_stat_addr}
    movx a, @dptr        ; key-available flag (environment)
    jnb acc.0, t0_done
    mov dptr, #{s.kbd_data_addr}
    movx a, @dptr        ; scan byte (environment)
    mov r1, a
    mov dptr, #{s.ep1_buffer}
    mov r7, #8
fwd_loop:
    mov a, r1
fwd_store:
    movx @dptr, a        ; forward user data to the interrupt-IN buffer
    inc dptr
    djnz r7, fwd_loop
t0_done:
    reti

.org 0x{spec.device_desc_addr:04x}
dev_desc:
{_device_descriptor_db()}
.org 0x{spec.config_desc_addr:04x}
cfg_desc:
{_hid_config_db()}
.org 0x{spec.hid_report_addr:04x}
hid_report:
{_hid_report_db()}
script:
{_db(spec.scancodes)}
"""


def _storage_firmware_asm(spec: FixtureSpec) -> str:
    """Phison-shaped: mass-storage identity with a hidden HID claim path."""
    s = spec
    return f"""
{_vector_table("usb_isr", None)}

.org 0x0040
main:
    mov sp, #0x47
    mov psw, #0
    mov ie, #0x81        ; EA | EX0
loop:
    mov a, 0x2f
    jz loop
    mov 0x2f, #0
    lcall handle_setup
    sjmp loop

handle_setup:
    mov a, 0x30          ; bRequest
    cjne a, #6, hs_done
    mov a, 0x31
    cjne a, #1, hs_cfg
{_copy_to_ep0("sd_loop", "dev_desc", 18, "dev_store", s.ep0_fifo)}
    sjmp hs_done
hs_cfg:
    cjne a, #2, hs_mode
{_copy_to_ep0("sc_loop", "cfg_desc", 32, "cfg_store", s.ep0_fifo)}
    sjmp hs_done
hs_mode:
    mov a, 0x33          ; hidden re-enumeration trigger
    cjne a, #{s.mode_magic}, hs_done
hid_target:
{_copy_to_ep0("hr_loop", "hid_report", 0x3F, "hid_store", s.ep0_fifo)}
hs_done:
    ret

usb_isr:
    mov psw, #0
    mov dptr, #{s.usb_irq_addr}
    movx a, @dptr
    jnb acc.0, ui_done
    mov dptr, #{s.setup_base + 1}
    movx a, @dptr
    mov 0x30, a
    mov dptr, #{s.setup_base + 3}
    movx a, @dptr
    mov 0x31, a
    mov dptr, #{s.mode_addr}
    movx a, @dptr        ; vendor mode byte (environment)
    mov 0x33, a
    mov 0x2f, #1
ui_done:
    reti

cbw_tag:
.db "USBC"               ; bulk-only CBW signature constant

.org 0x{spec.device_desc_addr:04x}
dev_desc:
{_device_descriptor_db(vid=0x13FE, pid=0x5201)}
.org 0x{spec.config_desc_addr:04x}
cfg_desc:
{_storage_config_db()}
.org 0x{spec.hid_report_addr:04x}
hid_report:
{_hid_report_db()}
"""


def _branchy_asm(spec: FixtureSpec) -> str:
    k = spec.guard_count
    guards = []
    for i in range(k):
        guards.append(f"    mov dptr, #{spec.guard_base + i}")
        guards.append("    movx a, @dptr")
        guards.append(f"    cjne a, #{0x10 + i}, g_done")
    body = "\n".join(guards)
    return f"""
{_vector_table("g_isr", None)}

.org 0x0040
main:
    mov sp, #0x47
    mov ie, #0x81
idle:
    sjmp idle

g_isr:
    mov psw, #0
{body}
g_target:
    mov 0x40, #1
g_done:
    reti
"""


_STRAIGHTLINE_ASM = """
.org 0x0000
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
spin:
    sjmp spin
"""


def generate_fixture(spec: FixtureSpec) -> tuple[bytes, FixtureManifest]:
    t = spec.template
    if t == "straightline":
        image, labels = assemble_with_symbols(_STRAIGHTLINE_ASM)
        return image, FixtureManifest(t, len(image), labels)

    if t == "branchy":
        image, labels = assemble_with_symbols(_branchy_asm(spec))
        env = [("XRAM", spec.guard_base + i) for i in range(spec.guard_count)]
        return image, FixtureManifest(
            t, len(image), labels, env_bytes=env,
            target_sites={"guarded": labels["g_target"]},
            isr_entries={"external0": labels["g_isr"]})

    if t in ("benign-hid", "injector-hid"):
        inject = t == "injector-hid"
        image, labels = assemble_with_symbols(_hid_firmware_asm(spec, inject))
        env = [spec.setup_base + 4, spec.kbd_stat_addr, spec.kbd_data_addr]
        extra = {"ep_buffers": [spec.ep1_buffer],
                 "isr_entries": {"external0": labels["usb_isr"],
                                 "timer0": labels["t0_isr"]}}
        if inject:
            extra.update(counter_addrs=[0x35],
                         malicious_store_sites=[labels["inject_store"]],
                         scancodes=list(spec.scancodes),
                         inject_threshold=spec.inject_threshold)
    elif t == "storage-claiming-hid":
        if spec.device_desc_addr == 0xB8A:  # default to the Phison-shaped map
            spec = replace(spec, device_desc_addr=0x302B,
                           config_desc_addr=0x303D, hid_report_addr=0x3084,
                           ep0_fifo=(0xF1DC if spec.ep0_fifo == 0x7E00
                                     else spec.ep0_fifo))
        image, labels = assemble_with_symbols(_storage_firmware_asm(spec))
        env = [spec.mode_addr]
        extra = {"isr_entries": {"external0": labels["usb_isr"]}}
    else:
        raise AsmError(f"unknown template {t}")
    env = [spec.usb_irq_addr, spec.setup_base + 1, spec.setup_base + 3] + env
    return image, FixtureManifest(
        t, len(image), labels,
        descriptors={"DEVICE_DESC": labels["dev_desc"],
                     "CONFIG_DESC": labels["cfg_desc"],
                     "HID_REPORT": labels["hid_report"]},
        ep0=spec.ep0_fifo, setup_base=spec.setup_base,
        env_bytes=[("XRAM", a) for a in env],
        target_sites={"hid_report_copy": labels["hid_store"],
                      "hid_dispatch": labels["hid_target"]},
        **extra)
