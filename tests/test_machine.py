import hashlib
import random

import pytest

from usbvet import fwkit, isa, lifter, machine, usbstatic

import diffutil
import reference_ir


def fresh():
    return machine.ConcreteState()


def test_reset_sp():
    st = fresh()
    assert st.sp == 0x07


def test_clone_keeps_sp_zero():
    # Only a default state starts at the reset SP; a clone copies SP as it is.
    st = fresh()
    st.sp = 0
    twin = st.clone()
    assert twin.sp == 0
    assert diffutil.states_equal(st, twin)


def test_nop_advances_pc_only():
    st = fresh()
    before = (bytes(st.iram), bytes(st.sfr))
    machine.step_concrete(st, bytes([0x00]))
    assert st.pc == 1 and st.instr_count == 1
    assert (bytes(st.iram), bytes(st.sfr)) == before


def test_mov_direct_direct_quirk():
    st = fresh()
    st.iram[0x30] = 0x5A
    machine.step_concrete(st, bytes([0x85, 0x30, 0x40]))
    assert st.iram[0x40] == 0x5A


def test_add_carry_example():
    st = fresh()
    st.acc = 0x01
    machine.step_concrete(st, bytes([0x24, 0xFF]))
    assert st.acc == 0x00
    assert st.flag(machine.PSW_CY) == 1


def test_add_exhaustive_against_independent_table():
    # expected carry/result computed with plain integer arithmetic
    for a in range(0, 256, 3):
        for v in range(0, 256, 7):
            st = fresh()
            st.acc = a
            machine.step_concrete(st, bytes([0x24, v]))
            assert st.acc == (a + v) & 0xFF
            assert st.flag(machine.PSW_CY) == (1 if a + v > 0xFF else 0)
            assert st.flag(machine.PSW_AC) == (
                1 if (a & 0xF) + (v & 0xF) > 0xF else 0)


def test_bank_aliasing_all_four_banks():
    st = fresh()
    for bank in range(4):
        st.write_sfr(machine.PSW, bank << 3)
        st.set_reg(3, 0x40 + bank)
        assert st.iram[bank * 8 + 3] == 0x40 + bank
        assert st.reg(3) == 0x40 + bank


def test_parity_bit_is_live():
    st = fresh()
    st.acc = 0x03  # two bits: even parity, P = 0
    assert st.read_sfr(machine.PSW) & 1 == 0
    st.acc = 0x07  # three bits: P = 1
    assert st.read_sfr(machine.PSW) & 1 == 1


def test_stack_push_pop():
    st = fresh()
    st.push(0xAA)
    st.push(0xBB)
    assert st.sp == 0x09
    assert st.pop() == 0xBB and st.pop() == 0xAA
    assert st.sp == 0x07


def test_stack_overflow():
    st = fresh()
    st.sp = 0xFF
    with pytest.raises(machine.StackOverflow):
        st.push(1)


def test_movc_beyond_image_reads_zero():
    st = fresh()
    st.acc = 0x10
    st.dptr = 0x1000  # image is 1 byte; 0x1010 is beyond it
    machine.step_concrete(st, bytes([0x93]))
    assert st.acc == 0


def test_movc_address_wraps_at_16_bits():
    st = fresh()
    st.acc = 0x10
    st.dptr = 0xFFF0  # 0x10000 wraps to 0x0000
    machine.step_concrete(st, bytes([0x93, 0x00]))
    assert st.acc == 0x93


def test_lcall_ret_roundtrip():
    image = bytearray(0x200)
    image[0x00:0x03] = bytes([0x12, 0x01, 0x00])  # LCALL 0x100
    image[0x100] = 0x22                           # RET
    st = fresh()
    machine.step_concrete(st, bytes(image))
    assert st.pc == 0x100 and st.sp == 0x09
    machine.step_concrete(st, bytes(image))
    assert st.pc == 0x03 and st.sp == 0x07


def test_div_by_zero_convention():
    st = fresh()
    st.acc = 0x42
    st.write_sfr(machine.B, 0)
    machine.step_concrete(st, bytes([0x84]))
    assert st.acc == 0x42 and st.read_sfr(machine.B) == 0
    assert st.flag(machine.PSW_OV) == 1
    assert st.flag(machine.PSW_CY) == 0


def isr_entries(image: bytes) -> dict[str, int]:
    return lifter.discover_isrs(lifter.lift_program(image))


def test_discover_isrs_reti_means_no_handler():
    image = bytearray(0x400)
    image[0x000B] = 0x32
    isrs = isr_entries(bytes(image))
    assert "timer0" not in isrs


def test_discover_isrs_trampoline():
    image = bytearray(0x400)
    image[0x0003:0x0006] = bytes([0x02, 0x04, 0x00])  # LJMP 0x0400... truncated
    image.extend(bytes(0x100))
    isrs = isr_entries(bytes(image))
    assert isrs["external0"] == 0x0400


def test_discover_isrs_all_zero_image():
    isrs = isr_entries(bytes(0x400))
    for source, (vector, _bit) in machine.INT_SOURCES.items():
        assert isrs[source] == vector


def test_discover_isrs_equals_the_decode_reference():
    # The rule read off the lifted program gives the map that decoding each
    # vector from the image gives: on the fixtures and on seeded random
    # images of 0-4 KiB, from a fresh program, and for the fixtures and the
    # first 200 random images also from one the static walk has filled, as
    # an analysis's is (a vector inside a walked block gets its suffix).
    images = [fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0]
              for t in ("straightline", "branchy", "benign-hid",
                        "injector-hid", "storage-claiming-hid")]
    rng = random.Random(30)
    images += [rng.randbytes(rng.randrange(0x1001)) for _ in range(3000)]
    seen = set()
    for i, image in enumerate(images):
        want = reference_ir.discover_isrs(image)
        assert isr_entries(image) == want, image.hex()
        if i < 205:
            walked = lifter.lift_program(image)
            usbstatic.reachable_instructions(walked)
            assert lifter.discover_isrs(walked) == want, image.hex()
        for source, (vector, _bit) in machine.INT_SOURCES.items():
            entry = want.get(source)
            seen.add("none" if entry is None else
                     "vector" if entry == vector else "trampoline")
    assert seen == {"none", "vector", "trampoline"}


def test_interrupt_enabled_predicate():
    def enabled(ie_value, source):
        mask = machine.ie_mask(source)
        return ie_value & mask == mask

    assert not enabled(0x00, "external0")
    assert not enabled(0x01, "external0")  # EA clear
    assert not enabled(0x80, "external0")  # source clear
    assert enabled(0x81, "external0")
    assert enabled(0x82, "timer0")
    assert enabled(0xA0, "timer2")
    assert [machine.ie_mask(s) for s in machine.INT_SOURCES] == [
        0x81, 0x82, 0x84, 0x88, 0x90, 0xA0]


def test_bit_addressing_iram_and_sfr():
    st = fresh()
    st.write_bit(0x00, 1)        # IRAM 0x20 bit 0
    assert st.iram[0x20] == 0x01
    st.write_bit(0xE0 + 3, 1)    # ACC.3
    assert st.acc == 0x08
    assert st.read_bit(0xE3) == 1


def test_jmp_a_dptr():
    st = fresh()
    st.acc = 4
    st.dptr = 0x100
    image = bytearray(0x200)
    image[0] = 0x73
    machine.step_concrete(st, bytes(image))
    assert st.pc == 0x104


# Operand bytes at which the interpreter's result depends on the value:
# direct and bit addresses split between IRAM and SFR at 0x80, PSW (0xD0)
# and its bits (0xD0-0xD7) are read with the live parity bit, and 0xE0 is
# ACC's address; 0x00, 0x7F and 0xFF are the ends of each range.
_EDGE_BYTES = (0x00, 0x7F, 0x80, 0xD0, 0xD7, 0xE0, 0xFF)


def _pin_states() -> list:
    """Eight seeded start states: each register bank twice, SP 0x07 and
    0xFE four times each, CY set in four and clear in four, and XRAM
    seeded at DPTR and in page 0 so MOVX reads written bytes."""
    rng = random.Random(35)
    states = []
    for i in range(8):
        st = machine.ConcreteState(iram=bytearray(rng.randbytes(256)),
                                   sfr=bytearray(rng.randbytes(128)))
        st.pc = 0
        st.sp = 0xFE if i >= 4 else machine.RESET_SP
        psw = st.sfr[machine.PSW - 0x80] & 0x67
        psw |= (i % 4) << 3 | ((i ^ i >> 2) & 1) << machine.PSW_CY
        st.write_sfr(machine.PSW, psw)
        st.xram = {a: rng.randrange(256) for a in rng.sample(range(256), 32)}
        st.xram[st.dptr] = rng.randrange(256)
        st.in_interrupt = bool(i & 1)
        states.append(st)
    return states


# Fills each pin image to 256 bytes, so MOVC reads image bytes.
_PIN_TAIL = bytes((i * 37 + 11) & 0xFF for i in range(251))


def _interpreter_edge_digest() -> str:
    """sha256 over one step of every legal opcode, at each pair of operand
    bytes from _EDGE_BYTES, from each of _pin_states(): the state after the
    step, or the class of the exception it raised."""
    h = hashlib.sha256()
    states = _pin_states()
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        for b1 in _EDGE_BYTES:
            for b2 in _EDGE_BYTES:
                image = bytes([op, b1, b2, 0x80, 0xFE]) + _PIN_TAIL
                for st0 in states:
                    st = st0.clone()
                    try:
                        machine.step_concrete(st, image)
                    except Exception as e:
                        h.update(b"raise " + type(e).__name__.encode())
                        continue
                    h.update(b"state %d %d %d " % (
                        st.pc, st.instr_count, st.in_interrupt))
                    h.update(st.iram)
                    h.update(st.sfr)
                    h.update(repr(sorted(st.xram.items())).encode())
    return h.hexdigest()


# sha256 of _interpreter_edge_digest(); a change to the interpreter that
# alters any opcode's result at an operand edge, in any bank, at either
# stack end or with either carry, moves it.
INTERPRETER_EDGE_PIN = ("7630682640fdea080077ed969f399f9a"
                        "3a99aa94fca9db8bab4207659ecc7c9e")


def test_interpreter_pinned_at_operand_edges():
    assert _interpreter_edge_digest() == INTERPRETER_EDGE_PIN


def test_every_mnemonic_has_one_step():
    assert set(machine._STEPS) == isa.MNEMONICS


def _count_decodes(monkeypatch) -> list:
    calls = []
    decode = isa.decode

    def counting(image, addr):
        calls.append(addr)
        return decode(image, addr)

    monkeypatch.setattr(isa, "decode", counting)
    return calls


def test_loop_decodes_each_address_once(monkeypatch):
    calls = _count_decodes(monkeypatch)
    image = bytes([0xD8, 0xFE])  # djnz r0,$
    st = fresh()  # R0 = 0: the loop runs 256 times
    steps = 0
    while st.pc < len(image):
        machine.step_concrete(st, image)
        steps += 1
    assert steps == 256 and st.reg(0) == 0
    assert calls == [0]


def test_each_image_object_runs_its_own_code():
    mov = bytes([0x74, 0x11])   # mov a,#0x11
    inc = bytes([0x04, 0x00])   # inc a
    st = fresh()
    for image, want in ((mov, 0x11), (inc, 0x12), (mov, 0x11), (inc, 0x12)):
        st.pc = 0
        machine.step_concrete(st, image)
        assert st.acc == want


def test_illegal_opcode_raises_on_every_call(monkeypatch):
    calls = _count_decodes(monkeypatch)
    image = bytes([isa.RESERVED_OPCODE])
    st = fresh()
    for _ in range(3):
        with pytest.raises(isa.IllegalOpcode):
            machine.step_concrete(st, image)
        assert st.pc == 0 and st.instr_count == 0
    assert calls == [0, 0, 0]
