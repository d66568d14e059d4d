import hashlib
import json
import random

import pytest

from usbvet import fwkit, isa, lifter, machine, queries, usbstatic
from usbvet.lifter import Region
from usbvet.usbstatic import (CONFIG_DESC, DEFAULT_SIGNATURES, DEVICE_DESC,
                              HID_REPORT, prop_const_mem, scan_signatures)

import reference_ir
from static_facts import static_facts
from test_queries import _triage_images
from test_report_bytes import VARIANTS


def naive_match(image, pattern):
    """O(n*m) oracle matcher (overlapping matches)."""
    out = []
    for pos in range(len(image) - len(pattern.pattern) + 1):
        if all(b is None or image[pos + i] == b
               for i, b in enumerate(pattern.pattern)):
            out.append(pos)
    return out


def test_scan_empty_image():
    assert scan_signatures(b"") == []


def test_scan_planted_config_descriptor():
    image = bytearray(0x4000)
    image[0x303D:0x3044] = bytes([0x09, 0x02, 0x22, 0x00, 0x01, 0x01, 0x00])
    hits = scan_signatures(bytes(image), (CONFIG_DESC,))
    assert [h.addr for h in hits] == [0x303D]


def test_scan_planted_hid_report():
    image = bytearray(0x4000)
    image[0x3084:0x3089] = bytes([0x05, 0x01, 0x09, 0x06, 0xA1])
    hits = scan_signatures(bytes(image), (HID_REPORT,))
    assert [h.addr for h in hits] == [0x3084]


def test_scan_agrees_with_naive_oracle_on_random_images():
    rng = random.Random(1234)
    for _ in range(100):
        image = bytes(rng.randrange(256) for _ in range(rng.randrange(64, 2048)))
        for pat in DEFAULT_SIGNATURES:
            naive = naive_match(image, pat)
            got = [h.addr for h in scan_signatures(image, (pat,))]
            # scanner reports non-overlapping matches: every hit must be in
            # the oracle set, and if the oracle found any the scanner finds
            # the first one
            assert set(got) <= set(naive)
            if naive:
                assert got and got[0] == naive[0]
            else:
                assert not got


def test_scan_finds_every_planted_instance():
    rng = random.Random(77)
    for _ in range(50):
        image = bytearray(0x1000)
        planted = sorted(rng.sample(range(0, 0xF80, 16), 3))
        for p in planted:
            image[p:p + 5] = bytes([0x12, 0x01, 0x00, rng.randrange(256), 0x00])
        got = [h.addr for h in scan_signatures(bytes(image), (DEVICE_DESC,))]
        assert got == planted


def test_signature_file_roundtrip():
    text = ("DEVICE_DESC: 12 01 00 ?? 00\n"
            "CONFIG_DESC: 09 02 ?? ?? ?? 01 00\n"
            "# the HID report descriptor prefix\n"
            "\n"
            "HID_REPORT: 05 01 09 06 a1  # usage page, usage, collection\n"
            "MASS_STORAGE_CBW: 55 53 42 43\n")
    parsed = usbstatic.parse_signature_file(text)
    assert tuple(parsed) == tuple(DEFAULT_SIGNATURES)
    custom = usbstatic.parse_signature_file("AUDIO_HDR: 24 02 ?? 01\n")
    assert custom[0].pattern == (0x24, 0x02, None, 0x01)


def sweep(image):
    return isa.disassemble_sweep(bytes(image), 0)[0]


def test_find_xrefs_fig3_shape():
    image = bytearray(0x1000)
    image[0x0BEE:0x0BF5] = bytes([0x7F, 0x00, 0xEF, 0x90, 0x30, 0xC3, 0x93])
    image[0x0BF5:0x0BF7] = bytes([0x80, 0xFE])
    assert usbstatic.find_xrefs(sweep(image), 0x30C3) == [0x0BF1]


def test_find_xrefs_absent_target():
    image = bytes([0x00] * 64)
    assert usbstatic.find_xrefs(sweep(image), 0x4444) == []


def test_find_xrefs_range_membership():
    # loading an interior address of the descriptor still counts
    image = bytearray(0x1000)
    image[0x100:0x104] = bytes([0x90, 0x30, 0xC3, 0x93])
    assert usbstatic.find_xrefs(sweep(image), 0x3084,
                                range_len=0x64) == [0x100]


def test_find_xrefs_requires_code_read_downstream():
    # DPTR load immediately retargeted before any MOVC: not an XREF
    image = bytearray(0x1000)
    image[0x100:0x107] = bytes([0x90, 0x30, 0xC3,   # mov dptr,#0x30c3
                                0x90, 0x40, 0x00,   # mov dptr,#0x4000
                                0x22])              # ret
    assert usbstatic.find_xrefs(sweep(image), 0x30C3) == []


def reachable_xrefs(image, patterns=DEFAULT_SIGNATURES):
    return usbstatic.scan_with_xrefs(
        image, usbstatic.reachable_instructions(lifter.lift_program(image)),
        patterns)


def test_fixture_xrefs_found_for_all_descriptors():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    hits = reachable_xrefs(image)
    by_name = {h.name: h for h in hits if h.name in man.descriptors}
    for name, addr in man.descriptors.items():
        assert by_name[name].addr == addr
        assert by_name[name].xrefs, name


# A device descriptor at 0x0300 and one real read of it from main; the
# vectors' NOP sleds end at the `halt` before main.
XREF_DESC = """
.org 0x0300
desc:
    .db 0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40, 0x47, 0x05
    .db 0x02, 0x21, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01
"""


def test_xrefs_ignore_a_dptr_load_in_unreachable_data():
    # A data table after main holds `90 03 02 93`: to a linear sweep a
    # `mov dptr,#0x0302; movc` aimed into the descriptor, which no code
    # executes.
    image, sym = fwkit.assemble_with_symbols("""
    ljmp main
.org 0x0100
halt:
    sjmp halt
main:
    mov dptr, #desc
    clr a
    movc a, @a+dptr
    sjmp main
table:
    .db 0x90, 0x03, 0x02, 0x93
""" + XREF_DESC)
    (hit,) = reachable_xrefs(image, (DEVICE_DESC,))
    assert hit.addr == sym["desc"]
    assert hit.xrefs == [sym["main"]]
    assert usbstatic.find_xrefs(sweep(image), hit.addr, 18) == [
        sym["main"], sym["table"]]


def test_xrefs_find_a_dptr_load_a_sweep_misaligns_over():
    # The data byte 0x02 before main decodes as a three-byte LJMP that
    # swallows the `mov dptr,#desc` main starts with.
    image, sym = fwkit.assemble_with_symbols("""
    ljmp main
.org 0x0100
halt:
    sjmp halt
    .db 0x02
main:
    mov dptr, #desc
    clr a
    movc a, @a+dptr
    sjmp main
""" + XREF_DESC)
    (hit,) = reachable_xrefs(image, (DEVICE_DESC,))
    assert hit.xrefs == [sym["main"]]
    assert usbstatic.find_xrefs(sweep(image), hit.addr, 18) == []


def _record_sweep(image):
    """The linear sweep as a decode-and-resync loop over records."""
    instrs, skipped = [], []
    pos = 0
    while pos < len(image):
        try:
            ins = isa.decode(image, pos)
        except isa.IsaError:
            skipped.append(pos)
            pos += 1
            continue
        instrs.append(ins)
        pos += ins.length
    return instrs, skipped


def _xref_image(rng):
    """Random code over every opcode, 0xA5 included, with the default
    descriptors planted and MOV DPTR loads aimed into them, some followed by
    a CODE read; it often ends in a truncated instruction."""
    descs = [bytes([0x12, 0x01, 0x00, 0x02, 0x00]) + bytes(13),
             bytes([0x09, 0x02, 0x22, 0x00, 0x01, 0x01, 0x00]) + bytes(2),
             bytes([0x05, 0x01, 0x09, 0x06, 0xA1, 0x01])]
    base = rng.randrange(0x300, 0x700)
    addrs = []
    pos = base
    for d in descs:
        addrs.append((pos, len(d)))
        pos += len(d) + rng.randrange(0, 8)
    code = bytearray()
    while len(code) < base - 8:
        if rng.random() < 0.1:
            a, n = rng.choice(addrs)
            imm = a + rng.randrange(-2, n + 2)
            code += bytes([0x90, imm >> 8 & 0xFF, imm & 0xFF])
            for _ in range(rng.randrange(0, 4)):
                code.append(rng.choice((0x00, 0x04, 0xA3, 0xE4, 0xA5, 0x90)))
            if rng.random() < 0.6:
                code.append(rng.choice((0x93, 0x83, 0x73)))
        else:
            op = rng.randrange(256)
            length = isa.TABLE[op].length if op in isa.TABLE else 1
            code += bytes([op]) + rng.randbytes(length - 1)
    image = bytearray(code[:base]) + bytes(max(0, base - len(code)))
    for (a, _), d in zip(addrs, descs):
        image[len(image):a] = rng.randbytes(a - len(image))
        image += d
    if rng.random() < 0.7:
        op = rng.choice([o for o in isa.TABLE if isa.TABLE[o].length > 1])
        image += bytes([op]) + rng.randbytes(rng.randrange(isa.TABLE[op].length - 1))
    return bytes(image)


@pytest.mark.parametrize("source", ["fixtures", "random"])
def test_scan_with_xrefs_matches_record_path(source, tmp_path):
    # The sweep is the record-level decode-and-resync loop. Where the sweep
    # stays aligned over the code, as on the fixtures and their seeded
    # variants, the XREFs among the reachable instructions are those the
    # same rule finds over the sweep.
    if source == "fixtures":
        images = [fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0]
                  for t in ("benign-hid", "injector-hid",
                            "storage-claiming-hid")]
        images += [fwkit.generate_fixture(spec)[0]
                   for spec, _, _ in VARIANTS.values()]
        images += [image for image, _ in _triage_images(tmp_path, 4)]
    else:
        rng = random.Random(2024)
        images = [_xref_image(rng) for _ in range(60)]
    with_xrefs = 0
    for image in images:
        instrs, skipped = _record_sweep(image)
        swept, diags = isa.disassemble_sweep(image, 0)
        assert swept == instrs
        assert [d.addr for d in diags] == skipped
        if source == "random":
            continue
        hits = reachable_xrefs(image)
        assert len(hits) >= 3
        for h in hits:
            extent = usbstatic.descriptor_extent(image, h)
            assert h.xrefs == usbstatic.find_xrefs(instrs, h.addr, extent)
            with_xrefs += bool(h.xrefs)
    if source == "fixtures":
        assert len(images) == 18 and with_xrefs >= len(images)


# ---------------------------------------------------------------------------
# Constant-address propagation
# ---------------------------------------------------------------------------

TABLE1_SRC = """
L1: mov dptr, #0x276c
L2: movc a, @a+dptr
L3: mov r4, a
L4: mov dptr, #0xf1dc
L5: movx @dptr, a
"""


def test_prop_reproduces_table1_trace():
    image, syms = fwkit.assemble_with_symbols(TABLE1_SRC)
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = prop_const_mem(instrs)
    L = {k: syms[k] for k in ("L1", "L2", "L3", "L4", "L5")}
    assert M.get(L["L1"], "src") == (None, None)          # NA
    assert M.get(L["L1"], "dst") == (0x276C, None)
    assert M.get(L["L2"], "src") == (None, 0x276C)
    assert M.get(L["L2"], "dst") == (None, 0x276C)
    assert M.get(L["L3"], "src") == (None, 0x276C)
    assert M.get(L["L3"], "dst") == (None, 0x276C)
    assert M.get(L["L4"], "dst") == (0xF1DC, None)
    assert M.get(L["L5"], "src") == (None, 0x276C)
    assert M.get(L["L5"], "dst") == (None, 0xF1DC)


def test_prop_no_constant_seeds_everything_bottom():
    # only moves between registers, no constants into registers
    image, _ = fwkit.assemble_with_symbols("mov a, r1\nmov r2, a\nret")
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = prop_const_mem(instrs)
    for ins in instrs:
        assert M.get(ins.addr, "src") == (None, None)
        assert M.get(ins.addr, "dst") == (None, None)


def test_prop_revisit_bound_diamond():
    # two constant seeds feed one non-register store through ACC: the store's
    # src role retains the second assignment
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr
        jz other
    s1: mov a, #0x11
        sjmp use
    other:
    s2: mov a, #0x22
    use:
    u:  mov 0x30, a
    spin: sjmp spin
    """
    image, syms = fwkit.assemble_with_symbols(src)
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = prop_const_mem(instrs)
    assert M.get(syms["s1"], "dst") == (0x11, None)
    assert M.get(syms["s2"], "dst") == (0x22, None)
    # seeds are processed in address order, so the later seed's tuple lands last
    assert M.get(syms["u"], "src") == (0x22, None)


def test_prop_arithmetic_stops_propagation():
    src = """
        mov a, #0x40
        add a, #0x02
        mov 0x30, a
        ret
    """
    image, syms = fwkit.assemble_with_symbols(src)
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = prop_const_mem(instrs)
    store = instrs[2]
    assert store.mnemonic == "MOV"
    assert M.get(store.addr, "src") == (None, None)


def test_prop_fact_witnessed_by_concrete_execution():
    # under-approximation: the reported L5 flow is witnessed by actually
    # running the straight-line chain
    image, syms = fwkit.assemble_with_symbols(TABLE1_SRC)
    padded = bytes(image) + bytes(0x280 * 16)
    img = bytearray(padded)
    img[0x276C] = 0xAB
    st = machine.ConcreteState()
    for _ in range(5):
        machine.step_concrete(st, bytes(img))
    assert st.xram[0xF1DC] == 0xAB


# Each program stores through R0 after a write the old per-mnemonic table
# missed: a bit write to B (twice), CJNE's carry write to PSW, and a PSW read
# that substitutes the parity bit. No constant may be tracked to the store.
STALE_ADDRESS_PROGRAMS = {
    "setb-bit": "mov 0xf0, #0x40\nsetb 0xf0\nmov r0, 0xf0\nw: movx @r0, a",
    "mov-bit-c": "mov 0xf0, #0x40\nsetb c\nmov 0xf0, c\nmov r0, 0xf0\n"
                 "w: movx @r0, a",
    "cjne-carry": "mov psw, #0\ncjne a, #3, n\nn: mov r0, psw\nw: movx @r0, a",
    "psw-parity": "mov a, #1\nmov psw, #0\nmov r0, psw\nw: movx @r0, a",
}


@pytest.mark.parametrize("name", sorted(STALE_ADDRESS_PROGRAMS))
def test_prop_tracks_no_stale_store_address(name):
    image, syms = fwkit.assemble_with_symbols(
        STALE_ADDRESS_PROGRAMS[name] + "\nret")
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = prop_const_mem(instrs)
    assert M.get(syms["w"], "dst") == (None, None)


def test_prop_tracks_no_stack_address():
    # the stack is not modelled: a constant SP is no load address for POP
    # or RET
    image, syms = fwkit.assemble_with_symbols(
        "mov sp, #0x60\np: pop 0x30\nr: ret")
    M = prop_const_mem(isa.disassemble_sweep(image, 0)[0])
    assert M.get(syms["p"], "src") == M.get(syms["r"], "src") == (None, None)


def _oracle_state(rng) -> machine.ConcreteState:
    """Random IRAM, SFR and XRAM on register bank 0, with room on the stack
    for a call's two pushes."""
    st = machine.ConcreteState(iram=bytearray(rng.randbytes(256)),
                               sfr=bytearray(rng.randbytes(128)))
    st.sfr[machine.PSW - 0x80] &= 0xE7
    st.sp = rng.randrange(0x08, 0xF0)
    st.xram = {a: rng.randrange(256) for a in rng.sample(range(0x10000), 8)}
    st.xram[st.dptr] = rng.randrange(256)
    return st


def _byte(st, loc) -> int:
    region, addr = loc
    return st.sfr[addr - 0x80] if region == Region.SFR else st.iram[addr]


def _changed(before, after):
    """(Region, address) of every IRAM, SFR and XRAM byte the step changed."""
    out = {(Region.IRAM, a) for a in range(256)
           if before.iram[a] != after.iram[a]}
    out |= {(Region.SFR, a + 0x80) for a in range(128)
            if before.sfr[a] != after.sfr[a]}
    out |= {(Region.XRAM, a) for a in set(before.xram) | set(after.xram)
            if before.xram.get(a, 0) != after.xram.get(a, 0)}
    return out


def _held(st, locs) -> int:
    """The address a set of `addr_store` locations holds: DPTR or @Ri."""
    if set(locs) == set(usbstatic.DPTR_LOCS):
        return st.dptr
    (loc,) = locs
    return _byte(st, loc)


def test_summaries_are_sound_against_the_interpreter():
    # Every byte one step changes is a write, sits at a tracked store
    # address, or is a stack slot of PUSH/ACALL/LCALL; a copy's destination
    # ends up holding its source's old value.
    rng = random.Random(16)
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        for _ in range(6):
            image = bytes([op]) + rng.randbytes(2)
            blk = lifter.lift_block(image, 0)
            ins, sm = blk.instrs[0], usbstatic._block_summaries(blk)[0]
            for _ in range(4):
                before = _oracle_state(rng)
                after = machine.step_concrete(before.clone(), image)
                allowed = set(sm.writes)
                if sm.addr_store:
                    a = _held(before, sm.addr_store)
                    allowed |= {(Region.IRAM, a & 0xFF), (Region.XRAM, a)}
                if ins.mnemonic in ("PUSH", "ACALL", "LCALL"):
                    allowed |= {(Region.IRAM, (before.sp + k) & 0xFF)
                                for k in (1, 2)}
                stray = _changed(before, after) - allowed
                assert not stray, (ins, sorted(stray))
                if not sm.reads_value:
                    continue
                (src,) = sm.reads_value
                if sm.value_dst_reg is not None:
                    got = _byte(after, sm.value_dst_reg)
                elif sm.writes:
                    (dst,) = sm.writes
                    got = _byte(after, dst)
                elif ins.mnemonic == "MOVX":
                    got = after.xram[_held(before, sm.addr_store)]
                else:
                    got = after.iram[_held(before, sm.addr_store)]
                assert got == _byte(before, src), ins


def _fixtures_and_triage(tmp_path) -> list[bytes]:
    """The three fixtures and the seed-1 round-0 `identity-triage` images."""
    return ([fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0]
             for t in ("benign-hid", "injector-hid", "storage-claiming-hid")]
            + [image for image, _ in _triage_images(tmp_path, 1)])


def test_block_summaries_equal_the_per_instruction_reference(tmp_path):
    # One pass over a block's statements gives each instruction the summary
    # that reading its own statements alone gives.
    blocks = reference_ir.sample_blocks(_fixtures_and_triage(tmp_path), 29)
    for blk in blocks:
        assert (usbstatic._block_summaries(blk)
                == reference_ir.block_summaries(blk)), hex(blk.addr)


# ---------------------------------------------------------------------------
# EP0 inference (Alg. 1)
# ---------------------------------------------------------------------------


def test_ep0_inference_on_storage_fixture():
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="storage-claiming-hid"))
    inf = usbstatic.find_devspec_to_ep0(image, static_facts(image),
                                        scan_signatures(image))
    assert inf.ep0 == {0xF1DC}
    assert inf.target_sites == {"hid": [man.target_sites["hid_report_copy"]],
                                "mass-storage": []}


def test_ep0_disjoint_buffers_yield_no_targets():
    # device and config descriptors copied to different buffers
    src = """
    .org 0
        mov r7, #18
        mov r0, #0
d_loop:
        mov a, r0
        mov dptr, #dev
        movc a, @a+dptr
        mov dptr, #0x6000
        movx @dptr, a
        inc r0
        djnz r7, d_loop
        mov r7, #16
        mov r0, #0
c_loop:
        mov a, r0
        mov dptr, #cfg
        movc a, @a+dptr
        mov dptr, #0x6100
        movx @dptr, a
        inc r0
        djnz r7, c_loop
        mov r7, #8
        mov r0, #0
h_loop:
        mov a, r0
        mov dptr, #rep
        movc a, @a+dptr
        mov dptr, #0x6000
        movx @dptr, a
        inc r0
        djnz r7, h_loop
spin:   sjmp spin
dev:
.db 0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40
.db 0x34, 0x12, 0x78, 0x56, 0x00, 0x01, 0x01, 0x02, 0x00, 0x01
cfg:
.db 0x09, 0x02, 0x10, 0x00, 0x01, 0x01, 0x00, 0x80, 0x32
.db 0x09, 0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00
rep:
.db 0x05, 0x01, 0x09, 0x06, 0xa1, 0x01, 0xc0, 0x00
"""
    image, syms = fwkit.assemble_with_symbols(src)
    inf = usbstatic.find_devspec_to_ep0(image, static_facts(image),
                                        scan_signatures(image))
    assert 0x6100 in inf.ep0_1 and 0x6000 in inf.ep0_2
    assert inf.ep0 == set()
    assert inf.target_sites == {"hid": [], "mass-storage": []}


def test_ep0_requires_candidates():
    with pytest.raises(usbstatic.NoDescriptors):
        image = bytes(0x100)
        usbstatic.find_devspec_to_ep0(image, static_facts(image),
                                      scan_signatures(image))


def test_reachable_instructions_skip_data():
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="injector-hid"))
    reach = usbstatic.reachable_instructions(lifter.lift_program(image))
    addrs = {i.addr for i in reach}
    assert man.labels["main"] in addrs
    assert man.target_sites["hid_report_copy"] in addrs
    # descriptor data is not code
    assert man.descriptors["HID_REPORT"] not in addrs


def _mnemonic_successors(ins: isa.Instruction) -> list[int]:
    """The successor table the static pass once kept beside the lifter:
    a jump's target, none after RET, RETI or JMP @A+DPTR, a call's target
    and its fall-through, a branch's target and its fall-through, else the
    fall-through, never wrapped past 0xFFFF."""
    m = ins.mnemonic
    nxt = ins.addr + ins.length
    if m in ("LJMP", "AJMP", "SJMP"):
        return [ins.operands[0].value]
    if m in ("RET", "RETI", "JMP"):
        return []
    if m in ("LCALL", "ACALL"):
        return [ins.operands[0].value, nxt]
    if m in isa.CONTROL_FLOW:
        return [ins.operands[-1].value, nxt]
    return [nxt]


def test_block_successors_equal_the_mnemonic_table():
    # Every legal opcode with seeded operands, mid-image and at the top of a
    # 64 KiB image (where the fall-through would wrap to 0), followed by a
    # reserved opcode (the instruction ends its block) or by a NOP (only
    # control flow ends it).
    rng = random.Random(27)
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        length = isa.TABLE[op].length
        for _ in range(6):
            code = bytes([op]) + rng.randbytes(length - 1)
            for size, at in ((0x200, 0x100), (0x10000, 0x10000 - length)):
                for after in (isa.RESERVED_OPCODE, 0x00):
                    image = bytearray(size)
                    image[at:at + length] = code
                    image[(at + length) & 0xFFFF] = after
                    blk = lifter.lift_block(bytes(image), at)
                    ins = blk.instrs[0]
                    succ = usbstatic._block_summaries(blk)[0].succ
                    ends = (after == isa.RESERVED_OPCODE
                            or ins.mnemonic in isa.CONTROL_FLOW)
                    assert (len(blk.instrs) == 1) == ends, ins
                    assert list(succ) == _mnemonic_successors(ins), (
                        ins, hex(at), after)


def _static_facts_text(image: bytes) -> str:
    """The facts the analysis takes from the static pass: reachable
    addresses, M, the EP0 inference and the delay counters."""
    M = static_facts(image)
    inf = usbstatic.find_devspec_to_ep0(image, M, scan_signatures(image))
    return json.dumps({
        "reachable": [ins.addr for ins in M.instrs],
        "m": sorted(M.m.items()),
        "ep0": [sorted(inf.ep0_1), sorted(inf.ep0_2), sorted(inf.ep0)],
        "target_sites": inf.target_sites,
        "counters": sorted((Region(r).name, a)
                           for r, a in queries.find_counters(M)),
    }, sort_keys=True)


# sha256 of `_static_facts_text` per fixture and moved-layout variant
STATIC_FACTS_PINNED = {
    "benign-hid":
        "6f26d285acc97200764acd7962605499cfed1169126e535757cc7b2fe8f5c2d0",
    "benign-hid-moved":
        "8bba61fef464db17b1aeb1256ad77cfb81c7b04337c72683d6e9491df22313da",
    "injector-hid":
        "a83ad63c546d06940922223b2d87d4385ca1b860e4b462d9c5fb669e768eeaba",
    "injector-hid-moved":
        "f15fd87126decf72c9a8ac48505dd52cd9504767f1932d612cbe7e70041e8874",
    "storage-claiming-hid":
        "2d86e1d37b83e937cfcf3f79f8cc8525d39a71aa25f017ba8eb34c624e75d480",
    "storage-claiming-hid-moved":
        "4c0269d9c8217ea0f2cf4faa555b02d049c53e6499f2d72dcad984951e2889be",
}


@pytest.mark.parametrize("name", sorted(STATIC_FACTS_PINNED))
def test_static_facts_pinned(name):
    spec = (VARIANTS[name][0] if name in VARIANTS
            else fwkit.FixtureSpec(template=name))
    image, _ = fwkit.generate_fixture(spec)
    digest = hashlib.sha256(_static_facts_text(image).encode()).hexdigest()
    assert digest == STATIC_FACTS_PINNED[name]
