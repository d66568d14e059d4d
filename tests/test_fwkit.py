import hashlib
import random

import pytest

from usbvet import fwkit, isa, machine
from usbvet.fwkit import FixtureSpec, assemble_with_symbols, generate_fixture

from test_report_bytes import VARIANTS

TEMPLATES = ("benign-hid", "injector-hid", "storage-claiming-hid",
             "straightline", "branchy")


def test_assemble_nop():
    assert assemble_with_symbols("nop")[0] == bytes([0x00])


def test_assemble_mov_direct_direct_emits_src_then_dst():
    assert assemble_with_symbols("mov 0x40, 0x30")[0] == bytes(
        [0x85, 0x30, 0x40])


def test_assemble_sfr_names_and_bits():
    assert assemble_with_symbols("mov ie, #0x81")[0] == bytes(
        [0x75, 0xA8, 0x81])
    assert assemble_with_symbols("jnb acc.0, next\nnext: nop")[0] == bytes(
        [0x30, 0xE0, 0x00, 0x00])


def test_assemble_labels_and_org():
    image = assemble_with_symbols("""
    .org 0
        ljmp main
    .org 0x40
    main:
        sjmp main
    """)[0]
    assert image[0:3] == bytes([0x02, 0x00, 0x40])
    assert image[0x40:0x42] == bytes([0x80, 0xFE])


def test_unresolved_label():
    with pytest.raises(fwkit.UnresolvedLabel):
        assemble_with_symbols("ljmp nowhere")


def test_relative_range_error():
    src = ".org 0\n sjmp far\n.org 0x300\nfar: nop"
    with pytest.raises(fwkit.OperandRange):
        assemble_with_symbols(src)


def test_addr11_page_error():
    src = ".org 0x7f0\n ajmp target\n.org 0x900\ntarget: nop"
    with pytest.raises(fwkit.OperandRange):
        assemble_with_symbols(src)


def test_roundtrip_random_programs_through_decoder ():
    # decode(assemble(p)) == p, with the decoder as the oracle: random
    # instructions are rendered to text, assembled at the same origin by
    # assemble_with_symbols, and must reproduce their bytes
    rng = random.Random(99)
    checked = 0
    while checked < 2500:
        op = rng.randrange(256)
        if op == isa.RESERVED_OPCODE:
            continue
        addr = rng.randrange(0, 0xFF00)
        raw = bytes([op]) + bytes(rng.randrange(256)
                                  for _ in range(isa.TABLE[op].length - 1))
        image = bytes(addr) + raw
        ins = isa.decode(image, addr)
        src = f".org 0x{addr:04x}\n    {ins.text()}\n"
        out = assemble_with_symbols(src)[0]
        assert out[addr:addr + ins.length] == raw, (hex(addr), ins.text())
        checked += 1


def test_fixtures_boot_10k_steps_without_illegal_opcodes():
    for template in TEMPLATES:
        image, _ = generate_fixture(FixtureSpec(template=template))
        assert len(image) <= 0x10000
        st = machine.ConcreteState()
        for _ in range(10_000):
            if st.pc >= len(image):
                break
            machine.step_concrete(st, image)  # raises on illegal opcodes


def test_manifest_records_asserted_addresses():
    # manifest completeness: everything the suites assert against is present
    image, man = generate_fixture(FixtureSpec(template="injector-hid"))
    assert man.descriptors["DEVICE_DESC"] == 0xB8A
    assert man.descriptors["CONFIG_DESC"] == 0xB9C
    assert man.descriptors["HID_REPORT"] == 0xBBE
    assert man.ep0 == 0x7E00 and man.ep_buffers == [0x7E80]
    assert man.setup_base == 0x7FE8
    assert len(man.env_bytes) == 6
    assert man.counter_addrs == [0x35]
    assert man.malicious_store_sites and man.scancodes
    for name, addr in man.target_sites.items():
        assert 0 <= addr < len(image)
    for site in man.malicious_store_sites:
        assert image[site] == 0xF0  # movx @dptr,a
    assert set(man.isr_entries) == {"external0", "timer0"}
    assert man.isr_entries["external0"] == man.labels["usb_isr"]


def test_benign_manifest_has_no_malicious_fields():
    _, man = generate_fixture(FixtureSpec(template="benign-hid"))
    assert man.malicious_store_sites == []
    assert man.counter_addrs == []
    assert man.scancodes == []


def test_storage_manifest_ep0_is_shared_buffer():
    _, man = generate_fixture(FixtureSpec(template="storage-claiming-hid"))
    assert man.ep0 == 0xF1DC
    assert man.descriptors == {"DEVICE_DESC": 0x302B, "CONFIG_DESC": 0x303D,
                               "HID_REPORT": 0x3084}


def test_storage_default_layout_keeps_the_callers_spec():
    # the Phison-shaped layout replaces the descriptor block and EP0 only;
    # the SETUP packet and the IRQ status byte stay where the caller put them
    spec = FixtureSpec(template="storage-claiming-hid", setup_base=0x7FC0,
                       usb_irq_addr=0x7F91)
    image, man = generate_fixture(spec)
    assert man.setup_base == 0x7FC0 and man.ep0 == 0xF1DC
    assert man.env_bytes[:3] == [("XRAM", 0x7F91), ("XRAM", 0x7FC1),
                                 ("XRAM", 0x7FC3)]
    mov_dptr = bytes([0x90])
    assert mov_dptr + bytes([0x7F, 0xC1]) in image     # MOV DPTR,#0x7FC1
    assert mov_dptr + bytes([0x7F, 0x91]) in image     # MOV DPTR,#0x7F91
    assert mov_dptr + bytes([0x7F, 0xE9]) not in image


def test_storage_default_layout_keeps_a_moved_ep0():
    # moving only EP0 keeps it there, in the image and in the manifest
    image, man = generate_fixture(FixtureSpec(
        template="storage-claiming-hid", ep0_fifo=0x7500))
    assert man.ep0 == 0x7500
    assert man.descriptors["DEVICE_DESC"] == 0x302B
    mov_dptr = bytes([0x90])
    assert mov_dptr + bytes([0x75, 0x00]) in image     # MOV DPTR,#0x7500
    assert mov_dptr + bytes([0xF1, 0xDC]) not in image


# sha256 of image + manifest.to_json(), pinned before the generators were
# rewritten around shared routines
PINNED_FIXTURES = {
    "benign-hid":
        "b56c26427dc3eeac9601ba63e9af429ff9bd904adde9947b06fa9813151eebf3",
    "injector-hid":
        "696572a046973d15b8e5fd8222d148ca7ec266872c37870c44296086cbda534e",
    "storage-claiming-hid":
        "7f14beb277221fdd6afc74d63ef676a1920d82226afe7ea29b2ae9986c3cabb5",
    "straightline":
        "6ac295ce47415ff8f2df8b1cbaed414c1a52f71e0313961e125b61c8fa58cdff",
    "branchy":
        "0a06f868dc0efc09111577243224b06bca8b2cdfb0bccb229a617dfa7a4a8b4c",
    "benign-hid-moved":
        "29b86dc6c0a1d30a58d30a895af3528a339be00c726ac1424de4878e63336cbd",
    "injector-hid-moved":
        "3215a9eb5b0f40141cc15a1bf4e6bf11695c4f9736b4f9039cd82f384913750e",
    "storage-claiming-hid-moved":
        "4e5ae968e01ca9a2c191e31990ddcfbcb8806e3fe4a9121fec2efa3b7c88f3ca",
}


@pytest.mark.parametrize("name", sorted(PINNED_FIXTURES))
def test_fixture_images_pinned(name):
    spec = (VARIANTS[name][0] if name in VARIANTS
            else FixtureSpec(template=name))
    image, man = generate_fixture(spec)
    digest = hashlib.sha256(image + man.to_json().encode()).hexdigest()
    assert digest == PINNED_FIXTURES[name]


def test_injector_writes_configured_scancodes():
    # run the injector long enough concretely that the counter trips and the
    # script lands in the endpoint buffer
    spec = FixtureSpec(template="injector-hid", inject_threshold=2)
    image, man = generate_fixture(spec)
    st = machine.ConcreteState()
    # make timer ticks happen: fire timer0 by simulating vector entry when IE
    # allows; simplest is to run and inject the interrupt manually
    fired = 0
    timer0 = machine.ie_mask("timer0")
    for _ in range(60_000):
        if st.pc >= len(image):
            break
        ie = st.read_sfr(machine.IE)
        if (ie & timer0 == timer0 and not st.in_interrupt
                and st.pc < 0x1000 and fired < 8 and st.instr_count % 97 == 0):
            st.push(st.pc & 0xFF)
            st.push(st.pc >> 8)
            st.pc = machine.INT_SOURCES["timer0"][0]
            st.in_interrupt = True
            fired += 1
        machine.step_concrete(st, image)
    # the injection ran to completion: the buffer holds the script's second
    # 8-byte report
    got = [st.xram.get(man.ep_buffers[0] + i) for i in range(8)]
    assert got == list(spec.scancodes[8:16])


def test_fixture_manifest_serializes():
    import json
    _, man = generate_fixture(FixtureSpec(template="branchy"))
    data = json.loads(man.to_json())
    assert data["template"] == "branchy"
    assert data["target_sites"]["guarded"] == man.target_sites["guarded"]


def test_unknown_template_rejected():
    with pytest.raises(fwkit.AsmError):
        generate_fixture(FixtureSpec(template="nonesuch"))
