import hashlib
import random

import pytest

from usbvet import isa

REFERENCE_TABLE = (  # opcode:mnemonic:length, cross-checked against an
    # independent open-source MCS-51 disassembler
    "00:NOP:1 01:AJMP:2 02:LJMP:3 03:RR:1 04:INC:1 05:INC:2 06:INC:1 "
    "07:INC:1 08:INC:1 09:INC:1 0a:INC:1 0b:INC:1 0c:INC:1 0d:INC:1 0e:INC:1 "
    "0f:INC:1 10:JBC:3 11:ACALL:2 12:LCALL:3 13:RRC:1 14:DEC:1 15:DEC:2 "
    "16:DEC:1 17:DEC:1 18:DEC:1 19:DEC:1 1a:DEC:1 1b:DEC:1 1c:DEC:1 1d:DEC:1 "
    "1e:DEC:1 1f:DEC:1 20:JB:3 21:AJMP:2 22:RET:1 23:RL:1 24:ADD:2 25:ADD:2 "
    "26:ADD:1 27:ADD:1 28:ADD:1 29:ADD:1 2a:ADD:1 2b:ADD:1 2c:ADD:1 2d:ADD:1 "
    "2e:ADD:1 2f:ADD:1 30:JNB:3 31:ACALL:2 32:RETI:1 33:RLC:1 34:ADDC:2 "
    "35:ADDC:2 36:ADDC:1 37:ADDC:1 38:ADDC:1 39:ADDC:1 3a:ADDC:1 3b:ADDC:1 "
    "3c:ADDC:1 3d:ADDC:1 3e:ADDC:1 3f:ADDC:1 40:JC:2 41:AJMP:2 42:ORL:2 "
    "43:ORL:3 44:ORL:2 45:ORL:2 46:ORL:1 47:ORL:1 48:ORL:1 49:ORL:1 4a:ORL:1 "
    "4b:ORL:1 4c:ORL:1 4d:ORL:1 4e:ORL:1 4f:ORL:1 50:JNC:2 51:ACALL:2 "
    "52:ANL:2 53:ANL:3 54:ANL:2 55:ANL:2 56:ANL:1 57:ANL:1 58:ANL:1 59:ANL:1 "
    "5a:ANL:1 5b:ANL:1 5c:ANL:1 5d:ANL:1 5e:ANL:1 5f:ANL:1 60:JZ:2 61:AJMP:2 "
    "62:XRL:2 63:XRL:3 64:XRL:2 65:XRL:2 66:XRL:1 67:XRL:1 68:XRL:1 69:XRL:1 "
    "6a:XRL:1 6b:XRL:1 6c:XRL:1 6d:XRL:1 6e:XRL:1 6f:XRL:1 70:JNZ:2 "
    "71:ACALL:2 72:ORL:2 73:JMP:1 74:MOV:2 75:MOV:3 76:MOV:2 77:MOV:2 "
    "78:MOV:2 79:MOV:2 7a:MOV:2 7b:MOV:2 7c:MOV:2 7d:MOV:2 7e:MOV:2 7f:MOV:2 "
    "80:SJMP:2 81:AJMP:2 82:ANL:2 83:MOVC:1 84:DIV:1 85:MOV:3 86:MOV:2 "
    "87:MOV:2 88:MOV:2 89:MOV:2 8a:MOV:2 8b:MOV:2 8c:MOV:2 8d:MOV:2 8e:MOV:2 "
    "8f:MOV:2 90:MOV:3 91:ACALL:2 92:MOV:2 93:MOVC:1 94:SUBB:2 95:SUBB:2 "
    "96:SUBB:1 97:SUBB:1 98:SUBB:1 99:SUBB:1 9a:SUBB:1 9b:SUBB:1 9c:SUBB:1 "
    "9d:SUBB:1 9e:SUBB:1 9f:SUBB:1 a0:ORL:2 a1:AJMP:2 a2:MOV:2 a3:INC:1 "
    "a4:MUL:1 a6:MOV:2 a7:MOV:2 a8:MOV:2 a9:MOV:2 aa:MOV:2 ab:MOV:2 ac:MOV:2 "
    "ad:MOV:2 ae:MOV:2 af:MOV:2 b0:ANL:2 b1:ACALL:2 b2:CPL:2 b3:CPL:1 "
    "b4:CJNE:3 b5:CJNE:3 b6:CJNE:3 b7:CJNE:3 b8:CJNE:3 b9:CJNE:3 ba:CJNE:3 "
    "bb:CJNE:3 bc:CJNE:3 bd:CJNE:3 be:CJNE:3 bf:CJNE:3 c0:PUSH:2 c1:AJMP:2 "
    "c2:CLR:2 c3:CLR:1 c4:SWAP:1 c5:XCH:2 c6:XCH:1 c7:XCH:1 c8:XCH:1 "
    "c9:XCH:1 ca:XCH:1 cb:XCH:1 cc:XCH:1 cd:XCH:1 ce:XCH:1 cf:XCH:1 d0:POP:2 "
    "d1:ACALL:2 d2:SETB:2 d3:SETB:1 d4:DA:1 d5:DJNZ:3 d6:XCHD:1 d7:XCHD:1 "
    "d8:DJNZ:2 d9:DJNZ:2 da:DJNZ:2 db:DJNZ:2 dc:DJNZ:2 dd:DJNZ:2 de:DJNZ:2 "
    "df:DJNZ:2 e0:MOVX:1 e1:AJMP:2 e2:MOVX:1 e3:MOVX:1 e4:CLR:1 e5:MOV:2 "
    "e6:MOV:1 e7:MOV:1 e8:MOV:1 e9:MOV:1 ea:MOV:1 eb:MOV:1 ec:MOV:1 ed:MOV:1 "
    "ee:MOV:1 ef:MOV:1 f0:MOVX:1 f1:ACALL:2 f2:MOVX:1 f3:MOVX:1 f4:CPL:1 "
    "f5:MOV:2 f6:MOV:1 f7:MOV:1 f8:MOV:1 f9:MOV:1 fa:MOV:1 fb:MOV:1 fc:MOV:1 "
    "fd:MOV:1 fe:MOV:1 ff:MOV:1 "
)


def reference_entries():
    out = {}
    for cell in "".join(REFERENCE_TABLE).split():
        op, mnem, length = cell.split(":")
        out[int(op, 16)] = (mnem, int(length))
    return out


def test_table_shape():
    assert len(isa.TABLE) == 255
    assert isa.RESERVED_OPCODE not in isa.TABLE
    assert len(isa.MNEMONICS) == 44
    for op, info in isa.TABLE.items():
        consumed = sum(isa._SPEC_BYTES[s] for s in info.specs)
        assert info.length == 1 + consumed


def test_table_matches_independent_reference():
    ref = reference_entries()
    assert len(ref) == 255
    for op, (mnem, length) in ref.items():
        info = isa.TABLE[op]
        assert info.mnemonic == mnem, f"0x{op:02x}"
        assert info.length == length, f"0x{op:02x}"


def test_decode_nop():
    ins = isa.decode(bytes([0x00]), 0)
    assert ins.mnemonic == "NOP" and ins.length == 1 and ins.operands == ()


def test_decode_mov_direct_direct_normalizes_operand_order():
    # byte stream is [op, src, dst]; decoded order must be dst-first
    ins = isa.decode(bytes([0x85, 0x30, 0x40]), 0)
    assert ins.mnemonic == "MOV"
    dst, src = ins.operands
    assert dst.kind is isa.OpKind.DIRECT and dst.value == 0x40
    assert src.kind is isa.OpKind.DIRECT and src.value == 0x30
    assert ins.raw == bytes([0x85, 0x30, 0x40])


def test_decode_ljmp():
    ins = isa.decode(bytes([0x02, 0x0B, 0x89]), 0)
    assert ins.mnemonic == "LJMP" and ins.length == 3
    assert ins.operands[0].value == 0x0B89


def test_reserved_opcode_always_errors():
    for pad in range(3):
        with pytest.raises(isa.IllegalOpcode):
            isa.decode(bytes([0xA5] + [0] * pad), 0)


def test_truncated_instruction():
    with pytest.raises(isa.TruncatedInstruction):
        isa.decode(bytes([0x02, 0x0B]), 0)  # LJMP needs 3 bytes
    with pytest.raises(isa.TruncatedInstruction):
        isa.decode(bytes([0x00]), 1)  # past the end


def test_addr11_stays_in_page_of_next_instruction():
    rng = random.Random(11)
    for _ in range(500):
        base = rng.randrange(0, 0xF000)
        op = rng.choice([0x01, 0x21, 0x41, 0x61, 0x81, 0xA1, 0xC1, 0xE1,
                         0x11, 0x31, 0x51, 0x71, 0x91, 0xB1, 0xD1, 0xF1])
        image = bytes(base) + bytes([op, rng.randrange(256)])
        ins = isa.decode(image, base)
        assert (ins.operands[0].value & 0xF800) == ((base + 2) & 0xF800)


def test_rel_target_is_relative_to_next_instruction():
    # SJMP -2 at 0x10 loops to itself
    image = bytes(0x10) + bytes([0x80, 0xFE])
    ins = isa.decode(image, 0x10)
    assert ins.operands[0].value == 0x10


def test_sweep_three_nops():
    instrs, diags = isa.disassemble_sweep(bytes([0x00, 0x00, 0x00]))
    assert [i.mnemonic for i in instrs] == ["NOP"] * 3
    assert diags == []


def test_sweep_fig3_sequence():
    image = bytearray(0x1000)
    image[0x0BEE:0x0BF5] = bytes([0x7F, 0x00, 0xEF, 0x90, 0x30, 0xC3, 0x93])
    instrs, _ = isa.disassemble_sweep(bytes(image), 0x0BEE)
    four = instrs[:4]
    assert [i.addr for i in four] == [0x0BEE, 0x0BF0, 0x0BF1, 0x0BF4]
    assert [i.mnemonic for i in four] == ["MOV", "MOV", "MOV", "MOVC"]
    assert four[2].operands[1].value == 0x30C3


def test_sweep_resync_after_reserved_byte():
    # instructions before the bad byte, a diagnostic at it, resync at +1
    prefix = bytes([0x00, 0x04])          # NOP; INC A
    image = prefix + bytes([0xA5]) + bytes([0x00, 0x00])
    instrs, diags = isa.disassemble_sweep(image)
    assert len(diags) == 1 and diags[0].addr == len(prefix)
    assert [i.addr for i in instrs] == [0, 1, 3, 4]


def test_sweep_truncated_tail_is_diagnosed():
    instrs, diags = isa.disassemble_sweep(bytes([0x00, 0x02, 0x01]))
    assert [i.mnemonic for i in instrs[:1]] == ["NOP"]
    assert any(d.addr == 1 for d in diags)


def test_roundtrip_random_streams():
    rng = random.Random(1)
    for _ in range(5000):
        stream = bytes(rng.randrange(256) for _ in range(8))
        try:
            ins = isa.decode(stream, 0)
        except isa.IsaError:
            continue
        again = isa.decode(ins.raw, 0)
        assert again == ins


def test_totality_every_legal_opcode_decodes():
    for op in range(256):
        image = bytes([op, 0x12, 0x34])
        if op == 0xA5:
            with pytest.raises(isa.IllegalOpcode):
                isa.decode(image, 0)
        else:
            ins = isa.decode(image, 0)
            assert ins.length == isa.TABLE[op].length


def _decode_line(image, addr):
    """One decode as text that names no record type, or the error it raised."""
    try:
        ins = isa.decode(image, addr)
    except isa.IsaError as e:
        return f"{addr:04x} {type(e).__name__}: {e}"
    ops = ",".join(f"({op.kind.name},{op.value})" for op in ins.operands)
    return (f"{ins.addr:04x} {ins.opcode:02x} {ins.mnemonic} [{ops}] "
            f"{ins.length} {ins.raw.hex()}")


def test_decode_results_pinned():
    # Every address of a seeded 8 KiB random image, one past its end, and
    # every legal opcode in the last 1 and 2 bytes of a 2 KiB image (so
    # truncation, and an AJMP whose next address is on the next page).
    image = random.Random(8051).randbytes(0x2000)
    lines = [_decode_line(image, a) for a in range(len(image) + 1)]
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        for tail in (bytes([op]), bytes([op, 0x9C])):
            lines.append(_decode_line(bytes(0x800 - len(tail)) + tail,
                                      0x800 - len(tail)))
    assert len(lines) == 8703
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("baf65a3bdea916a6f05713dfcddcfede"
                      "3b9dbcbfa3aaf21ff135735fe876746f")


def test_decoded_records_are_values():
    image = bytes([0x85, 0x30, 0x40, 0xE8])
    a, b = isa.decode(image, 0), isa.decode(bytes(image), 0)
    assert a == b and hash(a) == hash(b)
    assert {a, b} == {a} and a != isa.decode(image, 3)
    with pytest.raises(AttributeError):
        a.addr = 1
    with pytest.raises(AttributeError):
        a.operands[0].value = 1
    assert isa.Operand(isa.OpKind.ACC).value is None
    assert repr(isa.decode(image, 3)) == (
        "Instruction(addr=3, opcode=232, mnemonic='MOV', operands=("
        "Operand(kind=<OpKind.ACC: 1>, value=None), "
        "Operand(kind=<OpKind.REG: 2>, value=0)), length=1, raw=b'\\xe8')")
