import hashlib
import inspect
import random
import re

import pytest

from usbvet import isa, lifter, machine, queries, symexec, usbstatic
from usbvet.lifter import Boundary, CJump, Jump, Load, Region, RetMark, Store

import diffutil
from test_usbstatic import _fixtures_and_triage


def test_nop_block_shape():
    blk = lifter.lift_block(bytes([0x00]), 0)
    assert isinstance(blk.stmts[0], Boundary)
    assert isinstance(blk.stmts[-1], Jump)
    assert blk.stmts[-1].target == 1
    assert blk.instr_addrs == [0]


def test_movc_lifts_to_code_load_and_acc_put():
    blk = lifter.lift_block(bytes([0x93, 0x80, 0xFE]), 0)
    loads = [s for s in blk.stmts if isinstance(s, Load)]
    assert any(s.region == Region.CODE for s in loads)
    stores = [s for s in blk.stmts if isinstance(s, Store)]
    assert any(s.region == Region.SFR and s.addr == machine.ACC
               for s in stores)


def test_movx_store_region():
    blk = lifter.lift_block(bytes([0xF0, 0x80, 0xFE]), 0)
    stores = [s for s in blk.stmts if isinstance(s, Store)]
    assert any(s.region == Region.XRAM for s in stores)


def test_every_block_starts_instructions_with_boundary():
    blk = lifter.lift_block(bytes([0x74, 0x05, 0x24, 0x01, 0x80, 0xFE]), 0)
    assert isinstance(blk.stmts[0], Boundary)
    boundaries = [s.addr for s in blk.stmts if isinstance(s, Boundary)]
    assert boundaries == [0, 2, 4]


def test_block_ends_at_first_control_flow_inclusive():
    # mov a,#1; ljmp 0; nop  -> block holds two instructions
    blk = lifter.lift_block(bytes([0x74, 0x01, 0x02, 0x00, 0x00, 0x00]), 0)
    assert blk.instr_addrs == [0, 2]
    assert isinstance(blk.stmts[-1], Jump) and blk.stmts[-1].target == 0


def test_cjump_successors():
    blk = lifter.lift_block(bytes([0x60, 0x02, 0x00, 0x00, 0x00]), 0)  # jz +2
    term = blk.stmts[-1]
    assert isinstance(term, CJump)
    assert {term.taken, term.fall} == {4, 2}


def test_ret_terminator_is_retmark():
    blk = lifter.lift_block(bytes([0x22]), 0)
    assert isinstance(blk.stmts[-1], RetMark) and not blk.stmts[-1].reti
    blk = lifter.lift_block(bytes([0x32]), 0)
    assert blk.stmts[-1].reti


def test_program_cache_returns_identical_block():
    prog = lifter.lift_program(bytes([0x00, 0x80, 0xFE]))
    assert prog.block(0) is prog.block(0)


class _FreshLifts:
    """A program whose every block is lifted from the image afresh."""

    def __init__(self, image: bytes):
        self.image = image

    def block(self, addr: int):
        return lifter.lift_block(self.image, addr)


def _facts(program, addr: int) -> tuple:
    """What the analyses read of the block at addr: its prepared form, its
    instructions' summaries, and the fresh reads of a handler entered
    there."""
    blk = program.block(addr)
    pb = symexec.prepare_block(blk)
    return (pb.addr, pb.steps, pb.init, pb.instr_addrs,
            usbstatic._block_summaries(blk),
            queries._fresh_reads(program, addr, None))


def test_entry_inside_a_block_gets_its_suffix(tmp_path, monkeypatch):
    # At every instruction inside a cached block, the block the program
    # gives is what a fresh lift gives to every analysis, and it lifts
    # nothing when it is a suffix.
    rng = random.Random(41)
    images = _fixtures_and_triage(tmp_path)
    randoms = [rng.randbytes(0x200) for _ in range(4)]
    lifted = []
    real = lifter.lift_block
    monkeypatch.setattr(lifter, "lift_block",
                        lambda image, addr: lifted.append(addr)
                        or real(image, addr))
    suffixes = 0
    for image in images + randoms:
        program = lifter.lift_program(image)
        if image in randoms:
            for addr in range(len(image)):
                try:
                    program.block(addr)
                except isa.IsaError:
                    pass
        else:
            usbstatic.reachable_instructions(program)
        inside = {ins.addr for blk in list(program.cache.values())
                  for ins in blk.instrs[1:]}
        for addr in sorted(inside):
            lifted.clear()
            got = _facts(program, addr)
            suffixes += addr not in lifted
            assert got == _facts(_FreshLifts(image), addr), hex(addr)
    assert suffixes > 500


def test_entry_inside_a_capped_block_is_lifted_fresh():
    # A block cut at MAX_BLOCK_INSTRS does not end where a lift from inside
    # it would, so such an entry is lifted, not cut from it.
    cap = lifter.MAX_BLOCK_INSTRS
    image = bytes(cap + 40) + bytes([0x80, 0xFE])  # NOPs, then sjmp $
    program = lifter.lift_program(image)
    assert len(program.block(0).instrs) == cap
    assert program.block(5).instr_addrs == list(range(5, 5 + cap))
    tail = program.block(cap)
    assert tail.instr_addrs == list(range(cap, cap + 41))
    assert program.block(cap + 38).instr_addrs == [cap + 38, cap + 39, cap + 40]


def test_all_opcodes_liftable():
    # conformance metric: every legal opcode lifts
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        image = bytes([op, 0x10, 0x02]) + bytes([0x80, 0xFE])
        blk = lifter.lift_block(image, 0)
        assert blk.instr_addrs[0] == 0


def _branched_on(fn) -> set[str]:
    """Names of the statement classes that fn tests with `cls is NAME`."""
    return set(re.findall(r"\bcls is (\w+)", inspect.getsource(fn)))


def test_ir_statement_set_is_closed():
    # Every statement kind the lifter emits, at every legal opcode, has a
    # branch in each IR consumer; a consumer skips an unknown kind silently.
    kinds = set()
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        blk = lifter.lift_block(bytes([op, 0x10, 0x02, 0x80, 0xFE]), 0)
        kinds.update(type(s).__name__ for s in blk.stmts)
    assert kinds == {"Boundary", "Assign", "Load", "Store", "CJump", "Jump",
                     "RetMark"}
    for consumer in (symexec.prepare_block, lifter.run_lifted,
                     lifter.format_block):
        assert kinds <= _branched_on(consumer), consumer.__name__
    # the static pass reads each instruction's statements, from its
    # Boundary on, in one pass over the block; `_exits` reads the terminator
    assert kinds - {"CJump", "Jump", "RetMark"} <= _branched_on(
        usbstatic._block_summaries)


def test_every_mnemonic_has_one_emitter():
    assert set(lifter._EMITTERS) == isa.MNEMONICS


def _translation_kernels() -> list:
    """The functions that run per decoded instruction or per statement:
    decode, the concrete evaluator, the emitter dispatch, every emitter and
    the statement builder's methods; and the reference interpreter's step,
    every step handler and their operand helpers."""
    fns = [isa.decode, lifter.run_lifted, lifter._lift_one]
    fns += lifter._EMITTERS.values()
    fns += [f for f in vars(lifter._Emit).values() if inspect.isfunction(f)]
    fns += [machine.step_concrete, machine._operand_value,
            machine._operand_store]
    fns += machine._STEPS.values()
    return fns


def test_translation_kernels_read_enum_members_through_aliases():
    # A Region or OpKind member lookup costs an order of magnitude more than
    # the module alias of the member; the kernels run once per instruction
    # or statement, so they read the aliases.
    lookups = {}
    for fn in _translation_kernels():
        found = re.findall(r"\b(?:Region|OpKind)\.[A-Z]\w*",
                           inspect.getsource(fn))
        if found:
            lookups[fn.__qualname__] = found
    assert not lookups


def test_prepared_step_set_is_closed():
    # Every step kind a prepared block holds, at every legal opcode, has a
    # branch in the executor's step loop.
    kinds = set()
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        blk = lifter.lift_block(bytes([op, 0x10, 0x02, 0x80, 0xFE]), 0)
        kinds.update(st[0].__name__ for st in symexec.prepare_block(blk).steps)
    assert kinds == {"Site", "Compute", "ComputeN", "Read", "Write", "Reread",
                     "Branch", "Goto"}
    assert kinds <= _branched_on(symexec.Executor._exec_from)


def test_pretty_printer_stable():
    blk = lifter.lift_block(bytes([0x74, 0x2A, 0x80, 0xFE]), 0)
    text = lifter.format_block(blk)
    assert text.splitlines()[0] == "block 0x0000"
    assert "put ACC" in text
    assert lifter.format_block(blk) == text


GOLDEN_MOV_A_IMM = """\
block 0x0000
  instr 0x0000 len 2
  put ACC = 0x2a
  instr 0x0002 len 2
  jump 0x0000"""


def test_pretty_printer_golden():
    blk = lifter.lift_block(bytes([0x74, 0x2A, 0x80, 0xFC]), 0)
    assert lifter.format_block(blk) == GOLDEN_MOV_A_IMM


def test_fig3_block_extends_past_movc():
    # the Fig. 3 snippet has no control transfer through 0x0bf4: the block
    # entered at 0x0bee holds all four instructions and keeps going until
    # one appears
    image = bytearray(0x1000)
    image[0x0BEE:0x0BF5] = bytes([0x7F, 0x00, 0xEF, 0x90, 0x30, 0xC3, 0x93])
    image[0x0BF5:0x0BF7] = bytes([0x80, 0xFE])  # sjmp $ terminates it
    prog = lifter.lift_program(bytes(image))
    blk = prog.block(0x0BEE)
    assert blk.instr_addrs[:4] == [0x0BEE, 0x0BF0, 0x0BF1, 0x0BF4]
    assert blk.instr_addrs[-1] == 0x0BF5


def test_add_flags_differential_exhaustive_pairs():
    # ADD A,R0 over every (ACC, R0) pair: flags and result must match the
    # interpreter bit-exactly
    image = bytes([0x28])  # ADD A,R0
    prog = lifter.lift_program(image)
    for a in range(256):
        for r in range(0, 256, 5):
            st1 = machine.ConcreteState()
            st1.acc = a
            st1.iram[0] = r
            st2 = st1.clone()
            machine.step_concrete(st1, image)
            lifter.run_lifted(prog, st2, 1)
            assert diffutil.states_equal(st1, st2), (a, r)


def test_pc_relative_base_is_next_instruction():
    # movc a,@a+pc at 0x10: base must be 0x11
    image = bytearray(0x40)
    image[0x10] = 0x83
    image[0x11 + 5] = 0x77
    st1 = machine.ConcreteState()
    st1.pc = 0x10
    st1.acc = 5
    st2 = st1.clone()
    machine.step_concrete(st1, bytes(image))
    lifter.run_lifted(lifter.lift_program(bytes(image)), st2, 1)
    assert st1.acc == 0x77
    assert diffutil.states_equal(st1, st2)


def test_differential_straight_line():
    assert diffutil.differential_straight(seed=101, trials=4000) == 0


def test_differential_with_control_flow():
    assert diffutil.differential_branchy(seed=202, trials=1500) == 0


def test_lifted_blocks_cover_interpreter_trace():
    # union of lazily lifted blocks covers every instruction the concrete
    # interpreter visits on a random branchy program
    rng = random.Random(77)
    for _ in range(25):
        image = diffutil.random_branchy_image(rng)
        st = machine.ConcreteState()
        visited = set()
        try:
            for _step in range(200):
                if st.pc >= len(image):
                    break
                visited.add(st.pc)
                machine.step_concrete(st, image)
        except (machine.MachineError, isa.IsaError):
            pass
        prog = lifter.lift_program(image)
        covered = set()
        work = [0]
        seen = set()
        while work:
            addr = work.pop()
            if addr in seen or addr >= len(image):
                continue
            seen.add(addr)
            try:
                blk = prog.block(addr)
            except isa.IsaError:
                continue
            covered.update(blk.instr_addrs)
            # static successors only: no call fall-through, no indirect target
            term = blk.stmts[-1]
            if isinstance(term, CJump):
                work.extend((term.taken, term.fall))
            elif isinstance(term, Jump) and isinstance(term.target, int):
                work.append(term.target)
        # static reachability cannot see indirect targets; compare only the
        # instructions the trace reached through static flow
        missing = {a for a in visited if a not in covered}
        # every miss must be explainable by an indirect jump on the trace
        if missing:
            has_indirect = any(
                isa.decode(image, a).mnemonic in ("JMP", "RET", "RETI")
                for a in visited if a < len(image))
            assert has_indirect, (sorted(hex(m) for m in missing))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 7])
def test_random_bytes_draws_as_randrange(seed):
    fast, oracle = random.Random(seed), random.Random(seed)
    for n in (0, 1, 2, 128, 256, 1000):
        want = bytes(oracle.randrange(256) for _ in range(n))
        assert diffutil.random_bytes(fast, n) == want
        assert fast.getstate() == oracle.getstate()


def test_differential_helpers_draw_pinned_data():
    # The digest of what the helpers drew when they called randrange(256)
    # once per byte: their inputs, and where they leave the generator.
    h = hashlib.sha256()
    for seed in (0, 1, 12345):
        rng = random.Random(seed)
        for _ in range(25):
            h.update(diffutil.random_straight_sequence(rng))
            st = diffutil.random_state(rng)
            h.update(st.iram + st.sfr)
            h.update(diffutil.random_branchy_image(rng))
        h.update(repr(rng.getstate()).encode())
    assert h.hexdigest() == ("65f1e9d9df11ede8b26b006d791721ed"
                             "76f01bc9cfe875aa80228b0dbd178497")


def _ir_pin_text() -> str:
    """The printed IR of one block per legal opcode, with seeded operand
    bytes, entered at two base addresses (AJMP/ACALL targets and relative
    jumps depend on the address)."""
    rng = random.Random(2604)
    out = []
    for base in (0x0000, 0x1234):
        for op in range(256):
            if op == isa.RESERVED_OPCODE:
                continue
            body = bytes([op, rng.randrange(256), rng.randrange(256),
                          0x80, 0xFE])
            blk = lifter.lift_block(bytes(base) + body, base)
            out.append(lifter.format_block(blk))
    return "\n".join(out)


# sha256 of _ir_pin_text(); a change to the lifter that alters the IR of any
# opcode moves it.
IR_PIN = "b203c28a6ec5f1ebd162f4579115d6d64c188e0a865d70d0b35b35ca260e62e7"


def test_lifted_ir_pinned():
    digest = hashlib.sha256(_ir_pin_text().encode()).hexdigest()
    assert digest == IR_PIN


# Operand bytes at which the lifter's IR depends on the value: direct
# addresses and bit addresses split between IRAM and SFR at 0x80, and PSW
# (0xD0) and its bits (0xD0-0xD7) are read through the parity substitution.
# 0xE0 is ACC's address; 0x00, 0x7F and 0xFF are the ends of each range.
_EDGE_BYTES = (0x00, 0x7F, 0x80, 0xD0, 0xD7, 0xE0, 0xFF)


def _ir_edge_pin_text() -> str:
    """The printed IR of one block per legal opcode and per pair of operand
    bytes drawn from _EDGE_BYTES."""
    out = []
    for op in range(256):
        if op == isa.RESERVED_OPCODE:
            continue
        for b1 in _EDGE_BYTES:
            for b2 in _EDGE_BYTES:
                blk = lifter.lift_block(bytes([op, b1, b2, 0x80, 0xFE]), 0)
                out.append(lifter.format_block(blk))
    return "\n".join(out)


# sha256 of _ir_edge_pin_text(); it moves when the IR changes at an operand
# value that the seeded operands of IR_PIN seldom reach.
IR_EDGE_PIN = ("a4230991d3d8463e9f14f0c52dddbba4"
               "9eb382e0cab94f2e14c3e19594169a1b")


def test_lifted_ir_pinned_at_operand_edges():
    digest = hashlib.sha256(_ir_edge_pin_text().encode()).hexdigest()
    assert digest == IR_EDGE_PIN
