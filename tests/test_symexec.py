import hashlib
import random
import time

import pytest

from usbvet import fwkit, isa, lifter, machine, solver, symexec
from usbvet.lifter import Region
from usbvet.symexec import (ExecState, ExplorationConfig, Listener,
                            Frontier, SymbolicPolicy, execute, select_next)

import diffutil
import reference_ir
from test_usbstatic import _fixtures_and_triage

# mov dptr,#0x7fe9; movx a,@dptr; cjne a,#6,+3; nop; sjmp $; sjmp $
FORK_IMAGE = bytes([0x90, 0x7F, 0xE9, 0xE0, 0xB4, 0x06, 0x03,
                    0x00, 0x80, 0xFE, 0x80, 0xFE])
FORK_TARGET = 0x0007  # the nop on the ==6 arm


def xram_policy(*addrs):
    return SymbolicPolicy([(Region.XRAM, a) for a in addrs])


def test_straightline_pruned_with_full_coverage():
    image = bytes([0x00] * 10 + [0x80, 0xFE])
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1)
    res = execute(image, SymbolicPolicy(), cfg)
    assert len(res.ended) == 1
    assert res.ended[0].terminated == "loop-pruned"
    assert len(res.coverage) == 11


def test_fork_on_designated_symbolic_byte():
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1)
    res = execute(FORK_IMAGE, xram_policy(0x7FE9), cfg)
    assert len(res.ended) == 2
    conds = sorted(solver.to_text(s.path.entries[0][0]) for s in res.ended)
    assert conds == ["(xram_7fe9 != 6)", "(xram_7fe9 == 6)"]


def test_fork_children_satisfiable_and_complementary():
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1)
    res = execute(FORK_IMAGE, xram_policy(0x7FE9), cfg)
    for s in res.ended:
        assert solver.check(s.path.exprs()).sat


def test_guarded_target_needs_symbolic_byte():
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1,
                            targets=frozenset({FORK_TARGET}))
    res = execute(FORK_IMAGE, xram_policy(0x7FE9), cfg)
    assert FORK_TARGET in res.target_hits
    hit = res.target_hits[FORK_TARGET]
    texts = [solver.to_text(e) for e, _, _ in hit.state.path]
    assert "(xram_7fe9 == 6)" in texts

    res0 = execute(FORK_IMAGE, SymbolicPolicy(), cfg)
    assert FORK_TARGET not in res0.target_hits
    assert len(res0.coverage) < len(res.coverage)


def test_path_condition_monotone_along_path():
    # three symbolic loads, each followed by a branch on the loaded byte
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr
        cjne a, #6, second
    second:
        inc dptr
        movx a, @dptr
        cjne a, #7, third
    third:
        inc dptr
        movx a, @dptr
    spin:
        sjmp spin
    """

    class Snapshots(Listener):
        def __init__(self):
            self.lens = {}  # sid -> path lengths at its loads, in order

        def on_load(self, site, state, region, addr, value):
            self.lens.setdefault(state.sid, []).append(len(state.path))
            return None

    image, _ = fwkit.assemble_with_symbols(src)
    snap = Snapshots()
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1)
    execute(image, xram_policy(0x7F00, 0x7F01, 0x7F02), cfg,
            listeners=[snap], isr_map={})
    assert snap.lens
    assert all(lens == sorted(lens) for lens in snap.lens.values())
    # some path is seen again after a branch grew its condition
    assert any(lens[-1] > lens[0] for lens in snap.lens.values())


def test_concrete_consistency_with_empty_policy():
    # empty symbolic policy, no interrupts: the unique path must match the
    # concrete interpreter exactly
    rng = random.Random(404)
    for _ in range(40):
        seq = diffutil.random_straight_sequence(rng, 16) + bytes([0x80, 0xFE])
        st = machine.ConcreteState()
        steps = 0
        try:
            while st.pc < len(seq) and steps < 64:
                machine.step_concrete(st, seq)
                steps += 1
        except machine.StackOverflow:
            continue
        cfg = ExplorationConfig(block_repeat_threshold=4, seed=1,
                                max_blocks=500)
        res = execute(seq, SymbolicPolicy(), cfg)
        # single path (loop gets pruned); its stores agree with the interpreter
        assert len(res.ended) == 1
        end = res.ended[0]
        for addr, v in end.mem[Region.IRAM].items():
            assert isinstance(v, int) and st.iram[addr] == v
        for addr, v in end.mem[Region.SFR].items():
            if addr == machine.PSW:
                continue  # dead parity bit differs from the eager image
            assert isinstance(v, int) and st.sfr[addr - 0x80] == v, hex(addr)
        for addr, v in end.mem[Region.XRAM].items():
            assert st.xram.get(addr, 0) == v


def _symbolic_differential(seed: int, trials: int,
                           listeners=()) -> tuple[int, int]:
    """Run seeded straight-line sequences with some IRAM/XRAM bytes and two
    of ACC/B/DPL/DPH symbolic. A model of each path that reaches the final
    self-loop seeds the interpreter, and every byte the path wrote must
    evaluate under that model to the interpreter's byte (PSW without its
    dead parity bit). Returns (paths checked, mismatches)."""
    rng = random.Random(seed)
    checked = mismatches = 0
    for _ in range(trials):
        seq = diffutil.random_straight_sequence(rng, 12)
        image = seq + bytes([0x80, 0xFE])
        # a list, not the policy's set: the draws below follow this order
        locs = ([(Region.IRAM, a) for a in rng.sample(range(0x30), 6)]
                + [(Region.XRAM, a) for a in rng.sample(range(0x10), 2)]
                + [(Region.SFR, a) for a in rng.sample(
                    (machine.ACC, machine.B, machine.DPL, machine.DPH), 2)])
        pol = SymbolicPolicy(locs)
        cfg = ExplorationConfig(block_repeat_threshold=2, seed=1,
                                max_states=64, max_indirect_fanout=4)
        res = execute(image, pol, cfg, listeners=listeners, isr_map={})
        for end in res.ended:
            if end.terminated != "loop-pruned":
                continue
            env = {pol.lookup(*loc).args[0]: rng.randrange(256)
                   for loc in locs}
            env.update(res.solver.model(end.path))
            assert all(solver.eval_expr(e, env) for e in end.path.exprs())
            st = machine.ConcreteState()
            for region, addr in locs:
                byte = env[pol.lookup(region, addr).args[0]]
                if region == Region.IRAM:
                    st.iram[addr] = byte
                elif region == Region.SFR:
                    st.sfr[addr - 0x80] = byte
                else:
                    st.xram[addr] = byte
            try:
                while st.pc < len(seq):
                    machine.step_concrete(st, image)
            except machine.StackOverflow:
                continue  # the executor wraps SP where the interpreter stops
            checked += 1
            ok = True
            for region in (Region.IRAM, Region.SFR, Region.XRAM):
                for addr, v in end.mem[region].items():
                    got = v if type(v) is int else solver.eval_expr(v, env)
                    if region == Region.IRAM:
                        want = st.iram[addr]
                    elif region == Region.SFR:
                        want = st.sfr[addr - 0x80]
                    else:
                        want = st.xram.get(addr, 0)
                    if region == Region.SFR and addr == machine.PSW:
                        got, want = got & 0xFE, want & 0xFE
                    ok = ok and got == want
            mismatches += not ok
    return checked, mismatches


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symbolic_executor_agrees_with_interpreter(seed):
    checked, mismatches = _symbolic_differential(seed, 150)
    assert checked >= 150
    assert mismatches == 0


class ModelCheck(Listener):
    """At every load and store, the state's model is None or satisfies every
    constraint on its path. Counts the models checked on nonempty paths and
    the states seen without a model."""

    def __init__(self):
        self.checked = 0
        self.unknown = 0

    def _check(self, state):
        if state.model is None:
            self.unknown += 1
        elif state.path:
            assert all(solver.eval_expr(e, state.model)
                       for e in state.path.exprs()), state.path.exprs()
            self.checked += 1

    def on_load(self, site, state, region, addr, value):
        self._check(state)

    def on_store(self, site, state, region, addr, value):
        self._check(state)


def test_state_model_satisfies_path_on_differential():
    check = ModelCheck()
    for seed in (1, 2, 3):
        _, mismatches = _symbolic_differential(seed, 150, [check])
        assert mismatches == 0
    assert check.checked > 1000


# sha256 of every hook call, ended state and exploration outcome of the
# symbolic differential's sequences (seeds 1-3); see the test below
FORKED_ACCESS_DIGEST = (
    "8b97bc5c3946844b31089eddca10c886e003c88fb1afec18384813370dc08971")


def test_forked_accesses_pinned(monkeypatch):
    # The differential's symbolic IRAM/XRAM bytes and DPL/DPH make many
    # symbolic addresses, each forked by `_fork_access`; no fixture analysis
    # forks one. What every listener sees, how every state ends and how
    # every exploration stops are pinned.
    rows, forks = [], [0]
    real_run, real_fork = symexec.Executor.run, symexec.Executor._fork_access

    class Record(Listener):
        def on_load(self, site, state, region, addr, value):
            rows.append(("load", state.sid, site, int(region), addr,
                         solver.to_text(value)))

        def on_store(self, site, state, region, addr, value):
            rows.append(("store", state.sid, site, int(region), addr,
                         solver.to_text(value)))

    def run(ex):
        res = real_run(ex)
        rows.extend(("ended", s.sid, s.pc, s.terminated,
                     [(solver.to_text(e), site, note)
                      for e, site, note in s.path.entries])
                    for s in res.ended)
        rows.append(("run", res.states_created, res.reason,
                     res.diagnostics))
        return res

    def fork_access(ex, *args):
        forks[0] += 1
        return real_fork(ex, *args)

    monkeypatch.setattr(symexec.Executor, "run", run)
    monkeypatch.setattr(symexec.Executor, "_fork_access", fork_access)
    for seed in (1, 2, 3):
        _symbolic_differential(seed, 150, [Record()])
    assert forks[0] == 560
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == FORKED_ACCESS_DIGEST


@pytest.mark.parametrize("template", ["benign-hid", "injector-hid",
                                      "storage-claiming-hid"])
def test_state_model_satisfies_path_on_fixtures(template, tmp_path,
                                                monkeypatch):
    # every exploration of a default analysis (discovery, Query 1, Query 2)
    # is watched, beside its own listeners
    from usbvet import cli, queries
    check = ModelCheck()
    real = queries.execute

    def watched(image, policy, config, listeners=(), **kw):
        return real(image, policy, config, [*listeners, check], **kw)

    monkeypatch.setattr(queries, "execute", watched)
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template=template))
    path = tmp_path / "fw.bin"
    path.write_bytes(image)
    cli.run_pipeline(cli.RunConfig(image_path=str(path)))
    assert check.checked > 1000


def _scheduler() -> symexec.Executor:
    """An executor with one discovered handler: external0 at 0x400."""
    cfg = ExplorationConfig(cooldown_min=5, cooldown_max=9)
    return symexec.Executor(b"\x00", SymbolicPolicy(), cfg,
                            isr_map={"external0": 0x400})


def test_schedule_requires_ie():
    ex, st = _scheduler(), ExecState()
    assert ex._schedule_interrupts(st) == []  # IE reads its reset value 0
    st.mem[Region.SFR][machine.IE] = 0x01  # EA clear
    assert ex._schedule_interrupts(st) == []
    st.mem[Region.SFR][machine.IE] = 0x80  # source bit clear
    assert ex._schedule_interrupts(st) == []


def test_schedule_single_fork_with_hardware_push():
    ex, st = _scheduler(), ExecState()
    st.pc = 0x1234
    st.mem[Region.SFR][machine.IE] = 0x81
    forks = ex._schedule_interrupts(st)
    assert len(forks) == 1
    f = forks[0]
    assert f.pc == 0x400 and f.active_isr == "external0"
    assert f.sid == ex.states_created == 1
    # SP was never written: the push starts from its reset value 7
    assert f.mem[Region.IRAM] == {0x08: 0x34, 0x09: 0x12}
    assert f.mem[Region.SFR][machine.SP] == 0x09
    assert f.isr_written == {(Region.IRAM, 0x08), (Region.IRAM, 0x09),
                             (Region.SFR, machine.SP)}
    assert 5 <= f.cooldowns["external0"] <= 9
    assert 5 <= st.cooldowns["external0"] <= 9  # continuation redraws too


def test_no_nested_interrupts():
    ex, st = _scheduler(), ExecState()
    st.mem[Region.SFR][machine.IE] = 0x81
    st.active_isr = "timer0"
    assert ex._schedule_interrupts(st) == []


def test_cooldown_blocks_scheduling():
    ex, st = _scheduler(), ExecState()
    st.mem[Region.SFR][machine.IE] = 0x81
    st.cooldowns["external0"] = 3
    assert ex._schedule_interrupts(st) == []


ISR_SRC = """
.org 0x0000
    ljmp main
.org 0x0003
    ljmp isr
.org 0x000b
    reti
.org 0x0013
    reti
.org 0x001b
    reti
.org 0x0023
    reti
.org 0x002b
    reti
main:
    {setup}
idle:
    sjmp idle
isr:
    mov 0x40, #1
    reti
"""


def test_scheduler_reads_ie_and_sp_as_loads_do():
    # A policy that makes IE or SP symbolic reaches interrupt entry as
    # it reaches every load: a symbolic IE enables the handler under a path
    # constraint, and a symbolic SP has no concrete slot for the return
    # address, so the handler is never entered.
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=1, max_blocks=200,
                            cooldown_min=1, cooldown_max=2)
    ie = SymbolicPolicy([(Region.SFR, machine.IE)])
    image, syms = fwkit.assemble_with_symbols(ISR_SRC.format(setup="nop"))
    res = execute(image, ie, cfg)
    assert syms["isr"] in res.coverage
    entries = {(solver.to_text(e), site, note)
               for s in res.ended for e, site, note in s.path}
    assert ("((sfr_00a8 & 0x81) == 0x81)", syms["idle"],
            "isr-enable:external0") in entries

    sp = SymbolicPolicy([(Region.SFR, machine.SP)])
    image, syms = fwkit.assemble_with_symbols(
        ISR_SRC.format(setup="mov ie, #0x81"))
    res = execute(image, sp, cfg)
    assert syms["isr"] not in res.coverage
    assert len(res.ended) == 1


def test_executor_never_schedules_with_global_enable_clear():
    # per-source bit set but EA clear: discovered handlers never run
    src = """
    .org 0x0000
        ljmp main
    .org 0x0003
        ljmp isr
    .org 0x000b
        reti
    .org 0x0013
        reti
    .org 0x001b
        reti
    .org 0x0023
        reti
    .org 0x002b
        reti
    main:
        mov ie, #0x01        ; EX0 bit without EA
    idle:
        sjmp idle
    isr:
        mov 0x40, #1
        reti
    """
    image, syms = fwkit.assemble_with_symbols(src)
    cfg = ExplorationConfig(block_repeat_threshold=8, seed=4, max_blocks=500)
    res = execute(image, SymbolicPolicy(), cfg)
    assert syms["isr"] not in res.coverage
    assert all(s.active_isr is None for s in res.ended)


def test_reti_clears_active_isr_during_execution():
    src = """
    .org 0x0000
        ljmp main
    .org 0x0003
        ljmp isr
    .org 0x000b
        reti
    .org 0x0013
        reti
    .org 0x001b
        reti
    .org 0x0023
        reti
    .org 0x002b
        reti
    main:
        mov ie, #0x81        ; EA and EX0
    idle:
        mov 0x30, #1
        sjmp idle
    isr:
        mov 0x40, #1
        reti
    """
    image, _ = fwkit.assemble_with_symbols(src)
    seen = {}  # sid -> active_isr at each of its accesses, in order

    class Watch(Listener):
        def on_load(self, site, state, region, addr, value):
            seen.setdefault(state.sid, []).append(state.active_isr)
            return None

        on_store = on_load

    cfg = ExplorationConfig(block_repeat_threshold=8, seed=2, max_blocks=400,
                            cooldown_min=1, cooldown_max=2)
    execute(image, SymbolicPolicy(), cfg, listeners=[Watch()])
    # some path accesses memory inside the handler and again after RETI
    assert any("external0" in isrs
               and None in isrs[isrs.index("external0"):]
               for isrs in seen.values())


def test_select_next_modes():
    class Draw:
        """An RNG whose random() returns a fixed draw."""

        def __init__(self, draw):
            self.draw = draw

        def random(self):
            return self.draw

        def randrange(self, n):
            return 0

    a, b = ExecState(), ExecState()
    a.sid, b.sid = 1, 2
    a.last_cover_seq, b.last_cover_seq = 5, 9
    frontier = Frontier([a, b])
    assert select_next(frontier, Draw(0.5)) is b   # upper half: coverage
    assert frontier.states == [a]
    frontier = Frontier([a, b])
    assert select_next(frontier, Draw(0.49)) is a  # lower half: random pick
    assert frontier.states == [b]
    rng = random.Random(7)
    seq1 = [select_next(Frontier([a, b]), rng).sid for _ in range(6)]
    rng = random.Random(7)
    seq2 = [select_next(Frontier([a, b]), rng).sid for _ in range(6)]
    assert seq1 == seq2  # reproducible under a fixed seed


def test_select_next_matches_full_frontier_max():
    # The rule the heap replaces: a random pick from the list, or the max of
    # (last_cover_seq, -sid) over the whole list, first in list order on a
    # tie; then remove the pick and add the round's new states at the end.
    def reference(frontier, rng):
        if len(frontier) == 1:
            return frontier[0]
        if rng.random() < 0.5:
            return frontier[rng.randrange(len(frontier))]
        return max(frontier, key=lambda s: (s.last_cover_seq, -s.sid))

    gen = random.Random(3)
    for trial in range(40):
        def new_state():
            s = ExecState()
            s.sid = gen.randrange(6)  # repeated sids exercise the list order
            s.last_cover_seq = gen.randrange(4)
            return s

        start = [new_state() for _ in range(gen.randrange(1, 8))]
        ref, frontier = list(start), Frontier(start)
        rng_ref, rng_new = random.Random(trial), random.Random(trial)
        for step in range(400):
            if not ref:
                break
            want = reference(ref, rng_ref)
            ref.remove(want)
            assert select_next(frontier, rng_new) is want
            # a picked state may come back with a new key, as in Executor.run;
            # the frontier grows, then drains
            back = [want] if gen.random() < 0.5 else []
            if back:
                want.last_cover_seq += gen.randrange(2)
            if step < 200:
                back += [new_state() for _ in range(gen.randrange(3))]
            for s in back:
                ref.append(s)
                frontier.push(s)
            assert frontier.states == ref


class Draws:
    """An RNG whose random() returns the given draws in turn and whose
    randrange(n) returns 0; it records its calls."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.calls = []

    def random(self):
        self.calls.append("random")
        return self.draws.pop(0)

    def randrange(self, n):
        self.calls.append("randrange")
        return 0


def _state(sid, pc, cover=0):
    s = ExecState()
    s.sid, s.pc, s.last_cover_seq = sid, pc, cover
    return s


def test_select_next_directed_pops_nearest_then_least_sid():
    dist = {0x10: 3, 0x20: 1, 0x30: 1}
    a, b, c = _state(5, 0x10), _state(7, 0x20), _state(2, 0x30)
    far = _state(1, 0x40, cover=9)  # no distance, the latest coverage
    frontier = Frontier([a, b, far, c], dist)
    rng = Draws(0.0, 0.49, 0.3)
    assert [select_next(frontier, rng) for _ in range(3)] == [c, b, a]
    assert rng.calls == ["random"] * 3  # one draw per pick
    assert frontier.states == [far]


def test_select_next_skips_stale_nearest_entries():
    dist = {0x10: 1, 0x20: 2}
    a, b, other = _state(1, 0x10), _state(2, 0x20), _state(3, 0x40)
    frontier = Frontier([a, b, other], dist)
    assert frontier.pop_at(0) is a  # a random pick leaves a's entry behind
    assert select_next(frontier, Draws(0.0)) is b
    # a picked state that comes back is keyed by its new pc, here none
    frontier = Frontier([a, other], dist)
    assert select_next(frontier, Draws(0.0)) is a
    a.pc = 0x40
    frontier.push(a)
    rng = Draws(0.0)
    assert select_next(frontier, rng) is other  # a random pick
    assert rng.calls == ["random", "randrange"]
    assert frontier.states == [a]


def test_select_next_never_directs_to_a_state_without_distance():
    x, y = _state(2, 0x40, cover=5), _state(1, 0x50)
    near = _state(9, 0x10)
    frontier = Frontier([x, y, near], {0x10: 4})
    # the lower half takes the one state with a distance; with none left,
    # it is the random pick again (the first in the list, not the least sid)
    rng = Draws(0.0, 0.0)
    assert [select_next(frontier, rng) for _ in range(2)] == [near, x]
    assert rng.calls == ["random", "random", "randrange"]


@pytest.mark.parametrize("dist", [None, {}, {0x7000: 1},
                                  {0: 2, 1: 0, 2: 2, 4: 1, 5: 7}],
                         ids=["none", "empty", "no-pending-pc", "directed"])
def test_select_next_matches_the_full_frontier_rule(dist):
    # The rule the two heaps replace, over the whole list: one draw; with
    # a distance pending, its lower half takes the least (distance, sid),
    # first in list order on a tie, and the upper half is stretched back to
    # [0, 1); then a random pick, or the max (last_cover_seq, -sid). With
    # no distance pending this is the undirected rule, draw for draw.
    known = dist or {}

    def reference(frontier, rng):
        if len(frontier) == 1:
            return frontier[0]
        u = rng.random()
        near = [s for s in frontier if s.pc in known]
        if near:
            if u < 0.5:
                return min(near, key=lambda s: (known[s.pc], s.sid))
            u = 2 * u - 1
        if u < 0.5:
            return frontier[rng.randrange(len(frontier))]
        return max(frontier, key=lambda s: (s.last_cover_seq, -s.sid))

    gen = random.Random(4)
    for trial in range(40):
        def new_state():
            return _state(gen.randrange(6), gen.randrange(8), gen.randrange(4))

        start = [new_state() for _ in range(gen.randrange(1, 8))]
        ref, frontier = list(start), Frontier(start, dist)
        rng_ref, rng_new = random.Random(trial), random.Random(trial)
        for step in range(400):
            if not ref:
                break
            want = reference(ref, rng_ref)
            ref.remove(want)
            assert select_next(frontier, rng_new) is want
            # a picked state may come back with new keys, as in Executor.run
            back = [want] if gen.random() < 0.5 else []
            if back:
                want.last_cover_seq += gen.randrange(2)
                want.pc = gen.randrange(8)
            if step < 200:
                back += [new_state() for _ in range(gen.randrange(3))]
            for s in back:
                ref.append(s)
                frontier.push(s)
            assert frontier.states == ref
        assert rng_new.getstate() == rng_ref.getstate()


def test_indirect_jump_enumerates_decodable_targets():
    # jmp @a+dptr with a symbolic selector byte drives a 2-entry jump table
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr        ; selector (symbolic)
        anl a, #0x01
        rl a                 ; *2: offsets 0 or 2
        mov dptr, #table
        jmp @a+dptr
    table:
        sjmp t0
        sjmp t1
    t0: sjmp t0
    t1: sjmp t1
    """
    image, syms = fwkit.assemble_with_symbols(src)
    cfg = ExplorationConfig(block_repeat_threshold=4, seed=1)
    res = execute(image, xram_policy(0x7F00), cfg)
    assert syms["t0"] in res.coverage and syms["t1"] in res.coverage


@pytest.mark.parametrize("table, diagnosed, ended, states", [
    # offsets 2 and 6 hold the reserved opcode 0xa5
    ("sjmp t0\n .db 0xa5, 0x00\n sjmp t0\n .db 0xa5, 0x00\nt0: sjmp t0",
     (0x0D, 0x11), ["loop-pruned", "loop-pruned"], 3),
    # no target decodes; the last is an ljmp cut off by the image end
    (".db 0xa5, 0x00, 0xa5, 0x00, 0xa5, 0x00, 0xa5, 0x02",
     (0x0B, 0x0D, 0x0F, 0x11), ["indirect-undecodable"], 1),
])
def test_indirect_jump_skips_undecodable_targets(table, diagnosed, ended,
                                                 states):
    # A feasible target that does not lift gets a diagnostic and no child;
    # a jump with no target left ends `indirect-undecodable`.
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr        ; selector (symbolic)
        anl a, #0x03
        rl a                 ; *2: offsets 0, 2, 4 or 6
        mov dptr, #table
        jmp @a+dptr
    table:
    """ + table
    image, syms = fwkit.assemble_with_symbols(src)
    assert syms["table"] == 0x0B
    cfg = ExplorationConfig(block_repeat_threshold=4, seed=1)
    res = execute(image, xram_policy(0x7F00), cfg)
    assert res.diagnostics == [f"indirect target 0x{t:04x} undecodable "
                               f"(site 0x000a)" for t in diagnosed]
    assert sorted(s.terminated for s in res.ended) == ended
    assert res.states_created == states


def test_out_of_region_code_jump_killed():
    # jump target beyond the image: path killed with a diagnostic
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr
        mov dptr, #0x0f00    ; beyond the tiny image
        jmp @a+dptr
    """
    image, _ = fwkit.assemble_with_symbols(src)
    cfg = ExplorationConfig(block_repeat_threshold=4, seed=1,
                            max_indirect_fanout=4)
    res = execute(image, xram_policy(0x7F00), cfg)
    assert any(s.terminated == "mem-index-out-of-region" for s in res.ended)
    assert any("out of region" in d for d in res.diagnostics)


def test_determinism_same_seed_same_result():
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="branchy",
                                                        guard_count=2))
    pol = xram_policy(0x7C00, 0x7C01)
    cfg = ExplorationConfig(block_repeat_threshold=16, seed=9, max_states=200)
    r1 = execute(image, pol, cfg)
    r2 = execute(image, pol, cfg)
    assert r1.states_created == r2.states_created
    assert r1.blocks_executed == r2.blocks_executed
    assert sorted(s.terminated for s in r1.ended) == \
        sorted(s.terminated for s in r2.ended)
    assert r1.coverage == r2.coverage


def test_state_limit_graceful():
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    pol = SymbolicPolicy.full()
    cfg = ExplorationConfig(seed=1, max_states=40, block_repeat_threshold=16)
    res = execute(image, pol, cfg)
    assert res.reason == "state-limit"
    assert any("state budget" in d for d in res.diagnostics)


def test_policy_covers_whole_regions_and_explicit_locations():
    full = SymbolicPolicy.full()
    assert full.regions == {Region.IRAM, Region.XRAM} and not full.locations
    assert solver.to_text(full.lookup(Region.IRAM, 0x00)) == "iram_0000"
    assert solver.to_text(full.lookup(Region.XRAM, 0xFFFF)) == "xram_ffff"
    assert full.lookup(Region.SFR, machine.ACC) is None
    # a covered byte's variable is made once, at its first read
    assert full.lookup(Region.XRAM, 0x10) is full.lookup(Region.XRAM, 0x10)

    # repeated locations collapse, whether the region is a Region or an int
    pol = SymbolicPolicy([(Region.XRAM, 0x102), (int(Region.XRAM), 0x102),
                          (Region.SFR, machine.IE)])
    assert pol.locations == {(Region.XRAM, 0x102), (Region.SFR, machine.IE)}
    assert not pol.regions
    assert solver.to_text(pol.lookup(Region.SFR, machine.IE)) == "sfr_00a8"
    assert pol.lookup(Region.XRAM, 0x103) is None
    assert pol.lookup(Region.IRAM, 0x02) is None


def test_illegal_opcode_ends_its_state_as_decode_error(monkeypatch):
    # nop; then the reserved 0xa5, lifted as the next block
    cfg = ExplorationConfig(seed=1)
    res = execute(bytes([0x00, 0xA5]), SymbolicPolicy(), cfg, isr_map={})
    assert [s.terminated for s in res.ended] == [
        "decode-error:illegal opcode 0xa5 at 0x0001"]

    # any other error of the lifter is a bug, and escapes the run
    def broken(image, addr):
        raise RuntimeError("lifter bug")

    monkeypatch.setattr(lifter, "lift_block", broken)
    with pytest.raises(RuntimeError, match="lifter bug"):
        execute(bytes([0x00]), SymbolicPolicy(), cfg, isr_map={})


# -- fan-out at a symbolic load/store address ---------------------------------

# The selector byte at XRAM 0x7f00 is symbolic. The cjne peels off the value
# 3 into a state that idles at `stop`, so a sibling state is still on the
# frontier when `site` runs. The selector then picks DPL: the load narrows it
# to one bit (two feasible pointers), the store keeps both bits (three).
FANOUT_SRC = """
.org 0
    mov dptr, #0x7f00
    movx a, @dptr
    anl a, #0x03
    cjne a, #3, go
stop:
    sjmp stop
go:
{narrow}
    mov dpl, a
    mov dph, #0x7e
site:
    {access}
idle:
    sjmp idle
"""


class SiteAccesses(Listener):
    """Record (sid, addr) of every XRAM access at one site; optionally
    answer each with a verdict chosen by the accessed address."""

    def __init__(self, site, which, verdict=None):
        self.site = site
        self.which = which
        self.verdict = verdict or (lambda addr: None)
        self.seen = []

    def _access(self, site, state, region, addr):
        if site != self.site or region != Region.XRAM:
            return None
        self.seen.append((state.sid, addr))
        return self.verdict(addr)

    def on_load(self, site, state, region, addr, value):
        if self.which == "load":
            return self._access(site, state, region, addr)
        return None

    def on_store(self, site, state, region, addr, value):
        if self.which == "store":
            return self._access(site, state, region, addr)
        return None


def fanout_run(which, verdict=None):
    if which == "load":
        src = FANOUT_SRC.format(narrow="    anl a, #0x01",
                                access="movx a, @dptr")
    else:
        src = FANOUT_SRC.format(narrow="", access="movx @dptr, a")
    image, syms = fwkit.assemble_with_symbols(src)
    watch = SiteAccesses(syms["site"], which, verdict)
    cfg = ExplorationConfig(block_repeat_threshold=4, seed=1)
    res = execute(image, xram_policy(0x7F00), cfg, listeners=[watch],
                  isr_map={})
    return res, watch, syms


def mem_index_value(state):
    """The concrete address the state's last mem-index constraint pins."""
    expr, _, note = state.path.entries[-1]
    assert note == "mem-index"
    assert expr.op == "eq" and expr.args[1].op == "const"
    return expr.args[1].value


FANOUT_ADDRS = {"load": [0x7E00, 0x7E01], "store": [0x7E00, 0x7E01, 0x7E02]}


@pytest.mark.parametrize("which", ["load", "store"])
def test_symbolic_address_forks_one_child_per_value(which):
    res, watch, syms = fanout_run(which)
    assert sorted(a for _, a in watch.seen) == FANOUT_ADDRS[which]
    sids = [sid for sid, _ in watch.seen]
    assert len(set(sids)) == len(sids)  # one child per feasible value
    assert sids == sorted(sids)         # forked in enumeration order
    by_sid = {s.sid: s for s in res.ended}
    for sid, addr in watch.seen:
        assert mem_index_value(by_sid[sid]) == addr
        assert by_sid[sid].terminated == "loop-pruned"
    assert syms["idle"] in res.coverage
    assert res.reason == "complete"


@pytest.mark.parametrize("which", ["load", "store"])
def test_stop_all_drops_remaining_choices(which):
    res, watch, _ = fanout_run(which, lambda addr: symexec.STOP_ALL)
    assert len(watch.seen) == 1  # later choices are never forked
    assert res.reason == "listener-stop"
    sid, addr = watch.seen[0]
    stopped = [s for s in res.ended if s.terminated == "listener-stop"]
    assert [s.sid for s in stopped] == [sid]
    assert mem_index_value(stopped[0]) == addr
    assert res.states_created == sid  # no state was created after it


def test_stop_all_on_the_last_state_reports_listener_stop():
    # no sibling state: the stop verdict at the fan-out ends the only path
    src = """
    .org 0
        mov dptr, #0x7f00
        movx a, @dptr
        anl a, #0x01
        mov dpl, a
        mov dph, #0x7e
    site:
        movx a, @dptr
    idle:
        sjmp idle
    """
    image, syms = fwkit.assemble_with_symbols(src)
    watch = SiteAccesses(syms["site"], "load", lambda addr: symexec.STOP_ALL)
    cfg = ExplorationConfig(block_repeat_threshold=4, seed=1)
    res = execute(image, xram_policy(0x7F00), cfg, listeners=[watch],
                  isr_map={})
    assert len(watch.seen) == 1
    assert [s.terminated for s in res.ended] == ["listener-stop"]
    assert res.reason == "listener-stop"


# The instruction a hand-lifted block at address 0 stands in for: the NOP
# of the one-byte image it runs in.
_NOP_AT_0 = [isa.decode(b"\x00", 0)]


def _run_hand_block(stmts, n_temps, fanout=16, listeners=(),
                    solver_timeout=5.0):
    """Run one hand-lifted block at address 0 of a one-byte image."""
    ex = symexec.Executor(b"\x00", xram_policy(0x7F00),
                          ExplorationConfig(seed=1, max_blocks=1,
                                            max_indirect_fanout=fanout,
                                            solver_timeout=solver_timeout),
                          listeners=listeners, isr_map={})
    ex.memo.program.cache[0] = lifter.IRBlock(0, stmts, n_temps, _NOP_AT_0)
    return ex.run()


def test_deadline_stops_fan_out_inside_one_block(monkeypatch):
    # Two symbolic stores in one block. The deadline passes during the first
    # enumeration, so each of its children ends unfinished at the second
    # store without enumerating again, and the run reports the time limit.
    enumerations = []
    enumerate_values = symexec.Executor._enumerate

    def enumerate_then_expire(ex, *args):
        enumerations.append(args[-1])
        out = enumerate_values(ex, *args)
        ex.config.deadline = time.monotonic() - 1.0
        return out

    monkeypatch.setattr(symexec.Executor, "_enumerate", enumerate_then_expire)
    t0, t1 = lifter.Tmp(0), lifter.Tmp(1)
    res = _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x03), 8),
        lifter.Store(Region.XRAM, t1, 0x55),
        lifter.Store(Region.XRAM, t1, 0x66),
        lifter.Jump(1),
    ], 2)
    assert enumerations == ["store address"]
    assert res.reason == "time-limit"
    assert [s.terminated for s in res.ended] == ["unfinished"] * 4
    assert res.states_created == 5


def test_exploration_solver_stops_at_the_exploration_deadline():
    cfg = ExplorationConfig(seed=1, deadline=time.monotonic() + 60.0)
    ex = symexec.Executor(b"\x00", xram_policy(0x7F00), cfg, isr_map={})
    assert ex.solver.deadline == cfg.deadline


def test_shared_memo_keeps_no_timed_out_answer():
    # The first exploration has no time to solve: its branch query times
    # out and stores nothing in the memo. The next exploration given the
    # memo solves it afresh, with none of the first one's diagnostics, and
    # ends as one with a private memo.
    memo = symexec.ImageMemo(FORK_IMAGE)

    def run(memo, timeout):
        res = execute(FORK_IMAGE, xram_policy(0x7FE9),
                      ExplorationConfig(block_repeat_threshold=8, seed=1,
                                        solver_timeout=timeout), memo=memo)
        return (res.states_created, res.reason,
                [(s.sid, s.terminated, s.path.entries) for s in res.ended],
                res.diagnostics + res.solver.diagnostics)

    starved = run(memo, 0.0)
    assert starved[3] == ["solver timeout: assumed satisfiable"]
    assert memo.domains == {} and memo.components == {}
    after = run(memo, 5.0)
    assert after == run(None, 5.0) and after[3] == []
    assert memo.domains and memo.components


def test_memo_of_another_image_is_refused():
    with pytest.raises(ValueError):
        symexec.Executor(b"\x00", SymbolicPolicy(), ExplorationConfig(),
                         memo=symexec.ImageMemo(FORK_IMAGE))


def test_symbolic_store_out_of_region_ends_path():
    # IRAM has 256 bytes; the address 0x100 | selector never falls inside
    t0, t1 = lifter.Tmp(0), lifter.Tmp(1)
    res = _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "or", (t0, 0x100), 16),
        lifter.Store(Region.IRAM, t1, 0x55),
        lifter.Jump(1),
    ], 2, fanout=4)
    assert [s.terminated for s in res.ended] == ["mem-index-out-of-region"]
    assert res.states_created == 1
    assert any("symbolic store address out of region at 0x0000" in d
               for d in res.diagnostics)


def test_symbolic_store_keeps_only_in_region_values():
    # addresses 0xfe.. straddle the IRAM bound: only 0xfe and 0xff fork
    t0, t1 = lifter.Tmp(0), lifter.Tmp(1)
    seen = []

    class Stores(Listener):
        def on_store(self, site, state, region, addr, value):
            seen.append((region, addr))
            return None

    _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "add", (t0, 0xFE), 16),
        lifter.Store(Region.IRAM, t1, 0x55),
        lifter.Jump(1),
    ], 2, fanout=4, listeners=[Stores()])
    assert sorted(a for _, a in seen) == [0xFE, 0xFF]
    assert all(r == Region.IRAM for r, _ in seen)


@pytest.mark.parametrize("fanout", [3, 4])
def test_fanout_over_limit_reported(fanout):
    # the selector's low two bits pick one of four XRAM bytes
    t0, t1 = lifter.Tmp(0), lifter.Tmp(1)
    res = _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x03), 8),
        lifter.Store(Region.XRAM, t1, 0x55),
        lifter.Jump(1),
    ], 2, fanout=fanout)
    assert res.states_created == 1 + min(fanout, 4)
    dropped = [d for d in res.diagnostics if "fanout" in d]
    if fanout < 4:
        assert dropped == [f"store address fanout over {fanout} at 0x0000; "
                           f"extra targets dropped"]
    else:
        assert dropped == []


def test_solver_timeout_while_enumerating_reported():
    # with no time to solve, the empty path's model gives the first value
    # and the query that excludes it times out
    t0 = lifter.Tmp(0)
    res = _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Store(Region.XRAM, t0, 0x55),
        lifter.Jump(1),
    ], 1, solver_timeout=0.0)
    assert res.diagnostics == [
        "solver timeout enumerating store address at 0x0000"]
    assert res.states_created == 2  # the one value found is still forked


def _const_address_runs(stmts, n_temps, monkeypatch, listeners=()):
    """The hand block run twice: as is, and with every symbolic address
    forked through `_fork_access` (none run in place) and every enumeration
    made by solver queries, without the state's model. Returns, per run, the
    ended states' facts and the number of solver checks."""
    runs = []
    real_check, real_values = solver.check, solver.Solver.values
    for queried in (False, True):
        checks = []

        def counting(*args, **kwargs):
            checks.append(args)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(solver, "check", counting)
        if queried:
            monkeypatch.setattr(symexec.Executor, "_same_child",
                                lambda self, s, st, addr: None)
            monkeypatch.setattr(
                solver.Solver, "values",
                lambda self, pc, expr, limit, model=None:
                    real_values(self, pc, expr, limit, None))
        res = _run_hand_block(stmts, n_temps, fanout=4, listeners=listeners)
        runs.append((res.states_created, res.reason, res.diagnostics,
                     [(s.sid, s.pc, s.terminated, s.path.entries, s.model)
                      for s in res.ended]))
        runs.append(len(checks))
    return runs


def _const_address_block(tail, base):
    # t2 folds to the constant base once t0 is symbolic: and(t0, 0) | base
    t0, t1, t2 = lifter.Tmp(0), lifter.Tmp(1), lifter.Tmp(2)
    return [
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x00), 8),
        lifter.Assign(t2, "or", (t1, base), 16),
        *tail(t2),
    ], 3


def test_constant_address_forks_the_same_child_without_a_query(monkeypatch):
    seen = []

    class Stores(Listener):
        def on_store(self, site, state, region, addr, value):
            seen.append((state.sid, region, addr, value))
            return None

    stmts, n = _const_address_block(
        lambda a: [lifter.Store(Region.XRAM, a, 0x55), lifter.Jump(1)], 0x42)
    fast, fast_checks, queried, queried_checks = _const_address_runs(
        stmts, n, monkeypatch, [Stores()])
    assert fast == queried
    assert fast_checks == 0 and queried_checks > 0
    assert seen == [(2, Region.XRAM, 0x42, 0x55)] * 2
    states_created, _, _, ended = fast
    assert states_created == 2
    # the pin folds to true, so the path stays empty and the model stays
    assert [(sid, pc, entries, model) for sid, pc, _, entries, model
            in ended] == [(2, 1, [], {})]


@pytest.mark.parametrize("kind", ["store", "jump"])
def test_constant_address_out_of_region_ends_the_state(kind, monkeypatch):
    if kind == "store":
        stmts, n = _const_address_block(
            lambda a: [lifter.Store(Region.IRAM, a, 0x55), lifter.Jump(1)],
            0x100)
        diag = "symbolic store address out of region at 0x0000 (bound 0x100)"
    else:  # the image is one byte long
        stmts, n = _const_address_block(lambda a: [lifter.Jump(a)], 0x10)
        diag = "symbolic jump target out of region at 0x0000 (bound 0x1)"
    fast, fast_checks, queried, _ = _const_address_runs(stmts, n, monkeypatch)
    assert fast == queried and fast_checks == 0
    states_created, _, diagnostics, ended = fast
    assert states_created == 1
    assert [t for _, _, t, _, _ in ended] == ["mem-index-out-of-region"]
    assert diagnostics == [diag]


def test_constant_jump_target_pins_one_child_without_a_query(monkeypatch):
    stmts, n = _const_address_block(lambda a: [lifter.Jump(a)], 0)
    fast, fast_checks, queried, queried_checks = _const_address_runs(
        stmts, n, monkeypatch)
    assert fast == queried
    assert fast_checks == 0 and queried_checks > 0
    assert fast[0] == 2


def test_stop_after_the_fork_drops_the_remaining_siblings():
    # The fan-out's first child stops the run at a later load of the block:
    # no sibling is forked after it, and one state ends listener-stop.
    seen = []

    class StopAtIram10(Listener):
        def on_load(self, site, state, region, addr, value):
            if region == Region.IRAM and addr == 0x10:
                seen.append(state.sid)
                return symexec.STOP_ALL
            return None

    t0, t1, t2 = lifter.Tmp(0), lifter.Tmp(1), lifter.Tmp(2)
    res = _run_hand_block([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x03), 8),
        lifter.Store(Region.XRAM, t1, 0x55),
        lifter.Load(t2, Region.IRAM, 0x10),
        lifter.Jump(1),
    ], 3, listeners=[StopAtIram10()])
    assert res.reason == "listener-stop"
    assert res.states_created == 2
    assert seen == [2]
    assert [(s.sid, s.terminated) for s in res.ended] == [(2, "listener-stop")]


def _limited_hand_run(stmts, n_temps, max_states):
    ex = symexec.Executor(b"\x00", xram_policy(0x7F00),
                          ExplorationConfig(seed=1, max_blocks=1,
                                            max_states=max_states),
                          isr_map={})
    ex.memo.program.cache[0] = lifter.IRBlock(0, stmts, n_temps, _NOP_AT_0)
    return ex.run()


def test_state_limit_stops_fan_out_inside_one_block():
    # The constant address runs in place and takes the last state of the
    # budget, so the fan-out at the symbolic store starts at the limit: the
    # state ends unfinished and the run stops at the state limit.
    t0, t1, t2, t3 = (lifter.Tmp(i) for i in range(4))
    res = _limited_hand_run([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x00), 8),
        lifter.Assign(t2, "or", (t1, 0x42), 16),
        lifter.Store(Region.XRAM, t2, 0x11),
        lifter.Assign(t3, "and", (t0, 0x03), 8),
        lifter.Store(Region.XRAM, t3, 0x55),
        lifter.Jump(1),
    ], 4, max_states=2)
    assert res.reason == "state-limit"
    assert res.states_created == 2
    assert [s.terminated for s in res.ended] == ["unfinished"]
    assert res.diagnostics == ["out of state budget: partial result"]


def test_state_limit_inside_one_block_ends_each_child_once():
    # The first fan-out starts below the limit and forks its four children;
    # each of them ends unfinished at the second fan-out, with one
    # diagnostic for the run.
    t0, t1 = lifter.Tmp(0), lifter.Tmp(1)
    res = _limited_hand_run([
        lifter.Boundary(0, 1),
        lifter.Load(t0, Region.XRAM, 0x7F00),
        lifter.Assign(t1, "and", (t0, 0x03), 8),
        lifter.Store(Region.XRAM, t1, 0x55),
        lifter.Store(Region.XRAM, t1, 0x66),
        lifter.Jump(1),
    ], 2, max_states=2)
    assert res.reason == "state-limit"
    assert res.states_created == 5
    assert [s.terminated for s in res.ended] == ["unfinished"] * 4
    assert res.diagnostics == ["out of state budget: partial result"]


def _prepared(stmts, n_temps):
    return symexec.prepare_block(lifter.IRBlock(0, stmts, n_temps, _NOP_AT_0))


def _kinds(pb):
    return [st[0].__name__ for st in pb.steps]


class Accesses(Listener):
    """Every hook call, as (kind, sid, site, region, addr, value)."""

    def __init__(self):
        self.seen = []

    def on_load(self, site, state, region, addr, value):
        self.seen.append(("load", state.sid, site, region, addr, value))

    def on_store(self, site, state, region, addr, value):
        self.seen.append(("store", state.sid, site, region, addr, value))


def _forwarded_and_not(stmts, n_temps, monkeypatch):
    """The hook calls and ended states of the hand block, run with its loads
    forwarded and prepared with none forwarded (`reference_ir.unforwarded`)."""
    runs = []
    for forward in (True, False):
        if not forward:
            monkeypatch.setattr(symexec, "prepare_block",
                                reference_ir.unforwarded)
        rec = Accesses()
        res = _run_hand_block(stmts, n_temps, fanout=4, listeners=[rec])
        runs.append((rec.seen, res.states_created, res.reason,
                     [(s.sid, s.pc, s.terminated, s.path.entries,
                       s.mem[Region.IRAM], s.mem[Region.XRAM])
                      for s in res.ended]))
    return runs


def test_reload_after_a_load_runs_its_hooks_only(monkeypatch):
    t = [lifter.Tmp(i) for i in range(3)]
    stmts = [
        lifter.Boundary(0, 1),
        lifter.Load(t[0], Region.XRAM, 0x7F00),
        lifter.Load(t[1], Region.XRAM, 0x7F00),
        lifter.Assign(t[2], "add", (t[1], 1), 8),
        lifter.Store(Region.XRAM, 0x10, t[2]),
        lifter.Jump(1),
    ]
    pb = _prepared(stmts, 3)
    assert _kinds(pb) == ["Site", "Read", "Reread", "Compute", "Write",
                          "Goto"]
    # the reload reads the first load's slot
    assert pb.steps[2][3] == pb.steps[1][3]
    forwarded, plain = _forwarded_and_not(stmts, 3, monkeypatch)
    assert forwarded == plain
    var = symexec.SymbolicPolicy.var_name(Region.XRAM, 0x7F00)
    assert [(k, r, a, solver.to_text(v)) for k, _, _, r, a, v
            in forwarded[0]] == [("load", Region.XRAM, 0x7F00, var),
                                 ("load", Region.XRAM, 0x7F00, var),
                                 ("store", Region.XRAM, 0x10,
                                  f"({var} + 1)")]


def test_reload_after_a_constant_store_folds_its_uses(monkeypatch):
    t = [lifter.Tmp(i) for i in range(2)]
    stmts = [
        lifter.Boundary(0, 1),
        lifter.Store(Region.IRAM, 0x30, 0x42),
        lifter.Load(t[0], Region.IRAM, 0x30),
        lifter.Assign(t[1], "add", (t[0], 1), 8),
        lifter.Store(Region.XRAM, 0x10, t[1]),
        lifter.Jump(1),
    ]
    pb = _prepared(stmts, 2)
    # the add over the stored constant is folded away
    assert _kinds(pb) == ["Site", "Write", "Reread", "Write", "Goto"]
    forwarded, plain = _forwarded_and_not(stmts, 2, monkeypatch)
    assert forwarded == plain
    assert [(k, r, a, v) for k, _, _, r, a, v in forwarded[0]] == [
        ("store", Region.IRAM, 0x30, 0x42), ("load", Region.IRAM, 0x30, 0x42),
        ("store", Region.XRAM, 0x10, 0x43)]


def test_no_reload_across_a_store_to_a_computed_address(monkeypatch):
    # The store's address is symbolic and may be 0x30, so the second load of
    # IRAM 0x30 reads memory; a store to a constant SFR leaves that alone.
    t = [lifter.Tmp(i) for i in range(6)]
    stmts = [
        lifter.Boundary(0, 1),
        lifter.Load(t[0], Region.IRAM, 0x30),
        lifter.Load(t[1], Region.SFR, machine.ACC),
        lifter.Load(t[2], Region.XRAM, 0x7F00),
        lifter.Assign(t[3], "or", (t[2], 0x30), 8),
        lifter.Store(Region.IRAM, t[3], 0x77),
        lifter.Load(t[4], Region.IRAM, 0x30),
        lifter.Load(t[5], Region.SFR, machine.ACC),
        lifter.Jump(1),
    ]
    pb = _prepared(stmts, 6)
    assert _kinds(pb) == ["Site", "Read", "Read", "Read", "Compute", "Write",
                          "Read", "Reread", "Goto"]
    forwarded, plain = _forwarded_and_not(stmts, 6, monkeypatch)
    assert forwarded == plain
    # each of the four children (sids 2-5) stores to 0x30-0x33; only the
    # one whose store hit 0x30 reads the stored byte back
    assert [(k, sid, a, v) for k, sid, _, r, a, v in forwarded[0]
            if r == Region.IRAM] == [
        ("load", 0, 0x30, 0),
        ("store", 2, 0x30, 0x77), ("load", 2, 0x30, 0x77),
        ("store", 3, 0x31, 0x77), ("load", 3, 0x30, 0),
        ("store", 4, 0x32, 0x77), ("load", 4, 0x30, 0),
        ("store", 5, 0x33, 0x77), ("load", 5, 0x30, 0)]


def test_same_operator_over_the_same_slots_is_computed_once(monkeypatch):
    t = [lifter.Tmp(i) for i in range(5)]
    stmts = [
        lifter.Boundary(0, 1),
        lifter.Load(t[0], Region.XRAM, 0x7F00),
        lifter.Assign(t[1], "and", (t[0], 0x0F), 8),
        lifter.Assign(t[2], "and", (t[0], 0x0F), 8),
        lifter.Assign(t[3], "and", (t[0], 0x0F), 16),
        lifter.Assign(t[4], "xor", (t[1], t[2]), 8),
        lifter.Store(Region.XRAM, 0x10, t[4]),
        lifter.Store(Region.XRAM, 0x11, t[3]),
        lifter.Jump(1),
    ]
    pb = _prepared(stmts, 5)
    computes = [st for st in pb.steps if st[0] is symexec.Compute]
    # t2 is t1; the 16-bit and is its own value; the xor reads one slot twice
    assert len(computes) == 3
    assert computes[2][6] == computes[2][7] == computes[0][1]
    forwarded, plain = _forwarded_and_not(stmts, 5, monkeypatch)
    assert forwarded == plain


_BRANCH_COND = solver.mk("ne", (solver.var("xram_7f00"), 6), 1)


def _branch_on(monkeypatch, row, model):
    """`_branch` on `(xram_7f00 != 6)` for a state whose path holds `row`,
    with `model`. Returns the state, the result, and the `Solver.query`
    and `eval_expr` calls it made."""
    ex = symexec.Executor(b"\x00", xram_policy(0x7F00),
                          ExplorationConfig(seed=1), isr_map={})
    s = ExecState()
    s.path.append(row, 0, "row")
    s.model = model
    queries, evals = [], []
    real_query, real_eval = solver.Solver.query, symexec.eval_expr

    def query(self, *args):
        queries.append(args)
        return real_query(self, *args)

    def evaluate(*args):
        evals.append(args)
        return real_eval(*args)

    monkeypatch.setattr(solver.Solver, "query", query)
    monkeypatch.setattr(symexec, "eval_expr", evaluate)
    out = ex._branch(s, _BRANCH_COND, 0x10, 0x20)
    return s, out, queries, evals


@pytest.mark.parametrize("side", ["taken", "fall"])
def test_branch_the_path_decides_makes_no_query(side, monkeypatch):
    cond = _BRANCH_COND
    row = cond if side == "taken" else solver.bool_not(cond)
    model = {"xram_7f00": 0 if side == "taken" else 6}
    s, out, queries, evals = _branch_on(monkeypatch, row, model)
    assert out == [s] and queries == [] and evals == []
    assert s.pc == (0x10 if side == "taken" else 0x20)
    assert s.path.entries == [(row, 0, "row"), (row, 0, side)]
    assert s.model is model


def test_branch_without_a_model_still_queries(monkeypatch):
    s, out, queries, evals = _branch_on(monkeypatch, _BRANCH_COND, None)
    assert out == [s] and len(queries) == 2 and evals == []
    assert s.pc == 0x10 and s.path.entries[-1][2] == "taken"
    assert s.model is not None and s.model["xram_7f00"] != 6


def test_polling_loop_takes_its_held_condition_without_a_fork():
    # mov dptr,#0x7f00; loop: movx a,@dptr; cjne a,#6,loop; sjmp $
    image = bytes([0x90, 0x7F, 0x00, 0xE0, 0xB4, 0x06, 0xFC, 0x80, 0xFE])
    res = execute(image, xram_policy(0x7F00),
                  ExplorationConfig(block_repeat_threshold=8, seed=1,
                                    solver_timeout=0.0), isr_map={})
    # The first pass is open: its fall side's query times out and forks.
    # Every later pass holds the loop condition, so it neither forks nor
    # queries.
    assert res.solver.diagnostics == ["solver timeout: assumed satisfiable"]
    assert res.states_created == 2  # the initial state and one fork
    loop, fall = sorted(res.ended, key=lambda s: s.path.entries[0][2],
                        reverse=True)
    assert loop.terminated == "loop-pruned"
    assert {note for _, _, note in loop.path.entries} == {"taken"}
    assert len(loop.path.entries) > 1
    assert [note for _, _, note in fall.path.entries] == ["fall"]


def test_one_pass_preparation_equals_the_two_pass_reference(tmp_path):
    # Forwarding inside the one pass gives the steps and the value list of
    # forwarding first and preparing after.
    blocks = reference_ir.sample_blocks(_fixtures_and_triage(tmp_path), 31)
    reloads = 0
    for blk in blocks:
        got, want = symexec.prepare_block(blk), reference_ir.prepare_block(blk)
        assert (got.addr, got.steps, got.init, got.instr_addrs) == (
            want.addr, want.steps, want.init, want.instr_addrs), hex(blk.addr)
        reloads += sum(st[0] is symexec.Reread for st in got.steps)
    assert reloads > 0
