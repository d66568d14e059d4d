import json
import pathlib
import random
import time

import pytest

from usbvet import cli, fwkit, lifter, machine, queries, solver, symexec, usbstatic
from usbvet.lifter import Region
from usbvet.queries import Precondition
from usbvet.symexec import ExplorationConfig, SymbolicPolicy

from static_facts import static_facts
from test_report_bytes import load_workloads


def cfg(**kw):
    base = dict(seed=3, block_repeat_threshold=24, max_states=1500)
    base.update(kw)
    return ExplorationConfig(**base)


# ---------------------------------------------------------------------------
# Finding symbolic locations
# ---------------------------------------------------------------------------


# handler writes X then reads X back: no environment byte
SELF_SATISFIED_SRC = """
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
        mov sp, #0x47
        mov ie, #0x81
    idle:
        sjmp idle
    isr:
        mov psw, #0
        mov 0x30, #0x55
        mov a, 0x30
        reti
    """


def test_self_satisfied_isr_adds_nothing():
    image, _ = fwkit.assemble_with_symbols(SELF_SATISFIED_SRC)
    out = queries.find_symbolic_locations(image, tau=4, config=cfg())
    assert out.locations == set()


# Both handlers are enabled, but external0's runs must not enter timer0,
# so timer0's environment read is found only in timer0's own runs.
TWO_SOURCES_SRC = """
    .org 0x0000
        ljmp main
    .org 0x0003
        ljmp quiet
    .org 0x000b
        ljmp poll
    .org 0x0013
        reti
    .org 0x001b
        reti
    .org 0x0023
        reti
    .org 0x002b
        reti
    main:
        mov sp, #0x47
        mov ie, #0x83
    idle:
        sjmp idle
    quiet:
        reti
    poll:
        mov dptr, #0x7100
        movx a, @dptr
        reti
    """


def test_discovery_runs_fire_only_their_own_source():
    image, _ = fwkit.assemble_with_symbols(TWO_SOURCES_SRC)
    out = queries.find_symbolic_locations(
        image, tau=4, config=ExplorationConfig(seed=1))
    assert [(rec.source, rec.added) for rec in out.log] == [
        ("external0", None), ("timer0", ("XRAM", 0x7100)), ("timer0", None)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_branchy_converges_to_exactly_k_bytes(k):
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="branchy", guard_count=k))
    out = queries.find_symbolic_locations(image, tau=k, config=cfg())
    got = {(Region(r).name, a) for r, a in out.locations}
    assert got == {(r, a) for r, a in man.env_bytes}
    added = [rec for rec in out.log if rec.added]
    assert len(added) == k  # one location per iteration until fixpoint


def test_symbolic_set_grows_monotonically():
    image, _ = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="branchy", guard_count=3))
    out = queries.find_symbolic_locations(image, tau=3, config=cfg())
    seen = set()
    for rec in out.log:
        if rec.added:
            loc = tuple(rec.added)
            assert loc not in seen
            seen.add(loc)


def test_budget_ends_reads_each_handlers_last_record():
    rec = queries.IterationRecord
    log = [rec("a", 1, ("XRAM", 1), 0.0, "listener-stop"),  # at the cap
           rec("b", 1, ("XRAM", 2), 0.0, "listener-stop"),
           rec("b", 2, None, 0.0, "proved"),
           rec("c", 1, None, 0.0, "complete")]
    log += [rec(reason, 1, None, 0.0, reason)
            for reason in ("state-limit", "block-limit", "time-limit",
                           "listener-kill")]
    assert queries.SymbolicLocationSet(set(), log).budget_ends() == [
        ("a", "tau"), ("state-limit", "state-limit"),
        ("block-limit", "block-limit"), ("time-limit", "time-limit")]
    assert queries.SymbolicLocationSet(set(), []).budget_ends() == []


def test_injector_env_bytes_discovered():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    out = queries.find_symbolic_locations(image, tau=8, config=cfg())
    got = {(Region(r).name, a) for r, a in out.locations}
    assert got == {(r, a) for r, a in man.env_bytes}


class ColdRuns(queries._CheckLoads):
    """Discovery's listener as Alg. 3 states it: every run stops at the
    first location it finds, and the next iteration reruns cold."""

    def __init__(self, known, stop):
        super().__init__(known, lambda n: True)


# Each discovery iteration that is not `proved` makes a run of its own.
COLD_RUNS = (queries, "_CheckLoads", ColdRuns)


def test_memoless_discovery_lifts_the_image_once(monkeypatch):
    # Without a caller's memo, discovery makes one private memo: its
    # proofs and every run share one lifted program. Every iteration that
    # finds a location is a run of its own here.
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    lifts = []
    real = lifter.lift_program
    monkeypatch.setattr(lifter, "lift_program",
                        lambda img: lifts.append(img) or real(img))
    monkeypatch.setattr(*COLD_RUNS)
    out = queries.find_symbolic_locations(image, config=ExplorationConfig(
        seed=3))
    assert sum(rec.reason != "proved" for rec in out.log) > 1
    assert len(lifts) == 1


# ---------------------------------------------------------------------------
# The static proof that a handler reads nothing fresh
# ---------------------------------------------------------------------------

_VECTORS = """
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
"""

_IDLE_MAIN = """
    mov sp, #0x47
    mov ie, #0x81
idle:
    sjmp idle
"""

# name -> (main code before the idle loop, handler, XRAM bytes already
# symbolic, whether the proof holds: `_fresh_reads` can tell, and every
# location it gives is symbolic)
PROOF_CASES = {
    "written-then-read": ("", """
    mov psw, #0
    mov 0x30, #0x55
    mov a, 0x30
    mov r1, a
    mov a, r1
    mov dptr, #0x7100
    movx a, @dptr
    mov 0x31, a
    reti
""", (0x7100,), True),
    "djnz-loop": ("", """
    mov psw, #0
    mov dptr, #0x7680
    mov r7, #8
fill:
    mov a, r7
    movx @dptr, a
    inc dptr
    djnz r7, fill
    reti
""", (), True),
    "lcall-ret": ("", """
    mov psw, #0
    mov a, #5
    push acc
    lcall helper
    pop acc
    mov 0x30, a
    reti
helper:
    mov b, a
    mov dptr, #0x7680
    movx @dptr, a
    ret
""", (), True),
    # an IRAM byte at an absolute address may be the return address's slot
    "ret-after-iram-store": ("", """
    mov psw, #0
    lcall helper
    reti
helper:
    mov 0x30, #1
    ret
""", (), False),
    # both arms jump to one join block, which reads what they wrote
    "join-written-on-both-arms": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    jz zero
    mov 0x30, #0x31
    mov 0x31, #1
    sjmp done
zero:
    mov 0x31, #2
    mov 0x30, #0x31
    sjmp done
done:
    mov psw, #0
    mov r0, 0x30
    mov a, @r0
    reti
""", (0x7100,), True),
    "join-written-on-one-arm": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    jz zero
    mov 0x30, #1
    sjmp done
zero:
    sjmp done
done:
    mov a, 0x30
    reti
""", (0x7100,), False),
    "join-unequal-values": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    jz zero
    mov 0x30, #0x31
    mov 0x31, #1
    sjmp done
zero:
    mov 0x30, #0x32
    mov 0x31, #1
    sjmp done
done:
    mov psw, #0
    mov r0, 0x30
    mov a, @r0
    reti
""", (0x7100,), False),
    "fresh-iram": ("", """
    mov a, 0x30
    reti
""", (), False),
    "fresh-sfr": ("", """
    mov a, 0x90
    reti
""", (), False),
    "fresh-xram": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    reti
""", (), False),
    "push-unwritten-psw": ("", """
    push psw
    pop psw
    reti
""", (), False),
    "dptr-from-main": ("    mov dptr, #0x7100\n", """
    movx a, @dptr
    reti
""", (0x7100,), False),
    "jmp-a-dptr": ("", """
    mov a, #0
    mov dptr, #table
    jmp @a+dptr
table:
    reti
""", (), False),
    "unresolved-load": ("", """
    mov psw, #0
    mov dptr, #0x7100
    movx a, @dptr
    mov r0, a
    mov a, @r0
    reti
""", (0x7100,), False),
    "ret-to-unresolved": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    push acc
    push acc
    ret
""", (0x7100,), False),
    "two-pops-restored": ("", """
    pop 0x30
    pop 0x31
    push 0x31
    push 0x30
    reti
""", (), True),
    "third-pop-below-frame": ("", """
    pop 0x30
    pop 0x31
    pop 0x32
    push 0x32
    push 0x31
    push 0x30
    reti
""", (), False),
    # the walk cannot name the IRAM byte below the frame that a run finds
    # once the XRAM byte is symbolic
    "fresh-xram-then-third-pop": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    pop 0x30
    pop 0x31
    pop 0x32
    push 0x32
    push 0x31
    push 0x30
    reti
""", (0x7100,), False),
    # the second jz takes the side the first decided: no run reads 0x7200
    "jz-decided-by-the-path": ("", """
    mov dptr, #0x7100
    movx a, @dptr
    jz zero
    reti
zero:
    jz done
    mov dptr, #0x7200
    movx a, @dptr
done:
    reti
""", (0x7100,), False),
    # entered at SP 0x49, the push writes IRAM 0x4a, which is then read
    "pushed-slot-read-absolute": ("", """
    push acc
    mov a, 0x4a
    pop acc
    reti
""", (), False),
    # main reads 0x7100 before the handler does, and copies it to 0x40
    "main-copies-the-byte": ("""    mov dptr, #0x7100
    movx a, @dptr
    mov 0x40, a
""", """
    mov dptr, #0x7100
    movx a, @dptr
    mov a, 0x40
    jz done
    mov dptr, #0x7300
    movx a, @dptr
done:
    reti
""", (0x7100,), False),
}


def _proof_image(name):
    main, handler, _, _ = PROOF_CASES[name]
    src = f"{_VECTORS}\nmain:\n{main}{_IDLE_MAIN}\nisr:\n{handler}"
    return fwkit.assemble_with_symbols(src)


def _proved(fresh, known) -> bool:
    """The proof's answer for one iteration, given the handler's
    `_fresh_reads` walk and the locations already symbolic."""
    return fresh is not None and fresh <= known


@pytest.mark.parametrize("name", sorted(PROOF_CASES))
def test_no_fresh_read_proof(name):
    image, labels = _proof_image(name)
    known = {(Region.XRAM, a) for a in PROOF_CASES[name][2]}
    fresh = queries._fresh_reads(lifter.lift_program(image), labels["isr"],
                                 None)
    assert _proved(fresh, known) is PROOF_CASES[name][3]


def test_no_fresh_read_proof_answers_no_past_the_deadline():
    image, labels = _proof_image("djnz-loop")
    program = lifter.lift_program(image)
    assert _proved(queries._fresh_reads(program, labels["isr"],
                                        time.monotonic() + 60), set())
    assert not _proved(queries._fresh_reads(program, labels["isr"],
                                            time.monotonic() - 1), set())


def test_proved_fixpoint_ends_discovery_without_a_run(monkeypatch):
    image, _ = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="branchy", guard_count=2))
    runs = []
    real = queries.execute
    monkeypatch.setattr(queries, "execute",
                        lambda *a, **kw: runs.append(1) or real(*a, **kw))
    out = queries.find_symbolic_locations(image, tau=8, config=cfg())
    assert [rec.added is not None for rec in out.log] == [True, True, False]
    assert out.log[-1].reason == "proved"
    assert len(runs) == 1  # one run finds both locations


# TWO_SOURCES_SRC with interrupts never enabled, and `poll` saving PSW.
# No run enters either handler, though poll's walk, which assumes any entry
# state, gives PSW and ACC (the push reads PSW, whose parity bit is ACC's)
# and XRAM 0x7100.
NEVER_ENABLED_SRC = TWO_SOURCES_SRC.replace(
    "        mov ie, #0x83\n", "").replace(
    "    poll:\n", "    poll:\n        push psw\n        pop psw\n")


def test_never_entered_handler_adds_nothing():
    image, labels = fwkit.assemble_with_symbols(NEVER_ENABLED_SRC)
    assert queries._fresh_reads(lifter.lift_program(image), labels["poll"],
                                None) == {(Region.SFR, machine.PSW),
                                          (Region.SFR, machine.ACC),
                                          (Region.XRAM, 0x7100)}
    out = queries.find_symbolic_locations(
        image, tau=4, config=ExplorationConfig(seed=1))
    assert out.locations == set()
    assert [(rec.source, rec.added, rec.reason) for rec in out.log] == [
        ("external0", None, "proved"), ("timer0", None, "complete")]


def _discovery_runs(monkeypatch, image, tau, config, patches=()):
    """Discovery's log, as (source, iteration, location, reason) rows, and
    its locations and number of runs, with `patches` set."""
    runs = []
    real = queries.execute
    with monkeypatch.context() as m:
        m.setattr(queries, "execute",
                  lambda *a, **kw: runs.append(1) or real(*a, **kw))
        for patch in patches:
            m.setattr(*patch)
        out = queries.find_symbolic_locations(image, tau=tau, config=config)
    rows = [(r.source, r.iteration, r.added, r.reason) for r in out.log]
    return rows, out.locations, len(runs)


def test_discovery_equals_cold_reruns(monkeypatch, tmp_path):
    # A run that goes on past a location it found stands for the cold
    # reruns Alg. 3 makes: the log, iteration by iteration, and the
    # locations are theirs, with fewer runs.
    fixtures = [(fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0],
                 16, ExplorationConfig())
                for t in ("benign-hid", "injector-hid",
                          "storage-claiming-hid")]
    branchy = [(fwkit.generate_fixture(fwkit.FixtureSpec(
        template="branchy", guard_count=k))[0], tau, cfg())
        for k in range(1, 6) for tau in {k, max(k - 1, 1)}]
    proofs = [(_proof_image(name)[0], 16, cfg()) for name in PROOF_CASES]
    triage = [(image, 16, config)
              for image, config in _triage_images(tmp_path, 4)]
    rng = random.Random(11)
    randoms = [(rng.randbytes(rng.randrange(64, 0x401)), (16, 2)[i % 2],
                ExplorationConfig(seed=i)) for i in range(200)]
    runs = cold_runs = 0
    for i, (image, tau, config) in enumerate(
            fixtures + branchy + proofs + triage + randoms):
        *out, n = _discovery_runs(monkeypatch, image, tau, config)
        *cold, n_cold = _discovery_runs(monkeypatch, image, tau, config,
                                        [COLD_RUNS])
        assert out == cold, (i, image.hex())
        runs, cold_runs = runs + n, cold_runs + n_cold
        if i < len(fixtures) + len(branchy):
            assert n < n_cold or n == n_cold == 1, i
    assert runs < cold_runs


def test_byte_read_before_the_handler_is_rerun_cold(monkeypatch):
    # Main reads 0x7100 and copies it to IRAM 0x40 before the handler reads
    # both. A run that went on past 0x7100 would keep main's copy of its
    # reset value, and never read 0x7300; so that run stops, and a cold
    # rerun, in which main copies the variable, goes on past 0x40.
    image = _proof_image("main-copies-the-byte")[0]
    rows, locations, n = _discovery_runs(monkeypatch, image, 16, cfg())
    assert locations == {(Region.XRAM, 0x7100), (Region.IRAM, 0x40),
                         (Region.XRAM, 0x7300)}
    assert rows[-1][3] == "proved" and n == 2
    assert (rows, locations) == _discovery_runs(monkeypatch, image, 16, cfg(),
                                                [COLD_RUNS])[:2]


@pytest.mark.parametrize("name,found", [
    ("jz-decided-by-the-path", {(Region.XRAM, 0x7100)}),
    ("pushed-slot-read-absolute", {(Region.SFR, machine.ACC)})])
def test_discovery_adds_only_what_a_run_reads(name, found):
    # The walk's set bounds what a run can read; it is not what one does:
    # the walk takes both sides of a branch the path decides, and cannot
    # tell a stack slot from the absolute IRAM byte it is.
    image, labels = _proof_image(name)
    walk = queries._fresh_reads(lifter.lift_program(image), labels["isr"],
                                None)
    assert walk > found
    out = queries.find_symbolic_locations(image, tau=16, config=cfg())
    assert out.locations == found


def _shadowed_discovery(monkeypatch, image, config):
    """Discovery with every iteration explored by a run of its own, as if
    the walk could never tell, and whether the proof held before each iteration, in log order:
    the handler's walk told, and every location it gave was symbolic."""
    real = queries._fresh_reads
    walks = []
    with monkeypatch.context() as m:
        m.setattr(queries, "_fresh_reads", lambda *a: walks.append(real(*a)))
        m.setattr(*COLD_RUNS)
        out = queries.find_symbolic_locations(image, tau=16, config=config)
    sources = list(dict.fromkeys(rec.source for rec in out.log))
    assert len(walks) == len(sources)
    fresh_of = dict(zip(sources, walks))
    known, pairs = set(), []
    for rec in out.log:
        pairs.append((_proved(fresh_of[rec.source], known), rec))
        if rec.added is not None:
            known.add((Region[rec.added[0]], rec.added[1]))
    return pairs


def _triage_images(tmp_path, rounds):
    """Seeded variants of the three templates, made by the benchmark's own
    `identity_triage_round` (seed 1), with each one's analysis seed."""
    workloads = load_workloads()
    for r in range(rounds):
        for op in workloads.identity_triage_round(1, r, str(tmp_path)):
            seed = int(op.argv[op.argv.index("--seed") + 1])
            yield (pathlib.Path(op.image_path).read_bytes(),
                   ExplorationConfig(seed=seed))


def test_proved_fixpoint_is_never_a_finding_run(monkeypatch, tmp_path):
    # Soundness: wherever the proof holds, the run it replaces finds
    # nothing. And it holds at every fixture handler's last iteration.
    fixtures = [fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0]
                for t in ("benign-hid", "injector-hid",
                          "storage-claiming-hid")]
    images = [(img, ExplorationConfig()) for img in fixtures]
    images += [(fwkit.generate_fixture(fwkit.FixtureSpec(
        template="branchy", guard_count=k))[0], cfg()) for k in range(1, 6)]
    images += [(_proof_image(name)[0], cfg()) for name in PROOF_CASES]
    images += [(fwkit.assemble_with_symbols(src)[0], cfg())
               for src in (SELF_SATISFIED_SRC, TWO_SOURCES_SRC)]
    images += list(_triage_images(tmp_path, 4))
    assert len(images) == 3 + 5 + len(PROOF_CASES) + 2 + 12
    held_somewhere = 0
    for i, (image, config) in enumerate(images):
        pairs = _shadowed_discovery(monkeypatch, image, config)
        assert all(rec.added is None for held, rec in pairs if held), i
        held_somewhere += any(held for held, _ in pairs)
        if i < len(fixtures):
            last = {rec.source: held for held, rec in pairs}
            assert all(last.values()), i
    assert held_somewhere >= len(images) - len(PROOF_CASES)


def test_discovery_walks_each_handler_once(monkeypatch, tmp_path):
    # The proof's walk never reads the symbolic set, so each handler is
    # walked once, however many iterations its discovery takes.
    images = [(fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0],
               ExplorationConfig())
              for t in ("benign-hid", "injector-hid", "storage-claiming-hid")]
    images += list(_triage_images(tmp_path, 1))
    real = queries._fresh_reads
    walked = []
    monkeypatch.setattr(queries, "_fresh_reads",
                        lambda *a: walked.append(a[1]) or real(*a))
    iterations = 0
    for image, config in images:
        walked.clear()
        out = queries.find_symbolic_locations(image, tau=16, config=config)
        sources = {rec.source for rec in out.log}
        assert len(walked) == len(set(walked)) == len(sources)
        iterations += len(out.log)
    assert iterations > 2 * len(images)  # handlers take several iterations


# ---------------------------------------------------------------------------
# Preconditions
# ---------------------------------------------------------------------------


def make_policy(*xram_addrs):
    return SymbolicPolicy([(Region.XRAM, a) for a in xram_addrs])


def test_precondition_exprs_empty():
    assert queries._precondition_exprs([]) == []


def test_precondition_exprs_renders_equality():
    [(expr, note)] = queries._precondition_exprs(
        [Precondition("XRAM", 0x7FE9, "==", 6)])
    assert solver.to_text(expr) == "(xram_7fe9 == 6)"
    assert note == "precondition XRAM[0x7fe9] == 6"


# Each relation's meaning on a byte b and the precondition's value x.
_RELATION_HOLDS = {
    "==": lambda b, x: b == x, "!=": lambda b, x: b != x,
    "<": lambda b, x: b < x, ">": lambda b, x: b > x,
    "bit-set": lambda b, x: (b >> x) & 1 == 1,
    "bit-clear": lambda b, x: (b >> x) & 1 == 0,
}


def test_precondition_exprs_constrain_every_policys_variable():
    # A precondition's constraint holds exactly where its relation does,
    # over the one variable that the full policy and a discovered-set
    # policy both give the byte, so it means the same under either.
    assert queries.RELATIONS == tuple(_RELATION_HOLDS)
    for region, addr in ((Region.XRAM, 0x7FE9), (Region.IRAM, 0x30)):
        v = SymbolicPolicy.full().lookup(region, addr)
        assert SymbolicPolicy([(region, addr)]).lookup(region, addr) == v
        for rel, holds in _RELATION_HOLDS.items():
            for x in ((0, 3, 7) if rel.startswith("bit") else (0, 6, 255)):
                [(expr, _)] = queries._precondition_exprs(
                    [Precondition(region.name, addr, rel, x)])
                assert expr.vars() == v.vars()
                for b in range(256):
                    assert solver.eval_expr(expr, {v.args[0]: b}) == (
                        1 if holds(b, x) else 0), (rel, x, b)


def test_query1_rejects_contradiction():
    pol = make_policy(0x7FE9)
    with pytest.raises(queries.UnsatisfiablePreconditions):
        queries.query1(bytes([0x80, 0xFE]), {0}, pol, preconditions=[
            Precondition("XRAM", 0x7FE9, "==", 6),
            Precondition("XRAM", 0x7FE9, "==", 7)])


def test_precondition_exprs_requires_designation():
    # Query 1 rejects a precondition on a byte its policy does not make
    # symbolic, before it solves or explores anything.
    with pytest.raises(queries.PreconditionError,
                       match=r"^XRAM\[0x7fe9\] is not designated symbolic"):
        queries.query1(bytes([0x80, 0xFE]), {0}, make_policy(),
                       preconditions=[Precondition("XRAM", 0x7FE9, "==", 6)])


def test_bit_relations():
    [(expr, _)] = queries._precondition_exprs(
        [Precondition("XRAM", 0x7FAB, "bit-set", 0)])
    assert "& 1" in solver.to_text(expr)


# ---------------------------------------------------------------------------
# Query 1
# ---------------------------------------------------------------------------


def test_query1_unguarded_target_trivial():
    src = """
    .org 0
        nop
    tgt:
        nop
    spin:
        sjmp spin
    """
    image, syms = fwkit.assemble_with_symbols(src)
    rep = queries.query1(image, [syms["tgt"]], SymbolicPolicy(),
                         config=cfg())
    t = rep.targets[syms["tgt"]]
    assert t.reached
    assert t.usb_constraints == []


def test_query1_descriptor_request_constraints():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    target = man.target_sites["hid_report_copy"]
    rep = queries.query1(image, [target], SymbolicPolicy(symset.locations),
                         config=cfg())
    t = rep.targets[target]
    assert t.reached
    texts = [row["constraint"] for row in t.path]
    assert any("xram_7fe9 == 6" in s for s in texts)
    assert any("xram_7feb == 0x22" in s for s in texts)
    meanings = {(n.location, n.value): n.meaning for n in t.usb_constraints}
    assert meanings[("xram_7fe9", 6)] == "GET_DESCRIPTOR request"
    assert meanings[("xram_7feb", 34)] == "HID report descriptor type"
    # witness satisfies the descriptor request shape
    assert t.witness["xram_7fe9"] == 6 and t.witness["xram_7feb"] == 34


def test_query1_policy_dominance():
    # every target reached under the partial policy is reached under full
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    targets = sorted(man.target_sites.values())
    partial = queries.query1(image, targets,
                             SymbolicPolicy(symset.locations), config=cfg())
    full = queries.query1(image, targets, SymbolicPolicy.full(), config=cfg())
    for t in targets:
        if partial.targets[t].reached:
            assert full.targets[t].reached


def test_query1_precondition_soundness():
    # preconditions prune, never add: reached-with-pre implies reached-without
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    target = man.target_sites["hid_report_copy"]
    pre = [Precondition("XRAM", man.setup_base + 1, "==", 6)]
    pol = SymbolicPolicy(symset.locations)
    with_pre = queries.query1(image, [target], pol, preconditions=pre,
                              config=cfg())
    without = queries.query1(image, [target], pol, config=cfg())
    assert with_pre.targets[target].reached
    assert without.targets[target].reached
    # and the precondition is part of the reported path
    notes = [row["note"] for row in with_pre.targets[target].path]
    assert any(n.startswith("precondition") for n in notes)


def test_query1_witness_timeout_reported():
    # with no time to solve, the branch is assumed feasible both ways, and
    # the reached target's witness is the empty model
    src = """
    .org 0
        mov dptr, #0x7fe9
        movx a, @dptr
        cjne a, #6, spin
    tgt:
        nop
    spin:
        sjmp spin
    """
    image, syms = fwkit.assemble_with_symbols(src)
    rep = queries.query1(image, [syms["tgt"]], make_policy(0x7FE9),
                         config=cfg(solver_timeout=0.0))
    t = rep.targets[syms["tgt"]]
    assert t.reached and t.witness == {}
    assert [row["constraint"] for row in t.path] == ["(xram_7fe9 == 6)"]
    assert "solver timeout: empty model" in rep.diagnostics


def test_query1_requires_targets():
    with pytest.raises(ValueError):
        queries.query1(bytes(16), [], SymbolicPolicy())


def test_target_distances_step_down_to_the_targets(tmp_path):
    images = [fwkit.generate_fixture(fwkit.FixtureSpec(template=t))[0]
              for t in ("benign-hid", "injector-hid", "storage-claiming-hid")]
    images += [image for image, _ in _triage_images(tmp_path, 1)]
    for image in images:
        # the static facts and target sites, as `cli.run_pipeline` has them
        M = static_facts(image)
        inf = usbstatic.find_devspec_to_ep0(image, M,
                                            usbstatic.scan_signatures(image))
        targets = set().union(*inf.target_sites.values())
        assert targets
        dist = queries.target_distances(M, targets)
        assert all(dist[t] == 0 for t in targets)
        assert dist.get(0) is not None  # the reset vector leads to a target
        for a, sm in M.summaries.items():
            nearest = min((dist[b] for b in sm.succ if b in dist), default=None)
            if a not in dist:
                assert nearest is None, hex(a)  # no successor has one
            elif dist[a] > 0:
                assert nearest == dist[a] - 1, hex(a)


def test_directed_query1_keeps_the_descriptor_request_constraints():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    target = man.target_sites["hid_report_copy"]
    pol = SymbolicPolicy(symset.locations)
    directed = queries.query1(image, [target], pol, config=cfg(),
                              M=static_facts(image))
    undirected = queries.query1(image, [target], pol, config=cfg())
    t = directed.targets[target]
    assert t.reached
    assert t.witness["xram_7fe9"] == 6 and t.witness["xram_7feb"] == 34
    assert directed.states_explored < undirected.states_explored


# seed-2 round 16 and seed-1 round 20 of `identity-triage`: with every pick
# directed, Query 1 runs 1,300 blocks on the first and ends at the state
# limit (exit 2) on the second; the mix takes 25 and 35 blocks
@pytest.mark.parametrize("seed,rnd", [(2, 16), (1, 20)])
def test_directed_query1_still_mixes_its_picks(seed, rnd, tmp_path,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads = load_workloads()
    (op,) = [op for op in workloads.identity_triage_round(seed, rnd, ".")
             if op.template == "benign-hid"]
    code = cli.main(op.argv)
    data = pathlib.Path(op.report_path).read_bytes()
    assert workloads.check_analysis(op, code, data) == ""
    assert json.loads(data)["query1"]["blocks_executed"] <= 400


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_counter_found_for_threshold_loop():
    src = """
    .org 0
    loop:
        inc 0x35
        mov a, 0x35
        cjne a, #0x10, loop
    spin:
        sjmp spin
    """
    image, _ = fwkit.assemble_with_symbols(src)
    ctrs = queries.find_counters(static_facts(image))
    assert (Region.IRAM, 0x35) in ctrs


def test_add_feeding_index_is_not_counter():
    src = """
    .org 0
        mov a, r0
        add a, r1
        mov dptr, #0x0100
        movc a, @a+dptr
    spin:
        sjmp spin
    """
    image, _ = fwkit.assemble_with_symbols(src)
    assert queries.find_counters(static_facts(image)) == set()


def test_inc_feeding_indirect_address_is_not_counter():
    src = """
    .org 0
    loop:
        inc 0x35
        mov r0, 0x35
        mov a, @r0
        sjmp loop
    """
    image, _ = fwkit.assemble_with_symbols(src)
    ctrs = queries.find_counters(static_facts(image))
    assert (Region.IRAM, 0x35) not in ctrs


def test_xram_counter_via_tracked_dptr():
    src = """
    .org 0
    loop:
        mov dptr, #0x7c40
        movx a, @dptr
        inc a
        movx @dptr, a
        sjmp loop
    """
    image, _ = fwkit.assemble_with_symbols(src)
    assert (Region.XRAM, 0x7C40) in queries.find_counters(static_facts(image))


def test_benign_fixture_has_no_counters():
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="benign-hid"))
    assert queries.find_counters(static_facts(image)) == set()


def test_injector_counter_matches_manifest():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    ctrs = queries.find_counters(static_facts(image))
    assert {(Region.IRAM, a) for a in man.counter_addrs} == ctrs


# ---------------------------------------------------------------------------
# Query 2
# ---------------------------------------------------------------------------


def test_other_endpoint_addresses():
    eps = queries.other_endpoint_addresses({0x7E00}, max_ep=4)
    assert 0x7E80 in eps          # 32*4 and 64*2
    assert 0x7E08 in eps
    assert 0x7E00 not in eps


def test_query2_unexpected_flags_injector_and_not_benign():
    for template, expect_flag in (("injector-hid", True), ("benign-hid", False)):
        image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template=template))
        symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
        inf = usbstatic.find_devspec_to_ep0(image, static_facts(image),
                                            usbstatic.scan_signatures(image))
        rep = queries.query2_unexpected(image, inf.ep0,
                                        SymbolicPolicy(symset.locations),
                                        max_ep=4, config=cfg(seed=5))
        if expect_flag:
            mal = man.malicious_store_sites[0]
            assert any(f.site == mal for f in rep.flagged)
            assert ("IRAM", 0x35) in [tuple(c) for c in rep.counters]
        else:
            assert rep.flagged == []


def test_query2_unexpected_missed_without_counter_symbolication():
    # threshold loop longer than the prune budget: the payload is reachable
    # only once the counter byte is symbolic
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    M = static_facts(image)
    inf = usbstatic.find_devspec_to_ep0(image, M,
                                        usbstatic.scan_signatures(image))
    other = queries.other_endpoint_addresses(inf.ep0, 4)
    targets = {i.addr for i in M.instrs if M.get(i.addr, "dst")[1] in other}
    pol = SymbolicPolicy(symset.locations)  # env bytes only, no counters
    sat = solver.Solver()
    listener = queries._ConcreteFlowListener(targets, sat)
    symexec.execute(image, pol, cfg(seed=5), listeners=[listener])
    mal = man.malicious_store_sites[0]
    assert not any(f.site == mal for f in listener.flags.values())


def test_query2_known_protocol_constant_is_labeled_not_suppressed():
    # benign-constant false-positive class: a CBW tag byte copied to an
    # endpoint buffer is flagged but labeled
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
        mov sp, #0x47
        mov ie, #0x81
    loop:
        mov a, #0x55          ; 'U' of the USBC tag
        mov dptr, #0x6120
        movx @dptr, a
        sjmp loop
    isr:
        mov psw, #0
        mov dptr, #dev
        movx a, @dptr
        reti
    dev:
    """
    # plant descriptors so EP0 inference has something; EP0 0x6100 -> 0x6120
    src += """
.org 0x0200
ddesc:
.db 0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40
.db 0x34, 0x12, 0x78, 0x56, 0x00, 0x01, 0x01, 0x02, 0x00, 0x01
cdesc:
.db 0x09, 0x02, 0x10, 0x00, 0x01, 0x01, 0x00, 0x80, 0x32
.db 0x09, 0x04, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00
"""
    image, syms = fwkit.assemble_with_symbols(src)
    rep = queries.query2_unexpected(image, {0x6100}, SymbolicPolicy(),
                                    max_ep=4, config=cfg())
    flags = [f for f in rep.flagged if f.write_addr == 0x6120]
    assert flags, rep.flagged
    assert flags[0].label == "known-protocol-constant"
    assert flags[0].values == [0x55]


def test_query2_inconsistent_ranks_injector_top():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    ctrs = queries.find_counters(static_facts(image))
    pol = SymbolicPolicy(symset.locations | ctrs)
    rep = queries.query2_inconsistent(image, pol, cfg(seed=5))
    assert rep.ranked
    top = rep.ranked[0]
    assert top.score >= 2
    assert man.malicious_store_sites[0] in top.writers
    assert top.write_addr in range(man.ep_buffers[0], man.ep_buffers[0] + 8)
    assert top.symbolic_sources  # the benign writer's variable names


def test_query2_inconsistent_concrete_only_address_not_flagged():
    # a byte written concretely from two different blocks but never
    # symbolically must not be flagged
    src = """
    .org 0
    a1: mov a, #1
        mov dptr, #0x6000
        movx @dptr, a
        sjmp a2
    .org 0x40
    a2: mov a, #2
        mov dptr, #0x6000
        movx @dptr, a
    spin:
        sjmp spin
    """
    image, _ = fwkit.assemble_with_symbols(src)
    rep = queries.query2_inconsistent(image, SymbolicPolicy(), cfg())
    assert rep.flagged == [] and rep.ranked == []


def test_query2_single_value_writer_low_rank():
    # a single-value concrete writer next to a symbolic writer is flagged but
    # ranks below a multi-value one
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
        mov sp, #0x47
        mov ie, #0x81
    loop:
        mov a, #0x0b          ; single constant to 0x6000
        mov dptr, #0x6000
        movx @dptr, a
        mov a, 0x30           ; two constants to 0x6001
        jz w1
        mov a, #0x10
        sjmp w2
    w1: mov a, #0x20
        mov 0x30, #1
    w2: mov dptr, #0x6001
        movx @dptr, a
    spin:
        sjmp loop
    isr:
        mov psw, #0
        mov dptr, #0x7f00
        movx a, @dptr         ; environment byte
        mov dptr, #0x6000
        movx @dptr, a         ; symbolic writer for 0x6000
        mov dptr, #0x6001
        movx @dptr, a         ; and for 0x6001
        reti
    """
    image, _ = fwkit.assemble_with_symbols(src)
    pol = SymbolicPolicy([(Region.XRAM, 0x7F00)])
    rep = queries.query2_inconsistent(image, pol, cfg(seed=6))
    by_addr = {r.write_addr: r for r in rep.ranked}
    assert 0x6000 in by_addr and 0x6001 in by_addr
    assert by_addr[0x6001].score == 2 and by_addr[0x6000].score == 1
    assert rep.ranked[0].write_addr == 0x6001


@pytest.mark.parametrize("template",
                         ["benign-hid", "injector-hid", "storage-claiming-hid"])
def test_query2_one_exploration_matches_separate_runs(template):
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template=template))
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg())
    M = static_facts(image)
    ep0 = usbstatic.find_devspec_to_ep0(image, M,
                                        usbstatic.scan_signatures(image)).ep0
    env = SymbolicPolicy(symset.locations)
    both = queries.query2(image, ep0, env, M=M, max_ep=4, config=cfg(seed=5))
    pol = SymbolicPolicy(symset.locations | queries.find_counters(M))
    separate = (queries.query2_unexpected(image, ep0, env, max_ep=4,
                                          config=cfg(seed=5)),
                queries.query2_inconsistent(image, pol, cfg(seed=5)))
    for one, alone in zip(both, separate):
        for name in ("kind", "flagged", "counters", "ranked",
                     "states_explored", "blocks_executed", "coverage",
                     "reason", "diagnostics"):
            assert getattr(one, name) == getattr(alone, name), name
    # the unexpected-flow listener alone on its own run flags the same stores
    other = queries.other_endpoint_addresses(ep0, 4)
    targets = {i.addr for i in M.instrs if M.get(i.addr, "dst")[1] in other}
    flow = queries._ConcreteFlowListener(targets, solver.Solver())
    res = symexec.execute(image, pol, cfg(seed=5), listeners=[flow])
    assert res.states_created == both[0].states_explored
    assert (sorted(flow.flags.values(), key=lambda f: (f.write_addr, f.site))
            == both[0].flagged)
    assert bool(both[0].flagged) == (template == "injector-hid")


def test_query2_reports_keep_solver_timeouts():
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    M = static_facts(image)
    ep0 = usbstatic.find_devspec_to_ep0(image, M,
                                        usbstatic.scan_signatures(image)).ep0
    pol = SymbolicPolicy(queries.find_counters(M))
    budget = cfg(solver_timeout=0.0, max_states=64)
    for rep in (queries.query2_unexpected(image, ep0, SymbolicPolicy(),
                                          config=budget),
                queries.query2_inconsistent(image, pol, budget)):
        assert "solver timeout: assumed satisfiable" in rep.diagnostics
