"""Shared differential-test harness: concrete interpreter vs lifted IR."""

import random

from usbvet import isa, lifter, machine

STRAIGHT_OPS = [op for op in range(256)
                if op != isa.RESERVED_OPCODE
                and isa.TABLE[op].mnemonic not in isa.CONTROL_FLOW]

ALL_OPS = [op for op in range(256) if op != isa.RESERVED_OPCODE]


def random_bytes(rng: random.Random, n: int) -> bytes:
    """n bytes drawn exactly as n calls of rng.randrange(256) would draw them:
    CPython's randrange(256) takes getrandbits(9) until a value is below 256.
    Calling getrandbits directly skips randrange's per-call overhead."""
    out = bytearray(n)
    getrandbits = rng.getrandbits
    for i in range(n):
        r = getrandbits(9)
        while r >= 256:
            r = getrandbits(9)
        out[i] = r
    return bytes(out)


def random_straight_sequence(rng: random.Random, max_len: int = 32) -> bytes:
    out = bytearray()
    for _ in range(rng.randrange(1, max_len + 1)):
        op = rng.choice(STRAIGHT_OPS)
        out.append(op)
        out += random_bytes(rng, isa.TABLE[op].length - 1)
    return bytes(out)


def random_branchy_image(rng: random.Random, size: int = 0x400) -> bytes:
    """Random instructions with branch targets patched onto boundaries,
    padded with self-jumps so stray control flow stays bounded."""
    body = bytearray()
    bounds = []
    for _ in range(rng.randrange(4, 24)):
        op = rng.choice(ALL_OPS)
        bounds.append(len(body))
        body.append(op)
        body += random_bytes(rng, isa.TABLE[op].length - 1)
    img = bytearray(body)
    while len(img) < size:
        img += bytes([0x80, 0xFE])
    for off in bounds:
        op = img[off]
        info = isa.TABLE[op]
        tgt = rng.choice(bounds)
        if "a16" in info.specs:
            img[off + 1] = tgt >> 8
            img[off + 2] = tgt & 0xFF
        elif "a11" in info.specs:
            nxt = off + info.length
            if (tgt & 0xF800) == (nxt & 0xF800):
                img[off] = (op & 0x1F) | (((tgt >> 8) & 7) << 5)
                img[off + 1] = tgt & 0xFF
        elif "rel" in info.specs:
            delta = tgt - (off + info.length)
            if -128 <= delta <= 127:
                img[off + info.length - 1] = delta & 0xFF
    return bytes(img)


def random_state(rng: random.Random) -> machine.ConcreteState:
    st = machine.ConcreteState()
    st.iram[:] = random_bytes(rng, 256)
    st.sfr[:] = random_bytes(rng, 128)
    st.sfr[machine.SP - 0x80] = rng.randrange(0x07, 0x60)
    return st


def states_equal(a: machine.ConcreteState, b: machine.ConcreteState) -> bool:
    return (a.pc == b.pc and a.iram == b.iram and a.sfr == b.sfr
            and a.xram == b.xram)


def run_both(image: bytes, st0: machine.ConcreteState, max_steps: int):
    """Returns (ok, steps, interpreter state, lifted state) or None when the
    interpreter hit a stack overflow (sequence skipped)."""
    st_a = st0.clone()
    st_b = st0.clone()
    steps = 0
    try:
        while steps < max_steps and st_a.pc < len(image):
            machine.step_concrete(st_a, image)
            steps += 1
    except machine.StackOverflow:
        return None
    except isa.IsaError:
        pass
    program = lifter.lift_program(image)
    got = lifter.run_lifted(program, st_b, steps if steps < max_steps else max_steps)
    ok = got == steps and states_equal(st_a, st_b)
    return ok, steps, st_a, st_b


def differential_straight(seed: int, trials: int, max_len: int = 32) -> int:
    """Run `trials` random straight-line sequences; returns mismatch count."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        seq = random_straight_sequence(rng, max_len)
        res = run_both(seq, random_state(rng), 10_000)
        if res is None:
            continue
        if not res[0]:
            mismatches += 1
    return mismatches


def differential_branchy(seed: int, trials: int) -> int:
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(trials):
        img = random_branchy_image(rng)
        res = run_both(img, random_state(rng), 60)
        if res is None:
            continue
        if not res[0]:
            mismatches += 1
    return mismatches
