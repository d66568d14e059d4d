"""The benchmark's workloads: seeded inputs, the timed operation and the
ground-truth oracle for each.

A workload makes its inputs one round at a time; a round is a short, fixed
list of operations that keeps the input mix balanced (one image per fixture
template, or a fixed share of straight-line and branchy sequences). Round r
is drawn from its own stream, seeded by (workload, seed, r), so it does not
depend on how many rounds came before it, and no input repeats within a run.
Runs stop only at round boundaries, so medians are taken over the same mix in
every run.

Ground truth comes from the fixture generator (``fwkit``) and from the
concrete interpreter (``machine.step_concrete``), never from a usbvet report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

from usbvet import cli, fwkit, isa, lifter, machine

TEMPLATES = ("benign-hid", "injector-hid", "storage-claiming-hid")

EXPECTED_CLASS = {"benign-hid": "hid", "injector-hid": "hid",
                  "storage-claiming-hid": "mass-storage"}

# (identity, behavior, exit code) per template when both queries run, as
# pinned by acceptance criterion 11.
FULL_VERDICT = {
    "benign-hid": ("consistent", "clean", cli.EXIT_CONSISTENT),
    "injector-hid": ("consistent", "flagged", cli.EXIT_FLAGGED),
    "storage-claiming-hid": ("anomalous", "clean", cli.EXIT_FLAGGED),
}

# Identity-only analyses never run Query 2, so nothing can be flagged and the
# injector exits like its benign twin.
IDENTITY_VERDICT = {
    "benign-hid": ("consistent", "clean", cli.EXIT_CONSISTENT),
    "injector-hid": ("consistent", "clean", cli.EXIT_CONSISTENT),
    "storage-claiming-hid": ("anomalous", "clean", cli.EXIT_FLAGGED),
}

# Offsets of the configuration and HID report descriptors from the device
# descriptor in each template's default layout.
_DESC_OFFSETS = {"benign-hid": (0x12, 0x34), "injector-hid": (0x12, 0x34),
                 "storage-claiming-hid": (0x12, 0x59)}
# Where the descriptor block may start: above the code, and inside the image
# size range of the template's default layout.
_DESC_BASE_RANGE = {"benign-hid": (0x0800, 0x0F00),
                    "injector-hid": (0x0800, 0x0F00),
                    "storage-claiming-hid": (0x2800, 0x3400)}


def _hx(v: int) -> str:
    return f"0x{v:04x}"


@dataclass
class Outcome:
    wall_s: float
    ok: bool
    reason: str = ""
    sha256: str | None = None
    row: dict = field(default_factory=dict)
    start: float = 0.0          # perf_counter() when the timed call began


# ---------------------------------------------------------------------------
# Analyses (vet-default, identity-triage)
# ---------------------------------------------------------------------------

@dataclass
class AnalysisOp:
    template: str
    image_path: str             # relative to the checkout root
    image_bytes: int
    argv: list[str]
    report_path: str
    expect: tuple[str, str, int]
    target: int                 # manifest hid_report_copy: Query 1 must reach it
    malicious: int | None       # must appear in verdict.flagged_sites

    @property
    def kind(self) -> str:
        return self.template

    def key(self) -> str:
        return os.path.basename(self.image_path)


def _write_image(workdir: str, name: str, image: bytes) -> str:
    path = os.path.join(workdir, name)
    with open(path, "wb") as fh:
        fh.write(image)
    return path


def _analysis_op(workdir: str, name: str, spec: fwkit.FixtureSpec,
                 seed: int, extra: list[str], verdicts: dict) -> AnalysisOp:
    image, man = fwkit.generate_fixture(spec)
    t = spec.template
    image_path = _write_image(workdir, name + ".bin", image)
    report_path = os.path.join(workdir, name + ".json")
    argv = ["analyze", image_path, "--expected", EXPECTED_CLASS[t],
            "--seed", str(seed), "--report", report_path] + extra
    expect = verdicts[t]
    malicious = (man.malicious_store_sites[0]
                 if expect[1] == "flagged" else None)
    return AnalysisOp(t, image_path, len(image), argv, report_path, expect,
                      man.target_sites["hid_report_copy"], malicious)


def _round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def vet_default_round(seed: int, r: int,
                      workdir: str) -> list[AnalysisOp] | None:
    """The three default fixtures at default settings; the benchmark seed is
    the analysis seed. These are its only inputs, so there is one round."""
    if r:
        return None
    return [_analysis_op(workdir, f"r000-{t}", fwkit.FixtureSpec(template=t),
                         seed, [], FULL_VERDICT) for t in TEMPLATES]


def _identity_spec(rng: random.Random, template: str) -> fwkit.FixtureSpec:
    ep0 = rng.randrange(0x74, 0x7F) << 8
    base = rng.randrange(*_DESC_BASE_RANGE[template])
    cfg_off, hid_off = _DESC_OFFSETS[template]
    return fwkit.FixtureSpec(
        template=template,
        device_desc_addr=base,
        config_desc_addr=base + cfg_off,
        hid_report_addr=base + hid_off,
        ep0_fifo=ep0,
        ep1_buffer=ep0 + 0x80,
        # SETUP packet bytes, the IRQ status byte, the keyboard bytes
        # (0x7f80/1) and the storage mode byte (0x7f00) never overlap.
        setup_base=rng.randrange(0x7FC0, 0x7FF8, 8),
        usb_irq_addr=rng.randrange(0x7F90, 0x7FC0),
        scancodes=tuple(rng.randrange(256) for _ in range(16)),
        mode_magic=rng.randrange(256))


def identity_triage_round(seed: int, r: int, workdir: str) -> list[AnalysisOp]:
    """Seeded fixture variants, one per template, each analysed for identity
    only under its own analysis seed."""
    rng = _round_rng("identity-triage", seed, r)
    ops = []
    for t in TEMPLATES:
        spec = _identity_spec(rng, t)
        pre = f"XRAM:{_hx(spec.setup_base + 1)}:==:6"
        ops.append(_analysis_op(
            workdir, f"r{r:03d}-{t}", spec, rng.randrange(1 << 16),
            ["--query", "identity", "--precondition", pre],
            IDENTITY_VERDICT))
    return ops


def _report_counts(report: dict) -> tuple[int, int]:
    """States and blocks of every exploration the report summarises."""
    parts = [report.get("query1")] + list((report.get("query2") or {}).values())
    parts = [p for p in parts if p]
    return (sum(p["states_explored"] for p in parts),
            sum(p["blocks_executed"] for p in parts))


def check_analysis(op: AnalysisOp, code, data: bytes | None) -> str:
    """Empty string when the analysis matches ground truth, else why not."""
    identity, behavior, exit_code = op.expect
    if code != exit_code:
        return f"exit {code}, expected {exit_code}"
    if data is None:
        return "no report"
    report = json.loads(data)
    v = report["verdict"]
    if (v["identity"], v["behavior"]) != (identity, behavior):
        return f"verdict {v['identity']}/{v['behavior']}"
    target = ((report.get("query1") or {}).get("targets") or {}).get(
        _hx(op.target))
    if not target or not target["reached"]:
        return f"Query 1 did not reach {_hx(op.target)}"
    if op.malicious is not None and _hx(op.malicious) not in v["flagged_sites"]:
        return f"{_hx(op.malicious)} not flagged"
    if b"solver timeout" in data:
        return "solver timeout"
    return ""


def run_analysis(op: AnalysisOp) -> Outcome:
    if os.path.exists(op.report_path):
        os.remove(op.report_path)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as e:  # any escape is a failed operation
        wall = time.perf_counter() - t0
        return Outcome(wall, False, f"raised {type(e).__name__}: {e}",
                       start=t0)
    wall = time.perf_counter() - t0
    data = None
    if os.path.exists(op.report_path):
        with open(op.report_path, "rb") as fh:
            data = fh.read()
    reason = check_analysis(op, code, data)
    row = {"template": op.template, "image": op.key(),
           "image_bytes": op.image_bytes, "exit": code}
    digest = None
    if data is not None:
        digest = hashlib.sha256(data).hexdigest()
        row["states"], row["blocks"] = _report_counts(json.loads(data))
    return Outcome(wall, not reason, reason, digest, row, t0)


# ---------------------------------------------------------------------------
# Lifter differential
# ---------------------------------------------------------------------------

STRAIGHT_OPS = [op for op in range(256)
                if op != isa.RESERVED_OPCODE
                and isa.TABLE[op].mnemonic not in isa.CONTROL_FLOW]
ALL_OPS = [op for op in range(256) if op != isa.RESERVED_OPCODE]

DIFF_ROUND = 16                 # 12 straight-line + 4 branchy per round
STRAIGHT_MAX_LEN = 32
STRAIGHT_MAX_STEPS = 10_000
BRANCHY_SIZE = 0x400
BRANCHY_MAX_STEPS = 60


@dataclass
class DiffOp:
    name: str                   # round and position in it
    kind: str                   # straight | branchy
    image: bytes
    iram: bytes
    sfr: bytes
    max_steps: int

    def key(self) -> str:
        return self.name


def _straight(rng: random.Random) -> bytes:
    out = bytearray()
    for _ in range(rng.randrange(1, STRAIGHT_MAX_LEN + 1)):
        op = rng.choice(STRAIGHT_OPS)
        out.append(op)
        out += rng.randbytes(isa.TABLE[op].length - 1)
    return bytes(out)


def _branchy(rng: random.Random) -> bytes:
    """Random instructions with branch targets patched onto instruction
    boundaries, padded with self-jumps so stray control flow stays bounded."""
    body = bytearray()
    bounds = []
    for _ in range(rng.randrange(4, 24)):
        op = rng.choice(ALL_OPS)
        bounds.append(len(body))
        body.append(op)
        body += rng.randbytes(isa.TABLE[op].length - 1)
    img = body + bytes([0x80, 0xFE]) * ((BRANCHY_SIZE - len(body) + 1) // 2)
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


def lifter_differential_round(seed: int, r: int, workdir: str) -> list[DiffOp]:
    rng = _round_rng("lifter-differential", seed, r)
    ops = []
    for i in range(DIFF_ROUND):
        kind = "branchy" if i % 4 == 3 else "straight"
        image = _branchy(rng) if kind == "branchy" else _straight(rng)
        sfr = bytearray(rng.randbytes(128))
        sfr[machine.SP - 0x80] = rng.randrange(0x07, 0x60)
        ops.append(DiffOp(f"r{r:05d}-{i:02d}-{kind}", kind, image,
                          rng.randbytes(256), bytes(sfr),
                          BRANCHY_MAX_STEPS if kind == "branchy"
                          else STRAIGHT_MAX_STEPS))
    return ops


def _state(op: DiffOp) -> machine.ConcreteState:
    return machine.ConcreteState(iram=bytearray(op.iram),
                                 sfr=bytearray(op.sfr))


def run_differential(op: DiffOp) -> Outcome:
    """Interpreter (reference) and lifted IR from the same state; the final
    states must agree bit for bit."""
    ref = _state(op)
    got = _state(op)
    image = op.image
    t0 = time.perf_counter()
    steps = 0
    try:
        while steps < op.max_steps and ref.pc < len(image):
            machine.step_concrete(ref, image)
            steps += 1
    except machine.StackOverflow:
        # The reference rejects this input; there is nothing to compare.
        return Outcome(time.perf_counter() - t0, True, "",
                       row={"skipped": 1}, start=t0)
    except isa.IsaError:
        pass
    program = lifter.lift_program(image)
    ran = lifter.run_lifted(program, got, steps)
    wall = time.perf_counter() - t0
    same = (ran == steps and ref.pc == got.pc and ref.iram == got.iram
            and ref.sfr == got.sfr and ref.xram == got.xram)
    return Outcome(wall, same, "" if same else f"{op.kind} state mismatch",
                   start=t0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object          # (seed, r, workdir) -> ops, or None when
                                # the workload has no more inputs
    run_op: object              # op -> Outcome
    trace_rounds: int           # size of the traced sample, in rounds


WORKLOADS = {
    "vet-default": Workload("vet-default", vet_default_round, run_analysis, 1),
    "identity-triage": Workload("identity-triage", identity_triage_round,
                                run_analysis, 2),
    "lifter-differential": Workload("lifter-differential",
                                    lifter_differential_round,
                                    run_differential, 128),
}
