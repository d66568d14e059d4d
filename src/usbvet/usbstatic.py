"""Domain-informed static analysis over raw firmware images.

Four layers: byte-signature scanning for USB descriptors, cross-reference
discovery (code that reads a descriptor through DPTR), an under-approximate
constant-address propagation over the disassembly (worklist, each site
updated at most twice), and the EP0/target inference built on top of it:
device- and configuration-descriptor copies vote for the EP0 buffer, and a
store that moves function-specific data (e.g. an HID report descriptor) into
that buffer is a target instruction. EP0 votes are cast once, and target
stores are found for every claimed class from the same votes.

`prop_const_mem` returns the image's static facts as one `PropMap`: the
instructions in address order, the read/write summary of each, and the
propagated tuples M. An analysis builds it once from the reachable
instructions; EP0 inference, Query 2's endpoint targets and its counter
detection all read that one map.

The propagation runs at the instruction level. Arithmetic does not
propagate tuples, register banking is assumed to stay on bank 0, and calls
are followed both into the callee and across (call-returns assumption); all
three keep the analysis an under-approximation, which is the contract the
emitting queries rely on.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from . import isa, machine

# ---------------------------------------------------------------------------
# Signature patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignaturePattern:
    name: str
    pattern: tuple  # byte values; None matches anything

    def __len__(self):
        return len(self.pattern)


DEVICE_DESC = SignaturePattern("DEVICE_DESC", (0x12, 0x01, 0x00, None, 0x00))
CONFIG_DESC = SignaturePattern("CONFIG_DESC",
                               (0x09, 0x02, None, None, None, 0x01, 0x00))
HID_REPORT = SignaturePattern("HID_REPORT", (0x05, 0x01, 0x09, 0x06, 0xA1))
MASS_STORAGE_CBW = SignaturePattern("MASS_STORAGE_CBW", (0x55, 0x53, 0x42, 0x43))

DEFAULT_SIGNATURES = (DEVICE_DESC, CONFIG_DESC, HID_REPORT, MASS_STORAGE_CBW)

# Function-specific evidence per claimed class (extensible via signature files).
CLASS_FUNCSPEC = {
    "hid": ("HID_REPORT",),
    "mass-storage": ("MASS_STORAGE_CBW",),
}


def parse_signature_file(text: str) -> list[SignaturePattern]:
    """One pattern per line: `NAME: 12 01 00 ?? 00` (hex bytes, ?? wildcard)."""
    out = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(\w+)\s*:\s*(.+)$", line)
        if not m:
            raise ValueError(f"signature file line {line_no}: {raw!r}")
        pat = []
        for c in m.group(2).split():
            if c == "??":
                pat.append(None)
            elif re.fullmatch(r"[0-9A-Fa-f]{1,2}", c):
                pat.append(int(c, 16))
            else:
                raise ValueError(f"signature file line {line_no}: cell {c!r} "
                                 f"is not a hex byte or ??")
        out.append(SignaturePattern(m.group(1), tuple(pat)))
    return out


@dataclass
class DescriptorHit:
    name: str
    addr: int
    matched: bytes
    xrefs: list[int] = field(default_factory=list)


@lru_cache(maxsize=64)
def _regex(pattern: tuple) -> re.Pattern:
    """One compiled bytes regex per pattern; a wildcard matches any byte."""
    return re.compile(b"".join(b"." if b is None else re.escape(bytes((b,)))
                               for b in pattern), re.DOTALL)


def scan_signatures(image: bytes, patterns=DEFAULT_SIGNATURES) -> list[DescriptorHit]:
    """All non-overlapping matches per pattern, ascending address."""
    hits = [DescriptorHit(pat.name, m.start(), m.group())
            for pat in patterns for m in _regex(pat.pattern).finditer(image)]
    hits.sort(key=lambda h: (h.addr, h.name))
    return hits


def descriptor_extent(image: bytes, hit: DescriptorHit) -> int:
    """Plausible byte length of the matched descriptor."""
    if hit.name == "DEVICE_DESC":
        return 18
    if hit.name == "CONFIG_DESC" and hit.addr + 4 <= len(image):
        total = image[hit.addr + 2] | (image[hit.addr + 3] << 8)
        if 9 <= total <= 0x400:
            return total
        return 9
    return 64  # report descriptors and tags: fixed window


# ---------------------------------------------------------------------------
# Cross references
# ---------------------------------------------------------------------------

_XREF_SCAN_LIMIT = 32  # instructions examined after a DPTR load
_MOV_DPTR_IMM = 0x90   # MOV DPTR,#imm16, the only constant load of DPTR


def _feeds_code_read(load: isa.Instruction, following) -> bool:
    """Whether the DPTR load `load` is an XREF, given the linear-sweep
    instructions after it (read lazily, at most _XREF_SCAN_LIMIT): a CODE
    read comes before any control flow or DPTR re-target in the same block.
    Accepts when the sweep loses alignment or the look-ahead runs out
    (conservative linear-sweep behavior)."""
    expect = load.addr + load.length
    for nxt in islice(following, _XREF_SCAN_LIMIT):
        if nxt.addr != expect:
            return True  # sweep lost alignment: be conservative
        if nxt.mnemonic == "MOVC" or nxt.mnemonic == "JMP":
            return True
        if nxt.mnemonic in isa.CONTROL_FLOW:
            return False
        if nxt.opcode == _MOV_DPTR_IMM:
            return False  # DPTR re-targeted before any CODE read
        expect = nxt.addr + nxt.length
    return True


def find_xrefs(instrs: list[isa.Instruction], target: int,
               range_len: int = 1) -> list[int]:
    """Addresses of linear-sweep instructions loading DPTR with a constant
    inside [target, target+range_len) that feed a CODE read downstream in the
    same block (`_feeds_code_read`)."""
    return [ins.addr for idx, ins in enumerate(instrs)
            if ins.opcode == _MOV_DPTR_IMM
            and target <= ins.operands[1].value < target + range_len
            and _feeds_code_read(ins, islice(instrs, idx + 1, None))]


def scan_with_xrefs(image: bytes, patterns=DEFAULT_SIGNATURES) -> list[DescriptorHit]:
    """Signature hits, each with its XREFs. One alignment walk finds the
    sweep's DPTR loads; only those aimed into some hit's extent, and the
    instructions the XREF rule reads after them, are decoded."""
    hits = scan_signatures(image, patterns)
    starts, _ = isa.sweep_alignment(image, 0)
    loads = [(idx, image[pos + 1] << 8 | image[pos + 2])
             for idx, pos in enumerate(starts) if image[pos] == _MOV_DPTR_IMM]
    for h in hits:
        lo = h.addr
        hi = lo + descriptor_extent(image, h)
        for idx, imm in loads:
            if lo <= imm < hi:
                following = (isa.decode(image, pos)
                             for pos in islice(starts, idx + 1, None))
                if _feeds_code_read(isa.decode(image, starts[idx]), following):
                    h.xrefs.append(starts[idx])
    return hits


def reachable_instructions(image: bytes,
                           entries=None) -> list[isa.Instruction]:
    """Recursive-descent decoding from the reset vector and interrupt
    vectors: the instructions static control flow can actually reach.
    Keeps data tables from decoding into phantom code the flow analyses
    would otherwise chew on."""
    if entries is None:
        entries = [0] + [vec for vec, _bit in
                         (machine.INT_SOURCES[s] for s in machine.INT_SOURCES)
                         if vec < len(image)]
    seen: dict[int, isa.Instruction] = {}
    work = list(entries)
    while work:
        addr = work.pop()
        if addr in seen or addr >= len(image):
            continue
        try:
            ins = isa.decode(image, addr)
        except isa.IsaError:
            continue
        seen[addr] = ins
        work.extend(_successors(ins))
    return [seen[a] for a in sorted(seen)]


# ---------------------------------------------------------------------------
# Constant-address propagation (worklist, visit bound of two per site)
# ---------------------------------------------------------------------------

# Locations are ('sfr', a) / ('iram', a); register bank 0 is assumed.
ACC = ("sfr", 0xE0)
B_REG = ("sfr", 0xF0)
PSW = ("sfr", 0xD0)
SP = ("sfr", 0x81)
DPL = ("sfr", 0x82)
DPH = ("sfr", 0x83)
DPTR_LOCS = (DPL, DPH)


def is_register(loc) -> bool:
    """Memory-mapped registers: every SFR plus the four register banks."""
    space, addr = loc
    if space == "sfr":
        return True
    return addr < 0x20


def _direct_loc(addr: int):
    return ("sfr", addr) if addr >= 0x80 else ("iram", addr)


def _reg_loc(n: int):
    return ("iram", n)


BOT = (None, None)


@dataclass
class _Use:
    site: int
    kind: str  # 'value' | 'addr-load' | 'addr-store'


class _Summary:
    """Static read/write/flow facts for one instruction."""

    __slots__ = ("reads_value", "addr_load", "addr_store", "writes",
                 "seed", "copy", "value_dst_reg", "store_class")

    def __init__(self):
        self.reads_value: tuple = ()
        self.addr_load: tuple = ()    # locations used as a load address
        self.addr_store: tuple = ()   # locations used as a store address
        self.writes: tuple = ()
        self.seed = None              # (value, width) for const-to-register
        self.copy = False             # value flows src -> dst unchanged
        self.value_dst_reg = None     # register location receiving the value
        self.store_class = False      # writes non-register memory


def _summarize(ins: isa.Instruction) -> _Summary:
    s = _Summary()
    m = ins.mnemonic
    ops = ins.operands
    K = isa.OpKind

    def loc_of(op):
        if op.kind is K.ACC:
            return ACC
        if op.kind is K.REG:
            return _reg_loc(op.value)
        if op.kind is K.DIRECT:
            return _direct_loc(op.value)
        return None

    if m == "MOV":
        k0 = ops[0].kind
        if k0 is K.DPTR:
            s.writes = DPTR_LOCS
            s.seed = (ops[1].value, 16)
            return s
        if k0 in (K.CARRY, K.BIT):
            s.writes = (PSW,) if k0 is K.CARRY else ()
            return s
        dst = loc_of(ops[0])
        src_op = ops[1]
        if src_op.kind in (K.IMM8, K.IMM16):
            if dst is not None:
                s.writes = (dst,)
                if is_register(dst):
                    s.seed = (src_op.value, 8)
                else:
                    s.store_class = True
            elif ops[0].kind is K.INDIRECT:
                s.addr_store = (_reg_loc(ops[0].value),)
                s.store_class = True
            return s
        # register/memory move
        s.copy = True
        if src_op.kind is K.INDIRECT:
            s.addr_load = (_reg_loc(src_op.value),)
        else:
            src = loc_of(src_op)
            if src is not None:
                s.reads_value = (src,)
        if ops[0].kind is K.INDIRECT:
            s.addr_store = (_reg_loc(ops[0].value),)
            s.store_class = True
        elif dst is not None:
            s.writes = (dst,)
            if is_register(dst):
                s.value_dst_reg = dst
            else:
                s.store_class = True
        return s
    if m == "MOVC":
        s.copy = True
        s.writes = (ACC,)
        s.value_dst_reg = ACC
        if ops[1].kind is K.CODE_DPTR:
            s.addr_load = DPTR_LOCS  # ACC is the index, DPTR the base
        return s
    if m == "MOVX":
        s.copy = True
        if ops[0].kind is K.ACC:
            s.writes = (ACC,)
            s.value_dst_reg = ACC
            src = ops[1]
            s.addr_load = DPTR_LOCS if src.kind is K.IND_DPTR else (
                _reg_loc(src.value),)
        else:
            dst = ops[0]
            s.addr_store = DPTR_LOCS if dst.kind is K.IND_DPTR else (
                _reg_loc(dst.value),)
            s.reads_value = (ACC,)
            s.store_class = True
        return s
    # arithmetic and the rest: record writes (kills) only, no propagation
    if m in ("ADD", "ADDC", "SUBB", "RL", "RLC", "RR", "RRC", "SWAP", "CPL",
             "CLR", "DA"):
        if ops and ops[0].kind is K.ACC:
            s.writes = (ACC, PSW)
        return s
    if m in ("ANL", "ORL", "XRL"):
        dst = loc_of(ops[0]) if ops else None
        s.writes = (dst, PSW) if dst else (PSW,)
        return s
    if m in ("INC", "DEC", "DJNZ"):
        dst = loc_of(ops[0]) if ops else None
        if ops and ops[0].kind is K.DPTR:
            s.writes = DPTR_LOCS
        elif dst:
            s.writes = (dst,)
        return s
    if m in ("MUL", "DIV"):
        s.writes = (ACC, B_REG, PSW)
        return s
    if m in ("XCH", "XCHD"):
        other = loc_of(ops[1]) if len(ops) > 1 else None
        s.writes = (ACC, other) if other else (ACC,)
        return s
    if m == "POP":
        dst = loc_of(ops[0])
        s.writes = (dst, SP) if dst else (SP,)
        return s
    if m == "PUSH":
        s.writes = (SP,)
        return s
    if m in ("LCALL", "ACALL"):
        s.writes = (SP,)
        return s
    return s


def _successors(ins: isa.Instruction) -> list[int]:
    m = ins.mnemonic
    nxt = ins.addr + ins.length
    if m in ("LJMP", "AJMP", "SJMP"):
        return [ins.operands[0].value]
    if m in ("RET", "RETI", "JMP"):
        return []
    if m in ("LCALL", "ACALL"):
        # follow into the callee and across it (call-returns assumption)
        return [ins.operands[0].value, nxt]
    if m in isa.CONTROL_FLOW:  # conditional family
        target = ins.operands[-1].value
        return [target, nxt]
    return [nxt]


class PropMap:
    """The static facts of one instruction set: the instructions in address
    order, `by_addr`, the `_Summary` of each, and M: (site, 'src'|'dst') ->
    (value, tracked address); absent means (bot,bot)."""

    def __init__(self, instrs: list[isa.Instruction]):
        self.instrs = sorted(instrs, key=lambda i: i.addr)
        self.by_addr = {i.addr: i for i in self.instrs}
        self.summaries = {a: _summarize(i) for a, i in self.by_addr.items()}
        self.m: dict[tuple[int, str], tuple] = {}

    def get(self, site: int, role: str) -> tuple:
        return self.m.get((site, role), BOT)

    def set(self, site: int, role: str, tup: tuple):
        self.m[(site, role)] = tup


def prop_const_mem(instrs: list[isa.Instruction]) -> PropMap:
    """Worklist propagation of constant values / tracked addresses.

    Seeds are stores of constants into memory-mapped registers. A value
    tuple consumed as an indirect address converts to a tracked address;
    loads and register-to-register copies carry tuples through; stores to
    non-register memory record roles but stop propagation. The defined-role
    guard bounds updates to at most two per site.
    """
    M = PropMap(instrs)
    by_addr, summaries = M.by_addr, M.summaries
    wl: deque[int] = deque()
    for ins in M.instrs:
        sm = summaries[ins.addr]
        if sm.seed is not None:
            M.set(ins.addr, "dst", (sm.seed[0], None))
            wl.append(ins.addr)

    def uses_of(site: int) -> list[_Use]:
        tracked = set(summaries[site].writes)
        if not tracked:
            return []
        uses: list[_Use] = []
        seen = {site: frozenset(tracked)}
        queue = deque((succ, frozenset(tracked))
                      for succ in _successors(by_addr[site]))
        while queue:
            addr, live = queue.popleft()
            ins = by_addr.get(addr)
            if ins is None:
                continue
            prev = seen.get(addr)
            if prev is not None and live <= prev:
                continue
            seen[addr] = (prev or frozenset()) | live
            sm = summaries[addr]
            if live & set(sm.reads_value):
                uses.append(_Use(addr, "value"))
            if live & set(sm.addr_load):
                uses.append(_Use(addr, "addr-load"))
            if live & set(sm.addr_store):
                uses.append(_Use(addr, "addr-store"))
            live = live - set(sm.writes)
            if live:
                for succ in _successors(ins):
                    queue.append((succ, live))
        return uses

    while wl:
        site = wl.popleft()
        tup = M.get(site, "dst")
        if tup == BOT:
            continue
        for use in uses_of(site):
            j = use.site
            sm = summaries[j]
            srcdef = M.get(j, "src") != BOT
            dstdef = M.get(j, "dst") != BOT
            # defined-role guard: a store may be visited twice (src and dst
            # roles), anything else once; a revisit overwrites the role
            if sm.store_class:
                if srcdef and dstdef:
                    continue
            elif srcdef or dstdef:
                continue
            if use.kind == "value":
                M.set(j, "src", tup)
                if sm.value_dst_reg is not None:
                    M.set(j, "dst", tup)  # copy-through into a register
            elif use.kind == "addr-load":
                if tup[0] is None:
                    continue  # only a known value can become an address
                conv = (None, tup[0])
                M.set(j, "src", conv)
                if sm.value_dst_reg is not None:
                    M.set(j, "dst", conv)
            else:  # addr-store
                if tup[0] is None:
                    continue
                M.set(j, "dst", (None, tup[0]))
            if not sm.store_class:
                wl.append(j)
    return M


# ---------------------------------------------------------------------------
# EP0 / target inference
# ---------------------------------------------------------------------------


class NoDescriptors(Exception):
    pass


@dataclass
class Ep0Inference:
    ep0_1: set[int]
    ep0_2: set[int]
    ep0: set[int]
    target_sites: dict[str, list[int]]  # per CLASS_FUNCSPEC class


def _in_ranges(value, image, hits) -> bool:
    if value is None:
        return False
    for h in hits:
        if h.addr <= value < h.addr + descriptor_extent(image, h):
            return True
    return False


def find_devspec_to_ep0(image: bytes, M: PropMap, hits) -> Ep0Inference:
    """Candidate EP0 buffer addresses, voted once from the image's signature
    `hits` and static facts `M`, and per CLASS_FUNCSPEC class the stores
    that copy that class's function-specific data into them."""
    cand_dd = [h for h in hits if h.name == "DEVICE_DESC"]
    cand_cd = [h for h in hits if h.name == "CONFIG_DESC"]
    if not cand_dd or not cand_cd:
        raise NoDescriptors(
            f"device={len(cand_dd)} config={len(cand_cd)} candidates")
    stores = [(ins.addr, M.get(ins.addr, "src")[1], M.get(ins.addr, "dst")[1])
              for ins in M.instrs if M.summaries[ins.addr].store_class]
    ep0_1: set[int] = set()
    ep0_2: set[int] = set()
    for _site, src_tracked, dst_tracked in stores:
        if dst_tracked is None:
            continue
        if _in_ranges(src_tracked, image, cand_cd):
            ep0_1.add(dst_tracked)
        if _in_ranges(src_tracked, image, cand_dd):
            ep0_2.add(dst_tracked)
    ep0 = ep0_1 & ep0_2
    targets = {}
    for cls, func_names in CLASS_FUNCSPEC.items():
        cand_fs = [h for h in hits if h.name in func_names]
        targets[cls] = [site for site, src_tracked, dst_tracked in stores
                        if dst_tracked in ep0
                        and _in_ranges(src_tracked, image, cand_fs)]
    return Ep0Inference(ep0_1, ep0_2, ep0, targets)
