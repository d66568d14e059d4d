"""Command-line frontend: configuration, the end-to-end analysis pipeline,
and machine-readable reporting.

Pipeline order: signature scan, target computation, symbolic reachability,
claimed-model construction, driver matching / expected-model comparison,
report. Partial failures (no descriptors, no targets, budget exhaustion)
degrade into diagnostics instead of aborting.

`run_pipeline` owns the analysis-wide decisions: it makes the one
`symexec.ImageMemo` of the analysis first, so the static pass and every
exploration decode and lift each block once; it builds the image's static
facts once (`usbstatic.static_facts` over the memo's blocks, whose
reachable instructions the XREF scan also reads), which EP0 inference and
Query 2 share, and which direct Query 1's search under `auto` (`--policy
full` stays the undirected baseline); it solves the preconditions before
discovery (Query 1 solves them again); it builds the one `SymbolicPolicy`
that both queries run under (`--policy full` covers the whole IRAM and
XRAM regions, `auto` the discovered set, which the report's
`query1.policy` names `partial`); and it turns `--time-limit` into one
deadline shared by the static pass and every exploration. A static pass
stopped by it leaves EP0 unknown, no hit with XREFs, and the analysis
incomplete.

A `--config` file mirrors every flag but `--config` and `--timing`; any
other key, or a value of the wrong type, is a usage error. One table,
`_CONFIG_KEYS`, gives those flags and keys, so a flag cannot be parsed
but ignored.

Reports are deterministic for a fixed (image, config incl. seed): volatile
wall-clock timings are kept out of the serialized document unless explicitly
requested. `AnalysisReport.to_json` writes the text of `json.dumps(...,
indent=2, sort_keys=True)` with its own small encoder, which is faster
than json's pure-Python one for indented output.

What does not depend on the image is built once per process, on first
use: the argument parser here, and the default driver rules in `usbdb`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import cache

from . import queries, symexec, usbdb, usbstatic
from .lifter import REGION_SIZE, Region

TOOL_VERSION = "usbvet 0.1.0"

MAX_IMAGE_SIZE = 0x10000
MAX_EP = 15

EXIT_CONSISTENT = 0
EXIT_FLAGGED = 1
EXIT_INCOMPLETE = 2
EXIT_USAGE = 3


class ConfigInvalid(Exception):
    pass


class ImageTooLarge(Exception):
    pass


class IoError(Exception):
    pass


# The values of --expected, --query and --policy.
EXPECTED_CLASSES = tuple(usbdb.EXPECTED_CLASS_SETS)
QUERIES = ("identity", "consistency", "both")
POLICIES = ("full", "auto")


@dataclass
class RunConfig:
    image_path: str
    expected: str = "unknown"            # one of EXPECTED_CLASSES
    query: str = "both"                  # one of QUERIES
    policy: str = "auto"                 # one of POLICIES
    tau: int = 16
    max_ep: int = 4
    seed: int = 0
    time_limit: float | None = None
    state_limit: int = 4096
    preconditions: list[str] = field(default_factory=list)
    signatures_path: str | None = None
    ruledb_path: str | None = None
    report_path: str | None = None
    include_timing: bool = False

    def validate(self):
        if self.expected not in EXPECTED_CLASSES:
            raise ConfigInvalid(f"expected class {self.expected!r}")
        if self.query not in QUERIES:
            raise ConfigInvalid(f"query {self.query!r}")
        if self.policy not in POLICIES:
            raise ConfigInvalid(f"policy {self.policy!r}")
        if self.tau <= 0 or self.max_ep <= 0 or self.state_limit <= 0:
            raise ConfigInvalid("tau, max-ep and state-limit must be positive")
        if self.max_ep > MAX_EP:
            raise ConfigInvalid(f"max-ep {self.max_ep} over {MAX_EP} (USB "
                                f"numbers non-control endpoints 1-{MAX_EP})")
        # the largest float, not inf: a larger JSON integer cannot become
        # a deadline
        if (self.time_limit is not None
                and not 0 <= self.time_limit <= sys.float_info.max):
            raise ConfigInvalid(f"time-limit {self.time_limit} (want a finite "
                                f"number of seconds >= 0)")


def parse_precondition(text: str) -> queries.Precondition:
    """REGION:ADDR:REL:VAL, e.g. XRAM:0x7fe9:==:6. VAL is a byte, or a bit
    number 0-7 for bit-set/bit-clear."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigInvalid(f"precondition {text!r} (want REGION:ADDR:REL:VAL)")
    region, addr_s, rel, val_s = parts
    region = region.upper()
    if region not in Region.__members__:
        raise ConfigInvalid(f"precondition region {parts[0]!r} (want one of "
                            f"{', '.join(Region.__members__)})")
    if rel not in queries.RELATIONS:
        raise ConfigInvalid(f"precondition relation {rel!r}")
    try:
        addr, value = int(addr_s, 0), int(val_s, 0)
    except ValueError as e:
        raise ConfigInvalid(f"precondition {text!r}: {e}") from None
    # a direct address below 0x80 is IRAM, so SFRs start at 0x80
    low = 0x80 if region == "SFR" else 0
    size = REGION_SIZE[Region[region]]
    if not low <= addr < size:
        raise ConfigInvalid(f"precondition address {addr_s} outside {region} "
                            f"({hex(low) if low else 0}-0x{size - 1:x})")
    top = 7 if rel in ("bit-set", "bit-clear") else 0xFF
    if not 0 <= value <= top:
        raise ConfigInvalid(f"precondition value {val_s} outside 0-{top} "
                            f"for {rel}")
    return queries.Precondition(region, addr, rel, value)


@dataclass
class AnalysisReport:
    tool: str
    config: dict
    status: str
    descriptor_hits: list
    ep0_inference: dict
    symbolic_set: dict
    query1: dict | None
    query2: dict | None
    claimed_model: dict
    driver_matches: list
    verdict: dict
    diagnostics: list
    timing: dict | None

    def to_dict(self) -> dict:
        d = dict(vars(self))
        if d["timing"] is None:
            del d["timing"]
        return d

    def to_json(self) -> str:
        """The text of `json.dumps(self.to_dict(), indent=2,
        sort_keys=True)` and a newline, written by `_encode`."""
        out: list[str] = []
        _encode(self.to_dict(), out, "\n")
        out.append("\n")
        return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _scalar(o) -> str | None:
    """json's text of o when o is a string, None, a bool, an int or a
    float, else None. Strings go through json's own C escaper."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return ("NaN" if o != o else "Infinity" if o == _INF
                else "-Infinity" if o == -_INF else float.__repr__(o))
    return None


def _encode(o, out: list, newline: str):
    """Append the text `json.dumps(o, indent=2, sort_keys=True)` gives o
    to out, with `newline` the line break and indent of o's own level.
    json writes an indented document with its pure-Python encoder, so this
    writer is faster. A value or key of a type json refuses raises
    TypeError."""
    text = _scalar(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _encode(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            key = k if isinstance(k, str) else _scalar(k)
            if key is None:
                raise TypeError(f"keys must be str, int, float, bool or "
                                f"None, not {k.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _encode(v, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        f"is not JSON serializable")


def emit_report(text: str, path: str):
    """Write a report's `to_json()` text, which has stable key order for
    diffability."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write report to {path!r}: {e}") from None


def _hx(v: int) -> str:
    return f"0x{v:04x}"


def _exploration_summary(rep) -> dict:
    return {"states_explored": rep.states_explored,
            "blocks_executed": rep.blocks_executed,
            "coverage_instructions": rep.coverage,
            "reason": rep.reason,
            "diagnostics": list(rep.diagnostics)}


def _q1_dict(rep: queries.Query1Report, policy_name: str) -> dict:
    targets = {}
    for t, r in rep.targets.items():
        targets[_hx(t)] = {
            "reached": r.reached,
            "states_explored": r.states_explored,
            "coverage_at_hit": r.coverage_at_hit,
            "path_condition": r.path,
            "witness": {k: v for k, v in r.witness.items()},
            "usb_constraints": [{"location": n.location, "value": n.value,
                                 "meaning": n.meaning}
                                for n in r.usb_constraints],
        }
    return {"policy": policy_name, "targets": targets,
            **_exploration_summary(rep)}


def _q2_dict(rep: queries.Query2Report) -> dict:
    return {
        "kind": rep.kind,
        "flagged": [{"site": _hx(f.site), "write_addr": _hx(f.write_addr),
                     "values": f.values, "label": f.label}
                    for f in rep.flagged],
        "counters": [[r, _hx(a)] for r, a in rep.counters],
        "ranked": [{"write_addr": _hx(r.write_addr),
                    "writers": [_hx(w) for w in r.writers],
                    "symbolic_sources": r.symbolic_sources,
                    "concrete_values": r.concrete_values,
                    "score": r.score}
                   for r in rep.ranked],
        **_exploration_summary(rep),
    }


# The class whose function-specific evidence is a stand-in: the bulk-only
# CBW tag, which firmware never copies to EP0, so its hits have no target
# site to find.
_STAND_IN_CLASS = "mass-storage"


def _unplaced_hits(hits, ep0: set[int], target_sites: dict) -> list[str]:
    """A verdict warning per signature hit whose claim Query 1 cannot check:
    every hit when EP0 is unknown, else each function-specific hit
    (`usbstatic.CLASS_FUNCSPEC`) whose class has no target site. Hits of
    _STAND_IN_CLASS are exempt."""
    class_of = {name: cls for cls, names in usbstatic.CLASS_FUNCSPEC.items()
                for name in names}
    out = []
    for h in hits:
        cls = class_of.get(h.name)
        if cls == _STAND_IN_CLASS:
            continue
        if not ep0:
            out.append(f"{h.name} at {_hx(h.addr)} is unplaced: EP0 is "
                       f"unknown, so no target site serves it")
        elif cls is not None and not target_sites[cls]:
            out.append(f"{h.name} at {_hx(h.addr)} is unplaced: no target "
                       f"site copies {cls} data to EP0")
    return out


def _budget_ended_discoveries(symset: queries.SymbolicLocationSet,
                              tau: int) -> list[str]:
    """A verdict warning per interrupt source whose symbolic-set discovery
    a budget ended (`SymbolicLocationSet.budget_ends`): a byte its handler
    reads may still be concrete, so data from it can read as a constant."""
    flag = {"tau": f"--tau {tau}"}
    return [f"symbolic set partial: {src}'s discovery stopped at "
            f"{flag.get(budget, budget)}, so a byte it reads may stay "
            f"concrete" for src, budget in symset.budget_ends()]


def run_pipeline(config: RunConfig) -> tuple[AnalysisReport, int]:
    config.validate()
    try:
        with open(config.image_path, "rb") as fh:
            image = fh.read()
    except OSError as e:
        raise IoError(f"cannot read image {config.image_path!r}: {e}") from None
    if len(image) > MAX_IMAGE_SIZE:
        raise ImageTooLarge(f"{len(image)} bytes > {MAX_IMAGE_SIZE}")

    diagnostics: list[str] = []
    preconditions = [parse_precondition(p) for p in config.preconditions]
    patterns = usbstatic.DEFAULT_SIGNATURES
    if config.signatures_path:
        try:
            with open(config.signatures_path) as fh:
                patterns = tuple(usbstatic.parse_signature_file(fh.read()))
        except OSError as e:
            raise IoError(f"cannot read signatures: {e}") from None
        except ValueError as e:
            raise ConfigInvalid(f"signatures file: {e}") from None
    rules = None
    if config.ruledb_path:
        try:
            with open(config.ruledb_path) as fh:
                rules = usbdb.load_rules(fh.read())
        except OSError as e:
            raise IoError(f"cannot read rule db: {e}") from None
        except ValueError as e:
            raise ConfigInvalid(f"rule db: {e}") from None

    base_cfg = symexec.ExplorationConfig(
        max_states=config.state_limit,
        deadline=(None if config.time_limit is None
                  else time.monotonic() + config.time_limit),
        seed=config.seed)

    # Every exploration of this analysis, and the static pass before them,
    # shares one memo of the image's pure work: its lifted blocks and the
    # solver's tables. It is dropped when the analysis returns.
    memo = symexec.ImageMemo(image)

    # 1. the static pass: the image's static facts, built once from the
    # memo's lifted blocks. Past the deadline it leaves EP0 unknown, and
    # the analysis is incomplete.
    no_ep0: Exception | None = None
    try:
        M = usbstatic.static_facts(memo.program, base_cfg.deadline)
    except usbstatic.StaticTimeLimit as e:
        no_ep0 = e
        M = usbstatic.PropMap([])

    # and the signature scan, with XREFs among the reachable instructions
    hits = usbstatic.scan_with_xrefs(image, M.instrs, patterns)
    hit_rows = [{"name": h.name, "addr": _hx(h.addr),
                 "bytes": h.matched.hex(),
                 "xrefs": [_hx(x) for x in h.xrefs]} for h in hits]

    # 2. EP0 votes and the target sites of every hunted class
    classes: dict = {}
    ep0_info: dict = {"classes": classes}
    targets: set[int] = set()
    target_sites: dict[str, list[int]] = {}
    ep0: set[int] = set()
    if no_ep0 is None:
        try:
            inf = usbstatic.find_devspec_to_ep0(image, M, hits)
        except usbstatic.NoDescriptors as e:
            no_ep0 = e
    if no_ep0 is not None:
        name = type(no_ep0).__name__
        for cls in usbstatic.CLASS_FUNCSPEC:
            diagnostics.append(f"{name}[{cls}]: {no_ep0}")
            classes[cls] = {"error": name}
    else:
        ep0, target_sites = inf.ep0, inf.target_sites
        for cls, sites in target_sites.items():
            classes[cls] = {
                "ep0": sorted(_hx(a) for a in inf.ep0),
                "ep0_config_votes": sorted(_hx(a) for a in inf.ep0_1),
                "ep0_device_votes": sorted(_hx(a) for a in inf.ep0_2),
                "target_sites": [_hx(t) for t in sites],
            }
            targets.update(sites)
        classes[_STAND_IN_CLASS]["note"] = (
            "mass-storage evidence uses the bulk-only CBW tag signature "
            "as a stand-in for class-specific descriptor data")
    asks_identity = config.query in ("identity", "both")
    unplaced = _unplaced_hits(hits, ep0, target_sites) if asks_identity else []

    # Precondition satisfiability needs no policy: every policy names a
    # byte's variable by region and address. So it is checked before
    # discovery; Query 1 checks that its policy covers each byte.
    run_query1 = asks_identity and bool(targets)
    if run_query1:
        queries.check_preconditions(preconditions, base_cfg)

    # 3a. the symbolic policy of both queries: the whole IRAM and XRAM
    # regions, or the symbolic set (Alg. 3) for auto, a partial policy
    if config.policy == "full":
        symset = queries.SymbolicLocationSet(set(), [])
        policy_name, policy = "full", symexec.SymbolicPolicy.full()
    else:
        symset = queries.find_symbolic_locations(image, tau=config.tau,
                                                 config=base_cfg, memo=memo)
        policy_name = "partial"
        policy = symexec.SymbolicPolicy(symset.locations)
    sym_dict = {
        "locations": [[r, _hx(a)] for r, a in symset.names()],
        "iterations": [{"source": rec.source, "iteration": rec.iteration,
                        "added": list(rec.added) if rec.added else None,
                        "reason": rec.reason,
                        **({"duration_s": round(rec.duration, 3)}
                           if config.include_timing else {})}
                       for rec in symset.log],
    }

    # 3b. Query 1 (identity reachability), directed by the static facts
    # under auto; `full` stays the undirected baseline
    q1 = None
    q1_dict = None
    if run_query1:
        q1 = queries.query1(image, sorted(targets), policy,
                            preconditions=preconditions, config=base_cfg,
                            memo=memo,
                            M=M if config.policy == "auto" else None)
        q1_dict = _q1_dict(q1, policy_name)
    elif asks_identity:
        diagnostics.append("no target instructions: identity query skipped")

    # 3c. Query 2 (consistency): both detectors watch one exploration
    q2_dict = None
    rep4 = rep5 = None
    if config.query in ("consistency", "both"):
        rep4, rep5 = queries.query2(image, ep0, policy, M=M,
                                    max_ep=config.max_ep, config=base_cfg,
                                    memo=memo)
        q2_dict = {"inconsistent_flow": _q2_dict(rep5)}
        if rep4 is not None:
            q2_dict["unexpected_flow"] = _q2_dict(rep4)
        else:
            diagnostics.append("EP0 unknown: unexpected-flow query skipped")

    # 4. claimed model from descriptors + reachability evidence
    claimed_ifaces: list[usbdb.ClaimedInterface] = []
    device = None
    cfg_desc = None
    for h in hits:
        if h.name == "DEVICE_DESC" and device is None:
            try:
                device = usbdb.parse_device_descriptor(image[h.addr:])
            except usbdb.MalformedDescriptor as e:
                diagnostics.append(f"device descriptor at {_hx(h.addr)}: {e}")
        elif h.name == "CONFIG_DESC" and cfg_desc is None:
            try:
                cfg_desc = usbdb.parse_configuration(image[h.addr:])
            except usbdb.MalformedDescriptor as e:
                diagnostics.append(f"config descriptor at {_hx(h.addr)}: {e}")
    if cfg_desc is not None:
        for iface in cfg_desc.interfaces:
            claimed_ifaces.append(usbdb.ClaimedInterface(
                iface.bInterfaceClass, iface.bInterfaceSubClass,
                iface.bInterfaceProtocol, confirmed=True,
                evidence="configuration descriptor"))
    hid_targets = target_sites.get("hid", [])
    hid_reached = [t for t in hid_targets
                   if q1 is not None and q1.targets[t].reached]
    hid_static = bool(hid_targets) and q1 is None
    claims_hid = any(i.cls == usbdb.USB_CLASS_HID for i in claimed_ifaces)
    if hid_reached and not claims_hid:
        claimed_ifaces.append(usbdb.ClaimedInterface(
            usbdb.USB_CLASS_HID, 0, 0, confirmed=True,
            evidence=f"HID report copy at {_hx(hid_reached[0])} reached"))
    elif hid_static and not claims_hid:
        claimed_ifaces.append(usbdb.ClaimedInterface(
            usbdb.USB_CLASS_HID, 0, 0, confirmed=False,
            evidence="HID report target present (reachability not run)"))
    endpoints = []
    if cfg_desc is not None:
        for iface in cfg_desc.interfaces:
            for ep in iface.endpoints:
                endpoints.append({"address": f"0x{ep.bEndpointAddress:02x}",
                                  "type": ep.transfer_type,
                                  "direction": "in" if ep.direction_in else "out",
                                  "max_packet": ep.wMaxPacketSize})
    drivers = []
    if device is not None:
        drivers = usbdb.match_drivers(device,
                                      cfg_desc.interfaces if cfg_desc else [],
                                      rules)
    model = usbdb.ClaimedModel(
        device.bDeviceClass if device else None,
        device.bDeviceProtocol if device else None,
        claimed_ifaces, endpoints)

    # 5. comparison against the expected model
    verdict = usbdb.compare_models(model, config.expected)
    behavior_flagged = False
    flagged_sites: list[str] = []
    if rep4 is not None:
        real = [f for f in rep4.flagged if f.label is None]
        if real:
            behavior_flagged = True
            flagged_sites.extend(sorted({_hx(f.site) for f in real}))
    if rep5 is not None and rep5.ranked and rep5.ranked[0].score >= 2:
        behavior_flagged = True
        flagged_sites.extend(_hx(w) for w in rep5.ranked[0].writers)

    status = "completed"
    if not hits:
        status = "completed-with-findings-none"
    identity = "consistent" if verdict.consistent else "anomalous"
    verdict_dict = {
        "identity": identity,
        "behavior": "flagged" if behavior_flagged else "clean",
        "reasons": verdict.reasons,
        "warnings": (verdict.warnings + unplaced
                     + _budget_ended_discoveries(symset, config.tau)),
        "flagged_sites": sorted(set(flagged_sites)),
    }

    timing = None
    if config.include_timing:
        timing = {}
        if q1 is not None:
            timing["query1_s"] = round(q1.wall_time, 3)
        if rep5 is not None:
            timing["query2_s"] = round(rep5.wall_time, 3)

    report = AnalysisReport(
        tool=TOOL_VERSION,
        config={"image": config.image_path, "expected": config.expected,
                "query": config.query, "policy": config.policy,
                "tau": config.tau, "max_ep": config.max_ep,
                "seed": config.seed, "state_limit": config.state_limit,
                "time_limit": config.time_limit,
                "preconditions": list(config.preconditions),
                "cooldown_blocks": [base_cfg.cooldown_min,
                                    base_cfg.cooldown_max],
                "block_repeat_threshold": base_cfg.block_repeat_threshold,
                "indirect_fanout": base_cfg.max_indirect_fanout},
        status=status,
        descriptor_hits=hit_rows,
        ep0_inference=ep0_info,
        symbolic_set=sym_dict,
        query1=q1_dict,
        query2=q2_dict,
        claimed_model={
            "device_class": model.device_class,
            "device_protocol": model.device_protocol,
            "interfaces": [{"class": i.cls, "subclass": i.subclass,
                            "protocol": i.protocol, "confirmed": i.confirmed,
                            "evidence": i.evidence}
                           for i in model.interfaces],
            "endpoints": model.endpoints,
        },
        driver_matches=[{"rule": form, "driver": drv}
                        for form, drv in drivers],
        verdict=verdict_dict,
        diagnostics=diagnostics,
        timing=timing,
    )
    if not verdict.consistent or behavior_flagged:
        exit_code = EXIT_FLAGGED
    elif (unplaced or isinstance(no_ep0, usbstatic.StaticTimeLimit)
          or q1 is not None and not q1.any_reached):
        exit_code = EXIT_INCOMPLETE
    else:
        exit_code = EXIT_CONSISTENT
    return report, exit_code


class _Parser(argparse.ArgumentParser):
    """Raises ConfigInvalid on a malformed command line, where argparse
    would print the usage and exit 2, the code of EXIT_INCOMPLETE."""

    def error(self, message):
        raise ConfigInvalid(message)


# Every value flag of `analyze`, one row each: JSON key and flag dest ->
# (flag, RunConfig attribute, accepted JSON value types, argparse options).
# The parser adds the flags from these rows, and `config_from_args` reads
# the file's keys and the flags through them.
_CONFIG_KEYS = {
    "expected": ("--expected", "expected", str,
                 {"choices": EXPECTED_CLASSES}),
    "query": ("--query", "query", str, {"choices": QUERIES}),
    "policy": ("--policy", "policy", str, {"choices": POLICIES}),
    "tau": ("--tau", "tau", int, {"type": int}),
    "max_ep": ("--max-ep", "max_ep", int, {"type": int}),
    "seed": ("--seed", "seed", int, {"type": int}),
    "state_limit": ("--state-limit", "state_limit", int, {"type": int}),
    "time_limit": ("--time-limit", "time_limit", (int, float, type(None)),
                   {"type": float}),
    "preconditions": ("--precondition", "preconditions", list,
                      {"action": "append", "metavar": "REGION:ADDR:REL:VAL"}),
    "signatures": ("--signatures", "signatures_path", (str, type(None)),
                   {"metavar": "FILE"}),
    "ruledb": ("--ruledb", "ruledb_path", (str, type(None)),
               {"metavar": "FILE"}),
    "report": ("--report", "report_path", (str, type(None)),
               {"metavar": "OUT"}),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared by
    every later one: parsing reads it and changes nothing in it."""
    ap = _Parser(
        prog="usbvet",
        description="Semantic queries over raw 8051 USB controller firmware")
    sub = ap.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the full analysis pipeline")
    an.add_argument("image", help="flat firmware image (<= 64 KiB)")
    for key, (flag, _attr, _types, options) in _CONFIG_KEYS.items():
        an.add_argument(flag, dest=key, default=None, **options)
    an.add_argument("--config", default=None, metavar="FILE",
                    help="JSON config mirroring the flags; flags override it")
    an.add_argument("--timing", action="store_true",
                    help="include wall-clock timings in the report "
                         "(breaks byte-determinism)")
    return ap


def config_from_args(args) -> RunConfig:
    cfg = RunConfig(image_path=args.image)
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as e:
            raise IoError(f"cannot read config: {e}") from None
        except ValueError as e:  # bad JSON or UTF-8, or an overlong integer
            raise ConfigInvalid(f"config file: {e}") from None
        if not isinstance(data, dict):
            raise ConfigInvalid("config file: want a JSON object, not "
                                f"{type(data).__name__}")
        for key, value in data.items():
            if key not in _CONFIG_KEYS:
                raise ConfigInvalid(f"config file: {key!r} is not a key (the "
                                    f"keys are {', '.join(_CONFIG_KEYS)})")
            _flag, attr, types, _options = _CONFIG_KEYS[key]
            # bool is an int subclass, but no key takes true/false
            if (isinstance(value, bool) or not isinstance(value, types)
                    or isinstance(value, list)
                    and not all(isinstance(p, str) for p in value)):
                raise ConfigInvalid(f"config file: {key!r} has the wrong "
                                    f"type: {json.dumps(value)}")
            setattr(cfg, attr, value)
    for key, (_flag, attr, _types, _options) in _CONFIG_KEYS.items():
        value = getattr(args, key)
        if value is not None:  # a flag overrides the file
            setattr(cfg, attr, value)
    cfg.include_timing = args.timing
    return cfg


def main(argv=None) -> int:
    """Run `usbvet analyze`; returns the exit code. A fault inside usbvet
    (any other Exception) is one `error: internal error:` line and exit 2:
    no verdict was reached, and exit 1 would read as one."""
    try:
        cfg = config_from_args(_build_parser().parse_args(argv))
        report, code = run_pipeline(cfg)
        text = report.to_json()
        if cfg.report_path:
            emit_report(text, cfg.report_path)
    except (ConfigInvalid, IoError, ImageTooLarge,
            queries.PreconditionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        message = " ".join(str(e).splitlines())
        print(f"error: internal error: {type(e).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INCOMPLETE
    if cfg.report_path:
        v = report.verdict
        print(f"identity: {v['identity']}  behavior: {v['behavior']}  "
              f"-> {cfg.report_path}")
    else:
        print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
