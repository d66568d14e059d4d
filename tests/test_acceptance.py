"""Acceptance suite: one test per release criterion, run in order.

Every tolerance is pinned here. Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS line per criterion.
"""

import json
import random
import time

from usbvet import cli, fwkit, isa, queries, solver, symexec, usbdb, usbstatic
from usbvet.lifter import Region

import diffutil
from static_facts import static_facts


def _ok(n, msg):
    print(f"[acceptance] criterion {n:2d} PASS: {msg}")


def test_criterion_01_decoder_totality_and_roundtrip():
    t0 = time.monotonic()
    for op in range(256):
        image = bytes([op, 0x12, 0x34])
        if op == isa.RESERVED_OPCODE:
            try:
                isa.decode(image, 0)
            except isa.IllegalOpcode:
                pass
            else:
                raise AssertionError("0xA5 decoded")
        else:
            isa.decode(image, 0)
    rng = random.Random(1)
    mismatches = 0
    decoded = 0
    reserved_errors = 0
    for _ in range(100_000):
        stream = bytes(rng.randrange(256) for _ in range(4))
        try:
            ins = isa.decode(stream, 0)
        except isa.IllegalOpcode:
            reserved_errors += 1
            continue
        except isa.TruncatedInstruction:
            continue
        decoded += 1
        if isa.decode(ins.raw, 0) != ins:
            mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert decoded > 90_000
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _ok(1, f"255 opcodes decode, {decoded} round-trips, 0 mismatches, "
           f"{reserved_errors} reserved-byte errors, {elapsed:.1f}s")


def test_criterion_02_lifter_differential_equivalence():
    t0 = time.monotonic()
    mismatches = diffutil.differential_straight(seed=12345, trials=100_000)
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _ok(2, f"100000 random sequences bit-exact (zero tolerance), {elapsed:.0f}s")


def test_criterion_03_alg2_paper_trace():
    src = """
    L1: mov dptr, #0x276c
    L2: movc a, @a+dptr
    L3: mov r4, a
    L4: mov dptr, #0xf1dc
    L5: movx @dptr, a
    """
    image, syms = fwkit.assemble_with_symbols(src)
    instrs, _ = isa.disassemble_sweep(image, 0)
    M = usbstatic.prop_const_mem(instrs)
    expected = {
        ("L1", "src"): (None, None),
        ("L1", "dst"): (0x276C, None),
        ("L2", "src"): (None, 0x276C),
        ("L2", "dst"): (None, 0x276C),
        ("L3", "src"): (None, 0x276C),
        ("L3", "dst"): (None, 0x276C),
        ("L4", "src"): (None, None),
        ("L4", "dst"): (0xF1DC, None),
        ("L5", "src"): (None, 0x276C),
        ("L5", "dst"): (None, 0xF1DC),
    }
    for (label, role), tup in expected.items():
        assert M.get(syms[label], role) == tup, (label, role)
    _ok(3, "all ten propagation tuples reproduced exactly, "
           "including L5 dst = (bot, 0xf1dc)")


def test_criterion_04_signature_scan():
    offsets = {
        "storage-claiming-hid": (0x302B, 0x303D, 0x3084),
        "injector-hid": (0xB8A, 0xB9C, 0xBBE),
    }
    for template, (dd, cd, hid) in offsets.items():
        image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template=template))
        found = {h.name: h.addr for h in usbstatic.scan_signatures(image)
                 if h.name in ("DEVICE_DESC", "CONFIG_DESC", "HID_REPORT")}
        assert found == {"DEVICE_DESC": dd, "CONFIG_DESC": cd,
                         "HID_REPORT": hid}, template

    def naive(image, pat):
        return [p for p in range(len(image) - len(pat.pattern) + 1)
                if all(b is None or image[p + i] == b
                       for i, b in enumerate(pat.pattern))]

    rng = random.Random(4)
    for _ in range(100):
        image = bytes(rng.randrange(256)
                      for _ in range(rng.randrange(128, 4096)))
        for pat in usbstatic.DEFAULT_SIGNATURES:
            oracle = naive(image, pat)
            got = [h.addr for h in usbstatic.scan_signatures(image, (pat,))]
            assert set(got) <= set(oracle)
            assert bool(got) == bool(oracle)
            if oracle:
                assert got[0] == oracle[0]
    _ok(4, "hits at 0x302b/0x303d/0x3084 and 0xb8a/0xb9c/0xbbe; "
           "brute-force scanner agrees on 100 randomized images")


def test_criterion_05_ep0_inference():
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="storage-claiming-hid"))
    inf = usbstatic.find_devspec_to_ep0(image, static_facts(image),
                                        usbstatic.scan_signatures(image))
    assert inf.ep0 == {man.ep0} == {0xF1DC}
    assert inf.target_sites["hid"] == [man.target_sites["hid_report_copy"]]
    _ok(5, f"EP0 singleton {{0xf1dc}}; flagged store = manifest copy site "
           f"0x{man.target_sites['hid_report_copy']:04x}")


def test_criterion_06_alg3_convergence():
    cfg = symexec.ExplorationConfig(seed=3)
    for k in range(1, 6):
        image, man = fwkit.generate_fixture(
            fwkit.FixtureSpec(template="branchy", guard_count=k))
        out = queries.find_symbolic_locations(image, tau=k, config=cfg)
        got = {(Region(r).name, a) for r, a in out.locations}
        assert got == {(r, a) for r, a in man.env_bytes}, k
        assert len([rec for rec in out.log if rec.added]) == k
    # empty set: the guarded target is unreached and coverage strictly lower
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="branchy", guard_count=3))
    target = man.target_sites["guarded"]
    run_cfg = symexec.ExplorationConfig(seed=3, block_repeat_threshold=24,
                                        targets=frozenset({target}),
                                        max_states=400)
    empty = symexec.execute(image, symexec.SymbolicPolicy(), run_cfg)
    assert target not in empty.target_hits
    discovered = queries.find_symbolic_locations(image, tau=3, config=cfg)
    pol = symexec.SymbolicPolicy(discovered.locations)
    full = symexec.execute(image, pol, run_cfg)
    assert target in full.target_hits
    assert len(empty.coverage) < len(full.coverage)
    _ok(6, "k in 1..5 converges to exactly k bytes within tau=k; empty set "
           f"leaves the target unreached with coverage "
           f"{len(empty.coverage)} < {len(full.coverage)}")


def test_criterion_07_query1_reachability_and_constraints():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    target = man.target_sites["hid_report_copy"]
    cfg = symexec.ExplorationConfig(seed=3, block_repeat_threshold=24)
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg)
    for policy in ("partial", "full"):
        t0 = time.monotonic()
        pol = (symexec.SymbolicPolicy(symset.locations) if policy == "partial"
               else symexec.SymbolicPolicy.full())
        rep = queries.query1(image, [target], pol, config=cfg)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"{policy}: {elapsed:.1f}s"
        t = rep.targets[target]
        assert t.reached, policy
        texts = [row["constraint"] for row in t.path]
        assert any("xram_7fe9 == 6" in s for s in texts), (policy, texts)
        assert any("xram_7feb == 0x22" in s for s in texts), (policy, texts)
    _ok(7, "HID-report target reached under both policies; path condition "
           "carries bRequest == 6 and wValueH == 34")


def test_criterion_08_policy_precondition_speedup():
    image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template="injector-hid"))
    target = man.target_sites["hid_report_copy"]
    cfg = symexec.ExplorationConfig(seed=3, block_repeat_threshold=24)
    t0 = time.monotonic()
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg)
    full = queries.query1(image, [target], symexec.SymbolicPolicy.full(),
                          config=cfg)
    pre = [queries.Precondition("XRAM", man.setup_base + 1, "==", 6),
           queries.Precondition("XRAM", man.setup_base + 3, "==", 34)]
    partial = queries.query1(image, [target],
                             symexec.SymbolicPolicy(symset.locations),
                             preconditions=pre, config=cfg)
    elapsed = time.monotonic() - t0
    assert full.targets[target].reached and partial.targets[target].reached
    ratio = full.states_explored / partial.states_explored
    assert ratio >= 2.0, ratio
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _ok(8, f"partial+preconditions explored {partial.states_explored} states "
           f"vs {full.states_explored} full ({ratio:.1f}x >= 2x), "
           f"{elapsed:.0f}s")


def test_criterion_09_query2_detection():
    # threshold above the loop-prune budget: concrete unrolling is pruned
    # before the payload, so counter symbolication is what reaches it
    spec = fwkit.FixtureSpec(template="injector-hid", inject_threshold=40)
    image, man = fwkit.generate_fixture(spec)
    mal = man.malicious_store_sites[0]
    cfg = symexec.ExplorationConfig(seed=5, block_repeat_threshold=24,
                                    max_states=1500)
    symset = queries.find_symbolic_locations(image, tau=8, config=cfg)
    M = static_facts(image)
    inf = usbstatic.find_devspec_to_ep0(image, M,
                                        usbstatic.scan_signatures(image))

    t0 = time.monotonic()
    rep4 = queries.query2_unexpected(image, inf.ep0,
                                     symexec.SymbolicPolicy(symset.locations),
                                     max_ep=4, config=cfg)
    t4 = time.monotonic() - t0
    assert any(f.site == mal for f in rep4.flagged)
    assert ("IRAM", 0x35) in [tuple(c) for c in rep4.counters]
    assert t4 < 120.0

    # without the counter the flag is missed (the required-symbolication half)
    other = queries.other_endpoint_addresses(inf.ep0, 4)
    target_sites = {i.addr for i in M.instrs
                    if M.get(i.addr, "dst")[1] in other}
    pol_nc = symexec.SymbolicPolicy(symset.locations)
    listener = queries._ConcreteFlowListener(target_sites, solver.Solver())
    symexec.execute(image, pol_nc, cfg, listeners=[listener])
    assert not any(f.site == mal for f in listener.flags.values())

    t0 = time.monotonic()
    pol = symexec.SymbolicPolicy(symset.locations
                                 | queries.find_counters(M))
    rep5 = queries.query2_inconsistent(image, pol, cfg)
    t5 = time.monotonic() - t0
    assert rep5.ranked, "no inconsistent writes found"
    top = rep5.ranked[0]
    assert top.score >= 2 and mal in top.writers
    assert len(set(top.concrete_values)) >= 2
    assert t5 < 120.0

    # benign twin: zero rank-1 flags
    b_image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template="benign-hid"))
    b_sym = queries.find_symbolic_locations(b_image, tau=8, config=cfg)
    b_pol = symexec.SymbolicPolicy(b_sym.locations)
    b_rep5 = queries.query2_inconsistent(b_image, b_pol, cfg)
    assert b_rep5.ranked == []
    b_inf = usbstatic.find_devspec_to_ep0(b_image, static_facts(b_image),
                                          usbstatic.scan_signatures(b_image))
    b_rep4 = queries.query2_unexpected(b_image, b_inf.ep0, b_pol, max_ep=4,
                                       config=cfg)
    assert b_rep4.flagged == []
    _ok(9, f"Alg4 flags 0x{mal:04x} (missed without counter symbolication); "
           f"Alg5 ranks it first with values {sorted(top.concrete_values)}; "
           f"benign twin clean ({t4:.0f}s / {t5:.0f}s)")


def test_criterion_10_usbdb_rule_faithfulness():
    from test_usbdb import build_matching_pair, _RULE_FIELD, _FIELD_SETTERS
    from usbvet.usbdb import DeviceDescriptor, InterfaceDescriptor
    rng = random.Random(10)
    forms = sorted(usbdb.RULE_FORMS)
    violations = 0
    cases = 0
    for trial in range(10_000):
        form = forms[trial % len(forms)]
        rule, dev, ifc = build_matching_pair(rng, form)
        if not rule.matches(dev, ifc):
            violations += 1
            continue
        flags = rule.match_flags
        for bit, fieldname in _RULE_FIELD.items():
            side, attr = _FIELD_SETTERS[bit]
            cases += 1
            if side == "device":
                mutated = DeviceDescriptor(
                    **{**dev.__dict__, attr: getattr(dev, attr) ^ 0x01})
                outcome = rule.matches(mutated, ifc)
            else:
                fields = {k: getattr(ifc, k) for k in (
                    "bInterfaceNumber", "bAlternateSetting", "bNumEndpoints",
                    "bInterfaceClass", "bInterfaceSubClass",
                    "bInterfaceProtocol", "iInterface")}
                fields[attr] = fields[attr] ^ 0x01
                if form == "USUAL_DEV" and attr == "bInterfaceClass":
                    continue  # the pinned class is participating by definition
                outcome = rule.matches(dev, InterfaceDescriptor(**fields))
            participating = bool(flags & bit)
            if participating and outcome:
                violations += 1
            if not participating and not outcome:
                violations += 1
    assert violations == 0
    _ok(10, f"{cases} field perturbations over 10000 randomized rule/device "
            f"pairs, zero violations")


def test_criterion_11_end_to_end_verdicts(tmp_path):
    expectations = {
        "benign-hid": ("hid", "consistent", "clean", cli.EXIT_CONSISTENT),
        "storage-claiming-hid": ("mass-storage", "anomalous", "clean",
                                 cli.EXIT_FLAGGED),
        "injector-hid": ("hid", "consistent", "flagged", cli.EXIT_FLAGGED),
    }
    summaries = []
    for template, (expected, identity, behavior, code) in expectations.items():
        image, man = fwkit.generate_fixture(fwkit.FixtureSpec(template=template))
        path = tmp_path / f"{template}.bin"
        path.write_bytes(image)
        cfg = cli.RunConfig(image_path=str(path), expected=expected,
                            query="both", policy="auto", tau=8, seed=7,
                            state_limit=1200)
        report, exit_code = cli.run_pipeline(cfg)
        assert report.verdict["identity"] == identity, template
        assert report.verdict["behavior"] == behavior, template
        assert exit_code == code, template
        if template == "injector-hid":
            mal = f"0x{man.malicious_store_sites[0]:04x}"
            assert mal in report.verdict["flagged_sites"]
            report2, _ = cli.run_pipeline(cfg)
            assert report.to_json() == report2.to_json()
        if template == "storage-claiming-hid":
            tgt = f"0x{man.target_sites['hid_report_copy']:04x}"
            assert any(tgt in r for r in report.verdict["reasons"])
        summaries.append(f"{template}={identity}/{behavior}")
    _ok(11, "; ".join(summaries) + "; repeated seeded runs byte-identical")
