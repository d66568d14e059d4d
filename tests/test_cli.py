import contextlib
import io
import json
import math
import os
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from usbvet import (cli, fwkit, isa, lifter, machine, queries, solver,
                    symexec, usbstatic)
from usbvet.cli import RunConfig, run_pipeline
from usbvet.lifter import Region

import reference_ir
from static_facts import static_facts
from test_queries import COLD_RUNS
from test_report_bytes import VARIANTS, load_workloads
from test_symexec import Accesses


def write_fixture(tmp_path, template, **spec_kw):
    image, man = fwkit.generate_fixture(
        fwkit.FixtureSpec(template=template, **spec_kw))
    path = tmp_path / f"{template}.bin"
    path.write_bytes(image)
    return str(path), man


def small_config(path, **kw):
    base = dict(image_path=path, tau=8, seed=7, state_limit=1200)
    base.update(kw)
    return RunConfig(**base)


def test_pipeline_benign_consistent(tmp_path):
    path, _ = write_fixture(tmp_path, "benign-hid")
    report, code = run_pipeline(small_config(path, expected="hid",
                                             query="both", policy="auto"))
    assert report.verdict["identity"] == "consistent"
    assert report.verdict["behavior"] == "clean"
    assert code == cli.EXIT_CONSISTENT
    assert report.query2["inconsistent_flow"]["ranked"] == []


def test_pipeline_storage_claiming_anomalous(tmp_path):
    path, man = write_fixture(tmp_path, "storage-claiming-hid")
    report, code = run_pipeline(small_config(path, expected="mass-storage",
                                             query="identity", policy="auto"))
    assert report.verdict["identity"] == "anomalous"
    assert code == cli.EXIT_FLAGGED
    target = man.target_sites["hid_report_copy"]
    assert any(f"0x{target:04x}" in r for r in report.verdict["reasons"])


def test_pipeline_injector_behavior_flagged(tmp_path):
    path, man = write_fixture(tmp_path, "injector-hid")
    report, code = run_pipeline(small_config(path, expected="hid",
                                             query="both", policy="auto"))
    assert report.verdict["identity"] == "consistent"
    assert report.verdict["behavior"] == "flagged"
    assert code == cli.EXIT_FLAGGED
    mal = f"0x{man.malicious_store_sites[0]:04x}"
    assert mal in report.verdict["flagged_sites"]


def test_report_deterministic_across_runs(tmp_path):
    path, _ = write_fixture(tmp_path, "branchy", guard_count=2)
    cfg = small_config(path, expected="hid", query="identity", policy="auto")
    r1, _ = run_pipeline(cfg)
    r2, _ = run_pipeline(cfg)
    assert r1.to_json() == r2.to_json()


def test_emit_then_parse_roundtrip(tmp_path):
    path, _ = write_fixture(tmp_path, "straightline")
    report, _ = run_pipeline(small_config(path, query="identity"))
    out = tmp_path / "report.json"
    cli.emit_report(report.to_json(), str(out))
    parsed = json.loads(out.read_text())
    assert parsed == report.to_dict()


def test_emit_report_missing_directory(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "straightline")
    report, _ = run_pipeline(small_config(path, query="identity"))
    bad = str(tmp_path / "nope" / "report.json")
    with pytest.raises(cli.IoError) as exc:
        cli.emit_report(report.to_json(), bad)
    assert "nope" in str(exc.value)
    # through the CLI: exit 3 with a one-line message, no traceback
    code = cli.main(["analyze", path, "--query", "identity", "--report", bad])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report")
    assert err.count("\n") == 1


def test_no_descriptors_degrades_gracefully(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(bytes(64))
    report, code = run_pipeline(small_config(str(path), query="both"))
    assert report.status == "completed-with-findings-none"
    assert report.ep0_inference == {"classes": {
        "hid": {"error": "NoDescriptors"},
        "mass-storage": {"error": "NoDescriptors"}}}
    assert [d for d in report.diagnostics if "NoDescriptors" in d] == [
        "NoDescriptors[hid]: device=0 config=0 candidates",
        "NoDescriptors[mass-storage]: device=0 config=0 candidates"]
    assert report.claimed_model["interfaces"] == []
    assert code == cli.EXIT_CONSISTENT


def test_one_byte_sub_descriptor_is_a_diagnostic(tmp_path, capsys):
    # a spin loop, then a device descriptor and a configuration header whose
    # first sub-descriptor is one byte long, the image's last byte
    device = bytes([0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40, 0x34,
                    0x12, 0x78, 0x56, 0x00, 0x01, 0x01, 0x02, 0x00, 0x01])
    path = tmp_path / "desc.bin"
    path.write_bytes(bytes([0x80, 0xFE]) + bytes(30) + device
                     + bytes.fromhex("09020a00010100803201"))
    code = cli.main(["analyze", str(path), "--query", "identity"])
    report = json.loads(capsys.readouterr().out)
    assert "config descriptor at 0x0032: bLength 1 at offset 9" in (
        report["diagnostics"])
    # no code copies either descriptor, so EP0 is unknown and the claimed
    # identity goes unchecked: the analysis is incomplete
    assert code == cli.EXIT_INCOMPLETE


def test_image_too_large(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(bytes(0x10001))
    with pytest.raises(cli.ImageTooLarge):
        run_pipeline(RunConfig(image_path=str(path)))


def test_config_validation():
    with pytest.raises(cli.ConfigInvalid):
        RunConfig(image_path="x", expected="toaster").validate()
    with pytest.raises(cli.ConfigInvalid):
        RunConfig(image_path="x", tau=0).validate()
    RunConfig(image_path="x", max_ep=15, time_limit=0.0).validate()


def test_precondition_parsing():
    p = cli.parse_precondition("XRAM:0x7fe9:==:6")
    assert (p.region, p.addr, p.relation, p.value) == ("XRAM", 0x7FE9, "==", 6)
    with pytest.raises(cli.ConfigInvalid):
        cli.parse_precondition("XRAM:0x7fe9:~:6")
    with pytest.raises(cli.ConfigInvalid):
        cli.parse_precondition("XRAM:0x7fe9:6")


def test_main_usage_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.bin")
    code = cli.main(["analyze", missing])
    assert code == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_main_config_file_with_flag_override(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "straightline")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "expected": "hid", "query": "identity", "policy": "full", "seed": 7,
        "tau": 4, "state_limit": 400, "preconditions": ["XRAM:0x10:==:1"],
    }))
    out = tmp_path / "r.json"
    code = cli.main(["analyze", path, "--config", str(cfg_file),
                     "--seed", "9", "--state-limit", "300",
                     "--precondition", "XRAM:0x20:==:2",
                     "--report", str(out)])
    data = json.loads(out.read_text())
    # flags override the file
    assert data["config"]["seed"] == 9
    assert data["config"]["state_limit"] == 300
    assert data["config"]["preconditions"] == ["XRAM:0x20:==:2"]
    # file values survive where no flag is given
    assert data["config"]["expected"] == "hid"
    assert data["config"]["query"] == "identity"
    assert data["config"]["policy"] == "full"
    assert data["config"]["tau"] == 4
    assert code in (cli.EXIT_CONSISTENT, cli.EXIT_INCOMPLETE)


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "want a JSON object"),
    (b'{"tau": "3"}', "'tau' has the wrong type"),
    (b'{"time_limit": "x"}', "'time_limit' has the wrong type"),
    (b'{"preconditions": 5}', "'preconditions' has the wrong type"),
    (b'{"preconditions": [5]}', "'preconditions' has the wrong type"),
    (b'{"seed": true}', "'seed' has the wrong type"),
    (b"\xff{}", "config file"),
    # a key no flag has, and the two flags the file does not mirror
    (b'{"state-limit": 5, "timing": true}', "'state-limit' is not a key"),
    (b'{"timing": true}', "'timing' is not a key"),
    (b'{"config": "other.json"}', "'config' is not a key"),
    # json refuses an integer over 4300 digits with a plain ValueError
    pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit",
                 id="overlong-integer"),
])
def test_main_bad_config_file_exit_code(tmp_path, capsys, content, message):
    path, _ = write_fixture(tmp_path, "straightline")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(content)
    code = cli.main(["analyze", path, "--config", str(cfg_file),
                     "--query", "identity", "--state-limit", "200"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: config file:") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("flags, config, message", [
    (["--time-limit", "nan"], None, "time-limit nan"),
    (["--time-limit", "-1"], None, "time-limit -1.0"),
    (["--time-limit", "inf"], None, "time-limit inf"),
    ([], '{"time_limit": NaN}', "time-limit nan"),
    ([], '{"time_limit": -0.5}', "time-limit -0.5"),
    (["--max-ep", "16"], None, "max-ep 16 over 15"),
    ([], '{"max_ep": 100000}', "max-ep 100000 over 15"),
])
def test_main_bad_limit_exit_code(tmp_path, capsys, monkeypatch, flags,
                                  config, message):
    path, _ = write_fixture(tmp_path, "benign-hid")
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(config)
        flags = flags + ["--config", str(cfg_file)]
    explored = []
    monkeypatch.setattr(queries, "execute",
                        lambda *a, **kw: explored.append(1))
    code = cli.main(["analyze", path] + flags)
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1
    assert explored == []  # rejected before any exploration


@pytest.mark.parametrize("argv,message", [
    (["analyze", "img.bin", "--tau", "x"],
     "argument --tau: invalid int value: 'x'"),
    (["analyze", "img.bin", "--no-such-flag"],
     "unrecognized arguments: --no-such-flag"),
    (["analyze", "img.bin", "--policy", "most"],
     "argument --policy: invalid choice: 'most'"),
    (["analyze"], "the following arguments are required: image"),
    ([], "the following arguments are required: command"),
], ids=["bad-int", "unknown-flag", "bad-choice", "no-image", "empty"])
def test_main_malformed_command_line_exit_code(capsys, argv, message):
    # a malformed command line is a usage error, not EXIT_INCOMPLETE (2)
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_main_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: usbvet")


def test_main_prints_report_without_outfile(tmp_path, capsys):
    path, _ = write_fixture(tmp_path, "straightline")
    code = cli.main(["analyze", path, "--query", "identity", "--seed", "1",
                     "--state-limit", "200"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["tool"].startswith("usbvet")


def test_custom_signature_file(tmp_path):
    path, _ = write_fixture(tmp_path, "straightline")
    sigs = tmp_path / "sigs.txt"
    sigs.write_text("ZEROS: 00 00 00 00\n")
    report, _ = run_pipeline(small_config(str(path), query="identity",
                                          signatures_path=str(sigs)))
    assert any(h["name"] == "ZEROS" for h in report.descriptor_hits)


def test_custom_ruledb(tmp_path):
    path, _ = write_fixture(tmp_path, "benign-hid")
    db = tmp_path / "rules.txt"
    db.write_text("USB_DEVICE my-widget vid=0x1234 pid=0x5678\n")
    report, _ = run_pipeline(small_config(str(path), expected="hid",
                                          query="identity",
                                          ruledb_path=str(db)))
    assert {"rule": "USB_DEVICE", "driver": "my-widget"} in report.driver_matches


@pytest.mark.parametrize("flag, content, message", [
    ("--signatures", "BAD LINE\n", "signatures file: signature file line 1"),
    # a cell that is not one byte would never match
    ("--signatures", "TAG: 12 1FF\n",
     "signatures file: signature file line 1: cell '1FF' is not a hex byte"),
    ("--signatures", "# tags\nTAG: -1 ??\n",
     "signatures file: signature file line 2: cell '-1' is not a hex byte"),
    ("--ruledb", "USB_DEVICE x vid=zz\n",
     "rule db: rule line 1: vid='zz' is not a number"),
    ("--ruledb", "# ids\nUSB_DEVICE x vid\n",
     "rule db: rule line 2: vid='' is not a number"),
    # a key the form does not match on would be ignored
    ("--ruledb", "USB_INTERFACE_INFO kbd vid=0x1234 class=3\n",
     "rule db: rule line 1: USB_INTERFACE_INFO does not take vid"),
    ("--ruledb", "# ids\nUSB_DEVICE x vid=1 number=0\n",
     "rule db: rule line 2: USB_DEVICE does not take number"),
    ("--ruledb", "USUAL_DEV usb-storage class=3 subclass=6\n",
     "rule db: rule line 1: USUAL_DEV does not take class"),
    # a value wider than its field would never match
    ("--ruledb", "USB_DEVICE x vid=-1 pid=1\n",
     "rule db: rule line 1: vid=-1 does not fit in 16 bits"),
    ("--ruledb", "USB_DEVICE x vid=1 pid=70000\n",
     "rule db: rule line 1: pid=70000 does not fit in 16 bits"),
    ("--ruledb", "USB_DEVICE_INFO hub class=0x109\n",
     "rule db: rule line 1: class=265 does not fit in 8 bits"),
    # a repeated key would keep only its last value
    ("--ruledb", "USB_DEVICE x vid=1 pid=2 vid=3\n",
     "rule db: rule line 1: vid given twice"),
])
def test_main_malformed_pattern_file_exit_code(tmp_path, capsys, flag,
                                               content, message):
    path, _ = write_fixture(tmp_path, "straightline")
    bad = tmp_path / "bad.txt"
    bad.write_text(content)
    code = cli.main(["analyze", path, flag, str(bad), "--query", "identity",
                     "--state-limit", "200"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1


def test_timing_flag_adds_timing_section(tmp_path):
    path, _ = write_fixture(tmp_path, "branchy", guard_count=1)
    cfg = small_config(path, query="identity", policy="auto")
    cfg.include_timing = True
    report, _ = run_pipeline(cfg)
    assert report.timing is not None
    assert "timing" in report.to_dict()
    # the report's own encoder writes json's text
    text = report.to_json()
    assert text == json.dumps(report.to_dict(), indent=2,
                              sort_keys=True) + "\n"
    assert json.loads(text) == json.loads(json.dumps(report.to_dict()))


_TEXT = ('a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\r', '\x00', '\x1f',
         '\x7f', '\u00e9', '\u4e2d', '\u2028', '\U0001f600', '\ud800')


def _random_tree(rng: random.Random, depth: int = 0):
    """A JSON-able value of a report's kinds: text with escapes and
    non-ASCII, ints, floats like `--timing`'s and extreme ones, bools,
    None, and dicts, lists and tuples, empty or nested."""
    kind = rng.randrange(11 if depth < 4 else 7)
    if kind == 0:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind == 1:
        return rng.choice((0, -1, 7, 255, 0x7fe9, -2**70, 2**64))
    if kind == 2:
        return rng.choice((round(rng.random() * 3, 3), 0.0, -0.0, 1e-7,
                           1e300, 0.1, math.inf, -math.inf, math.nan))
    if kind in (3, 4, 5):
        return (True, False, None)[kind - 3]
    if kind == 6:
        return rng.choice(({}, [], ()))
    items = [_random_tree(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    if kind == 9:
        return {"".join(rng.choice(_TEXT) for _ in range(rng.randrange(4))): v
                for v in items}
    # json writes the keys it takes besides text as text
    return {rng.choice((0, 1, -5, 2.5, 1e300, True, False)): v
            for v in items}


def _report_of(fields: dict) -> cli.AnalysisReport:
    names = cli.AnalysisReport.__dataclass_fields__
    return cli.AnalysisReport(**{n: fields.get(n) for n in names})


def test_report_encoder_writes_json_text():
    # json.dumps(indent=2, sort_keys=True) is the reference
    rng = random.Random(28)
    names = list(cli.AnalysisReport.__dataclass_fields__)
    for _ in range(300):
        report = _report_of({n: _random_tree(rng) for n in names
                             if rng.random() < 0.7})
        want = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        assert report.to_json() == want


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j,
                                   {"k": [1, {"v": object()}]},
                                   {(1, 2): "tuple key"},
                                   {None: 1, "a": 2}])
def test_report_encoder_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _report_of({"verdict": value}).to_json()


def test_consistency_query_explores_once(tmp_path, monkeypatch):
    path, _ = write_fixture(tmp_path, "injector-hid")
    image = open(path, "rb").read()
    counters = queries.find_counters(static_facts(image))
    calls = []
    real = queries.execute

    def counting(image, policy, config, listeners=(), **kw):
        calls.append(([type(ln).__name__ for ln in listeners], policy))
        return real(image, policy, config, listeners, **kw)

    passed = []
    real_query2 = queries.query2

    def query2(image, ep0, policy, **kw):
        passed.append(policy)
        return real_query2(image, ep0, policy, **kw)

    monkeypatch.setattr(queries, "execute", counting)
    monkeypatch.setattr(queries, "query2", query2)
    # the full policy skips symbolic-set discovery, so only Query 2 explores
    report, _ = run_pipeline(small_config(path, query="consistency",
                                          policy="full"))
    [(names, q2_policy)] = calls
    assert names == ["_ConcreteFlowListener", "_AccessRecorder"]
    assert set(report.query2) == {"unexpected_flow", "inconsistent_flow"}
    assert q2_policy.regions == {Region.IRAM, Region.XRAM}
    assert counters and q2_policy.locations == counters
    assert q2_policy.lookup(Region.IRAM, 0x00) is not None
    assert q2_policy.lookup(Region.XRAM, 0xFFFF) is not None
    assert q2_policy.lookup(Region.SFR, machine.ACC) is None
    [full] = passed
    assert full.regions == q2_policy.regions and full.locations == set()

    # auto: discovery runs, then Query 1 under the discovered set, then
    # Query 2 under that set plus the delay counters
    calls.clear()
    passed.clear()
    report, _ = run_pipeline(small_config(path, query="both", policy="auto"))
    *discovery, (q1_names, q1_policy), (q2_names, q2_policy) = calls
    assert all(names == ["_CheckLoads"] for names, _ in discovery)
    assert q1_names == [] and q2_names == [
        "_ConcreteFlowListener", "_AccessRecorder"]
    found = {(Region[r], int(a, 16))
             for r, a in report.symbolic_set["locations"]}
    assert found and q1_policy.locations == found
    assert counters - found
    assert q2_policy.locations == found | counters
    assert not q1_policy.regions and not q2_policy.regions
    assert passed == [q1_policy]


def test_full_policy_makes_only_the_variables_it_reads(tmp_path,
                                                       monkeypatch):
    path, _ = write_fixture(tmp_path, "benign-hid")
    made = []
    real_var = solver.var
    monkeypatch.setattr(solver, "var",
                        lambda name, width=8: made.append(name)
                        or real_var(name, width))
    report, _ = run_pipeline(small_config(path, query="identity",
                                          policy="full"))
    assert report.query1["policy"] == "full"
    # one variable per byte read, each made once, none for an SFR; the
    # whole IRAM and XRAM would be 65,792
    assert 0 < len(made) == len(set(made)) < 1000
    assert all(name.startswith(("iram_", "xram_")) for name in made)


def test_static_facts_built_once_per_analysis(tmp_path, monkeypatch):
    path, _ = write_fixture(tmp_path, "injector-hid")
    calls = {}
    args = {}

    def counting(name):
        real = getattr(usbstatic, name)

        def wrapper(*a, **kw):
            calls[name] = calls.get(name, 0) + 1
            args[name] = a
            return real(*a, **kw)
        return wrapper

    for name in ("reachable_instructions", "scan_with_xrefs",
                 "prop_const_mem", "find_devspec_to_ep0"):
        monkeypatch.setattr(usbstatic, name, counting(name))
    report, _ = run_pipeline(RunConfig(image_path=path, query="both"))
    assert report.query1 is not None and report.query2 is not None
    assert calls == {"reachable_instructions": 1, "scan_with_xrefs": 1,
                     "prop_const_mem": 1, "find_devspec_to_ep0": 1}
    # the XREF scan and the static facts read one instruction list
    assert args["scan_with_xrefs"][1] is args["prop_const_mem"][0]


SHARING_SPECS = {t: fwkit.FixtureSpec(template=t)
                 for t in ("benign-hid", "injector-hid",
                           "storage-claiming-hid")}
SHARING_SPECS.update((name, spec) for name, (spec, _, _) in VARIANTS.items())


def _identity_explorations(monkeypatch, path, spec, share):
    """The report and the facts of every exploration of one identity
    analysis (discovery runs, then Query 1). With `share` False, each
    exploration gets a private memo in place of the analysis's. Each
    discovery iteration that finds a location is a run of its own
    (`COLD_RUNS`), so the memo is shared over several runs of a handler."""
    runs = []

    def recording(*args, memo=None, **kw):
        assert memo is not None  # the pipeline hands every run its memo
        res = symexec.execute(*args, memo=memo if share else None, **kw)
        runs.append((res.states_created, res.blocks_executed, res.reason,
                     [(s.sid, s.terminated) for s in res.ended],
                     {t: (h.state.sid, h.states_created, h.coverage)
                      for t, h in res.target_hits.items()},
                     res.diagnostics, res.solver.diagnostics))
        return res

    monkeypatch.setattr(queries, "execute", recording)
    monkeypatch.setattr(*COLD_RUNS)
    report, _ = run_pipeline(RunConfig(
        image_path=path, query="identity",
        preconditions=[f"XRAM:0x{spec.setup_base + 1:04x}:==:6"]))
    return report.to_json(), runs


@pytest.mark.parametrize("name", sorted(SHARING_SPECS))
def test_shared_memo_changes_no_exploration(name, tmp_path, monkeypatch):
    spec = SHARING_SPECS[name]
    image, man = fwkit.generate_fixture(spec)
    path = tmp_path / f"{name}.bin"
    path.write_bytes(image)
    shared = _identity_explorations(monkeypatch, str(path), spec, True)
    private = _identity_explorations(monkeypatch, str(path), spec, False)
    assert shared == private
    runs = shared[1]
    assert len(runs) > 2  # discovery ran, then Query 1
    assert man.target_sites["hid_report_copy"] in runs[-1][4]


def test_each_block_is_lifted_once_per_analysis(tmp_path, monkeypatch):
    path, _ = write_fixture(tmp_path, "injector-hid")
    lifted = []
    real = lifter.lift_block

    def counting(image, addr):
        lifted.append(addr)
        return real(image, addr)

    monkeypatch.setattr(lifter, "lift_block", counting)
    monkeypatch.setattr(*COLD_RUNS)  # each discovery iteration runs
    report, _ = run_pipeline(small_config(path, query="both"))
    # discovery, Query 1 and Query 2 all ran, and no block was lifted twice
    assert len(report.symbolic_set["iterations"]) > 1
    assert report.query1 is not None and report.query2 is not None
    assert lifted and len(lifted) == len(set(lifted))


def test_static_pass_lifts_through_the_memo(tmp_path, monkeypatch):
    # The static pass reads the memo's blocks, and an entry inside a cached
    # block gets that block's suffix, so the analysis lifts each instruction
    # once, into a cached block that is not a suffix.
    memos, lifts = [], []
    real_memo, real_lift = symexec.ImageMemo, lifter._lift_one

    def recording_memo(image):
        memos.append(real_memo(image))
        return memos[-1]

    monkeypatch.setattr(symexec, "ImageMemo", recording_memo)
    monkeypatch.setattr(lifter, "_lift_one",
                        lambda e, ins: lifts.append(ins) or real_lift(e, ins))
    for template in ("benign-hid", "injector-hid", "storage-claiming-hid"):
        path, _ = write_fixture(tmp_path, template)
        memos.clear()
        lifts.clear()
        run_pipeline(small_config(path, query="both"))
        (memo,) = memos
        blocks = list(memo.program.cache.values())
        # a suffix starts at a Boundary of the block it was cut from
        starts = Counter(id(st) for blk in blocks for st in blk.stmts
                         if type(st) is lifter.Boundary)
        lifted = [blk for blk in blocks if starts[id(blk.stmts[0])] == 1]
        assert len(lifted) < len(blocks), template  # suffixes were taken
        addrs = [ins.addr for ins in lifts]
        assert addrs and len(addrs) == len(set(addrs)), template
        assert sorted(addrs) == sorted(ins.addr for blk in lifted
                                       for ins in blk.instrs), template


def test_only_the_lifter_decodes_an_analysed_image(tmp_path, monkeypatch,
                                                  capsys):
    # Handler entries and indirect-jump targets are read off the analysis's
    # lifted program, so every decode of an analysis is one of the lifter's.
    callers = Counter()
    real_decode = isa.decode

    def recording(image, addr):
        callers[sys._getframe(1).f_code] += 1
        return real_decode(image, addr)

    monkeypatch.setattr(isa, "decode", recording)
    argvs = [["analyze", write_fixture(tmp_path, t)[0], "--query", "both"]
             for t in ("benign-hid", "injector-hid", "storage-claiming-hid")]
    argvs += [op.argv for op in load_workloads().identity_triage_round(
        1, 0, str(tmp_path))]
    for argv in argvs:
        cli.main(argv)
    capsys.readouterr()
    assert callers
    assert {code.co_name for code in callers} == {"_decoded"}
    assert set(callers) == {lifter._decoded.__code__}


# A mass-storage device with a hidden HID claim, in the shape of the
# storage-claiming-hid fixture: its SETUP handler dispatches on wValueH and
# copies each descriptor to the EP0 FIFO at 0x7e00. A case swaps in the
# wValueH dispatch, or the way the HID report descriptor is served.
_CLAIM_DISPATCH = """
    cjne a, #1, hs_cfg
    sjmp send_dev
hs_cfg:
    cjne a, #2, hs_rep
    sjmp send_cfg
hs_rep:
    cjne a, #0x22, hs_done
    sjmp send_hid
"""


def _copy_to_ep0(loop, table, count, store, load_dptr=None):
    load_dptr = load_dptr or f"    mov dptr, #{table}"
    return f"""
    mov r0, #0
    mov r7, #{count}
{loop}:
    mov a, r0
{load_dptr}
    movc a, @a+dptr
    mov dptr, #0x7e00
{store}:
    movx @dptr, a
    inc r0
    djnz r7, {loop}
"""


def _claim_image(dispatch=_CLAIM_DISPATCH, send_hid=None):
    send_hid = send_hid or _copy_to_ep0("hr_loop", "hid_report", 0x3F,
                                        "hid_store")
    src = f"""
.org 0x0000
    ljmp main
.org 0x0003
    ljmp usb_isr
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
.org 0x0040
main:
    mov sp, #0x47
    mov psw, #0
    mov ie, #0x81
loop:
    mov a, 0x2f
    jz loop
    mov 0x2f, #0
    lcall handle_setup
    sjmp loop
handle_setup:
    mov a, 0x30          ; bRequest
    cjne a, #6, hs_done
    mov a, 0x31          ; wValueH
{dispatch}
send_dev:
{_copy_to_ep0("sd_loop", "dev_desc", 18, "dev_store")}
    sjmp hs_done
send_cfg:
{_copy_to_ep0("sc_loop", "cfg_desc", 32, "cfg_store")}
    sjmp hs_done
send_hid:
{send_hid}
hs_done:
    ret
usb_isr:
    mov psw, #0
    mov dptr, #0x7fab
    movx a, @dptr
    jnb acc.0, ui_done
    mov dptr, #0x7fe9
    movx a, @dptr
    mov 0x30, a
    mov dptr, #0x7feb
    movx a, @dptr
    mov 0x31, a
    mov 0x2f, #1
ui_done:
    reti
cbw_tag:
.db "USBC"
.org 0x0400
dev_desc:
{fwkit._device_descriptor_db(vid=0x13FE, pid=0x5201)}
.org 0x0412
cfg_desc:
{fwkit._storage_config_db()}
.org 0x0480
hid_report:
{fwkit._hid_report_db()}
"""
    return fwkit.assemble_with_symbols(src)[0]


# name -> (the image's keyword arguments, the hits left unplaced). Each
# hides the HID report copy from the static pass, so Query 1 has no target.
UNPLACED_CASES = {
    # DPTR loaded as two bytes: M forms no 16-bit address
    "split-dptr-load": ({"send_hid": _copy_to_ep0(
        "hr_loop", "hid_report", 0x3F, "hid_store",
        "    mov dph, #0x04\n    mov dpl, #0x80")},
        ["HID_REPORT at 0x0480"]),
    # a jump table on wValueH: no copy is reachable, so EP0 is unknown
    "jump-table-dispatch": ({"dispatch": """
    anl a, #3
    rl a
    mov dptr, #jtab
    jmp @a+dptr
jtab:
    ajmp hs_done
    ajmp send_dev
    ajmp send_cfg
    ajmp send_hid
"""}, ["DEVICE_DESC at 0x0400", "CONFIG_DESC at 0x0412",
       "HID_REPORT at 0x0480"]),
    # the report's address goes to a setup-data pointer, with no copy
    "setup-data-pointer": ({"send_hid": """
    mov dptr, #0x7fd4
    mov a, #0x04
    movx @dptr, a
    inc dptr
    mov a, #0x80
hid_store:
    movx @dptr, a
"""}, ["HID_REPORT at 0x0480"]),
}


def _claim_analysis(tmp_path, image):
    path = tmp_path / "claim.bin"
    path.write_bytes(image)
    return run_pipeline(small_config(str(path), expected="mass-storage",
                                     query="identity"))


def test_reached_hid_copy_is_anomalous_for_mass_storage(tmp_path):
    report, code = _claim_analysis(tmp_path, _claim_image())
    assert report.verdict["identity"] == "anomalous"
    assert report.verdict["warnings"] == []  # the CBW tag is exempt
    assert code == cli.EXIT_FLAGGED


@pytest.mark.parametrize("name", sorted(UNPLACED_CASES))
def test_unplaced_descriptor_fails_closed(name, tmp_path):
    kwargs, unplaced = UNPLACED_CASES[name]
    report, code = _claim_analysis(tmp_path, _claim_image(**kwargs))
    assert report.query1 is None
    assert report.verdict["identity"] == "consistent"
    assert [w.split(" is unplaced")[0]
            for w in report.verdict["warnings"]] == unplaced
    assert code == cli.EXIT_INCOMPLETE


def _hooked_analysis(monkeypatch, config, patches=(), prepare=None):
    """The report, every hook call (as `Accesses` records it) and the result
    of every exploration of the analysis, the address and number of reloads
    of each block the analysis prepared, and the number of `Solver.query`
    calls. Each `(owner, name, value)` of `patches` is set for the
    analysis, and blocks are prepared by `prepare`, by default
    `symexec.prepare_block`."""
    rec, runs, prepared, queried = Accesses(), [], [], []
    real_execute = symexec.execute
    real_prepare = prepare or symexec.prepare_block
    real_query = solver.Solver.query

    def recording(image, policy, config, listeners=(), **kw):
        res = real_execute(image, policy, config, [*listeners, rec], **kw)
        runs.append((res.states_created, res.blocks_executed, res.reason,
                     sorted(res.coverage), res.diagnostics,
                     res.solver.diagnostics,
                     [(s.sid, s.pc, s.terminated, s.path.entries, s.model,
                       s.mem, s.isr_written) for s in res.ended],
                     {t: (h.state.sid, h.states_created, h.coverage)
                      for t, h in res.target_hits.items()}))
        return res

    def counting(blk):
        pb = real_prepare(blk)
        prepared.append((blk.addr, sum(st[0] is symexec.Reread
                                       for st in pb.steps)))
        return pb

    def query(self, *args):
        queried.append(1)
        return real_query(self, *args)

    monkeypatch.setattr(queries, "execute", recording)
    monkeypatch.setattr(symexec, "prepare_block", counting)
    monkeypatch.setattr(solver.Solver, "query", query)
    for owner, name, value in patches:
        monkeypatch.setattr(owner, name, value)
    report, _ = run_pipeline(config)
    monkeypatch.undo()
    return report.to_json(), rec.seen, runs, prepared, len(queried)


def _fixture_path(tmp_path, name, spec):
    image, _ = fwkit.generate_fixture(spec)
    path = tmp_path / f"{name}.bin"
    path.write_bytes(image)
    return str(path)


def _setup_precondition(spec):
    return [f"XRAM:0x{spec.setup_base + 1:04x}:==:6"]


@pytest.mark.parametrize("name", sorted(SHARING_SPECS))
def test_forwarded_loads_change_no_hook_call(name, tmp_path, monkeypatch):
    spec = SHARING_SPECS[name]
    config = small_config(_fixture_path(tmp_path, name, spec), query="both",
                          preconditions=_setup_precondition(spec))
    # each discovery iteration that finds a location is a run of its own
    forwarded = _hooked_analysis(monkeypatch, config, [COLD_RUNS])
    plain = _hooked_analysis(monkeypatch, config, [COLD_RUNS],
                             prepare=reference_ir.unforwarded)
    assert forwarded[:3] == plain[:3]
    report = json.loads(forwarded[0])
    assert report["query1"] is not None and report["query2"] is not None
    assert len(forwarded[2]) > 2  # discovery ran, then both queries
    # each block is prepared once per analysis; only forwarding reloads
    blocks = [addr for addr, _ in forwarded[3]]
    assert blocks and len(blocks) == len(set(blocks))
    assert sum(n for _, n in forwarded[3]) > 0
    assert sum(n for _, n in plain[3]) == 0


# The three fixtures under the full policy, both queries; and an
# identity-triage analysis of a seeded variant (moved descriptors, FIFOs,
# SETUP and IRQ bytes, its own scancodes and mode byte), at CLI defaults.
TRIAGE_SPEC = fwkit.FixtureSpec(
    template="storage-claiming-hid", ep0_fifo=0x7700, ep1_buffer=0x7780,
    setup_base=0x7FE0, usb_irq_addr=0x7FA3, device_desc_addr=0x2C00,
    config_desc_addr=0x2C12, hid_report_addr=0x2C59,
    scancodes=tuple(range(0x30, 0x40)), mode_magic=0x5A)
HELD_CASES = {t: (fwkit.FixtureSpec(template=t),
                  dict(query="both", policy="full", tau=8, seed=7,
                       state_limit=1200))
              for t in ("benign-hid", "injector-hid", "storage-claiming-hid")}
HELD_CASES["identity-triage"] = (TRIAGE_SPEC, dict(
    query="identity", expected="hid", seed=40503,
    preconditions=_setup_precondition(TRIAGE_SPEC)))


@pytest.mark.parametrize("name", sorted(HELD_CASES))
def test_branch_the_path_decides_changes_no_exploration(name, tmp_path,
                                                        monkeypatch):
    # A symbolic branch whose condition or negation the path holds takes
    # that side without the solver. With the membership test answering
    # "no", every such branch queries as before: the explorations, their
    # hook calls and the report are the same, at the cost of more queries.
    # Both arms explore every discovery iteration (the fixpoint proof's
    # walk answers "cannot tell"): the held branches of the identity-triage
    # case are in the last discovery runs, which the proof would skip.
    spec, kw = HELD_CASES[name]
    config = RunConfig(image_path=_fixture_path(tmp_path, name, spec), **kw)
    unproved = (queries, "_fresh_reads", lambda *a: None)
    held = _hooked_analysis(monkeypatch, config, [unproved])
    queried = _hooked_analysis(monkeypatch, config, [
        unproved, (solver.PathCondition, "holds", lambda self, expr: False)])
    assert held[:3] == queried[:3]
    assert len(held[2]) >= 2 and json.loads(held[0])["query1"] is not None
    assert held[4] < queried[4]


def test_time_limit_bounds_symbolic_set_discovery(tmp_path):
    path, _ = write_fixture(tmp_path, "benign-hid")
    # A zero budget stops every discovery run at its first budget check.
    report, _ = run_pipeline(small_config(path, query="identity",
                                          policy="auto", time_limit=0.0))
    reasons = [it["reason"] for it in report.symbolic_set["iterations"]]
    assert reasons and set(reasons) == {"time-limit"}


def test_time_limit_is_one_budget_for_the_whole_analysis(tmp_path,
                                                        monkeypatch):
    path, _ = write_fixture(tmp_path, "benign-hid")
    # A fake clock that stands still while discovery runs and then jumps
    # past the budget, as if discovery had spent all of it.
    now = [100.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    real = queries.find_symbolic_locations

    def discover(*a, **kw):
        out = real(*a, **kw)
        now[0] += 10.0
        return out

    monkeypatch.setattr(queries, "find_symbolic_locations", discover)
    report, _ = run_pipeline(small_config(path, policy="auto",
                                          time_limit=5.0))
    reasons = {it["reason"] for it in report.symbolic_set["iterations"]}
    assert reasons and "time-limit" not in reasons
    assert report.query1["reason"] == "time-limit"
    assert {q["reason"] for q in report.query2.values()} == {"time-limit"}


def test_time_limit_bounds_the_static_pass(tmp_path):
    # Static flow reaches 12,003 instructions of this seeded random image,
    # and prop_const_mem takes about 12 s over them with no deadline (on a
    # shared 2-core x86-64 host).
    path = tmp_path / "random.bin"
    path.write_bytes(random.Random(5).randbytes(0x6000))
    out = tmp_path / "r.json"
    t0 = time.monotonic()
    code = cli.main(["analyze", str(path), "--query", "identity",
                     "--time-limit", "1", "--report", str(out)])
    assert time.monotonic() - t0 < 5
    assert code == cli.EXIT_INCOMPLETE
    report = json.loads(out.read_text())
    assert report["ep0_inference"]["classes"]["hid"] == {
        "error": "StaticTimeLimit"}
    assert any(d.startswith("StaticTimeLimit[hid]: time-limit passed in ")
               for d in report["diagnostics"])


def test_main_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # The parser is built once per process. A call's flags and config
    # file leave nothing in it for the next call.
    path, man = write_fixture(tmp_path, "benign-hid")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"tau": 4, "expected": "hid"}))
    parsers, configs = [], []
    real_parse, real_run = cli._Parser.parse_args, cli.run_pipeline
    monkeypatch.setattr(cli._Parser, "parse_args", lambda self, *a, **kw:
                        parsers.append(self) or real_parse(self, *a, **kw))
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda cfg: configs.append(cfg) or real_run(cfg))
    common = ["analyze", path, "--query", "identity", "--seed", "7",
              "--state-limit", "1200"]
    first = tmp_path / "first.json"
    assert cli.main(common + [
        "--precondition", f"XRAM:{man.setup_base + 1:#x}:==:6", "--timing",
        "--config", str(cfg_file), "--report", str(first)]) == 0
    second = tmp_path / "second.json"
    assert cli.main(common + ["--report", str(second)]) == 0
    assert (configs[0].tau, configs[0].expected) == (4, "hid")
    assert configs[0].include_timing and configs[0].preconditions
    assert (configs[1].tau, configs[1].expected) == (16, "unknown")
    assert not configs[1].include_timing and configs[1].preconditions == []
    data = json.loads(second.read_text())
    assert "timing" not in data and data["config"]["preconditions"] == []
    capsys.readouterr()
    assert cli.main(["analyze", path, "--tau", "x"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: argument --tau") and err.count("\n") == 1
    assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]


@pytest.mark.parametrize("precondition, message", [
    ("FOO:0x10:==:6", "region 'FOO'"),
    ("IRAM:0x10:==:6", "not designated symbolic"),
    ("XRAM:{setup1}:<:0", "unsatisfiable"),
    ("XRAM:{setup1}:bit-set:9", "value 9 outside 0-7"),
    ("XRAM:{setup1}:bit-clear:-1", "value -1 outside 0-7"),
    ("XRAM:{setup1}:==:300", "value 300 outside 0-255"),
    ("XRAM:{setup1}:<:256", "value 256 outside 0-255"),
    ("XRAM:0x10000:==:6", "address 0x10000 outside XRAM"),
    ("IRAM:0x100:==:6", "address 0x100 outside IRAM"),
    ("SFR:-1:==:6", "address -1 outside SFR"),
    ("SFR:0x10:==:6", "address 0x10 outside SFR"),
])
def test_main_bad_precondition_exit_code(tmp_path, capsys, monkeypatch,
                                         precondition, message):
    path, man = write_fixture(tmp_path, "benign-hid")
    pre = precondition.format(setup1=hex(man.setup_base + 1))
    explored = []
    real = queries.execute
    monkeypatch.setattr(queries, "execute",
                        lambda *a, **kw: explored.append(1) or real(*a, **kw))
    code = cli.main(["analyze", path, "--query", "identity", "--tau", "8",
                     "--seed", "7", "--state-limit", "1200",
                     "--precondition", pre])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1
    if "outside" in message:
        assert explored == []  # rejected before any exploration


def test_unsatisfiable_preconditions_exit_before_discovery(tmp_path, capsys,
                                                          monkeypatch):
    path, man = write_fixture(tmp_path, "benign-hid")
    setup1 = hex(man.setup_base + 1)
    explored = []
    real = queries.execute
    monkeypatch.setattr(queries, "execute",
                        lambda *a, **kw: explored.append(1) or real(*a, **kw))
    code = cli.main(["analyze", path, "--query", "identity",
                     "--precondition", f"XRAM:{setup1}:==:6",
                     "--precondition", f"XRAM:{setup1}:==:7"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: unsatisfiable:") and err.count("\n") == 1
    assert explored == []  # neither discovery nor Query 1 ran


@settings(max_examples=300, deadline=None)
@given(region=st.sampled_from(["CODE", "IRAM", "SFR", "XRAM"]),
       addr=st.integers(-0x20000, 0x20000),
       relation=st.sampled_from(queries.RELATIONS),
       value=st.integers(-600, 600))
def test_precondition_value_is_kept_or_rejected(region, addr, relation,
                                                value):
    try:
        p = cli.parse_precondition(f"{region}:{addr}:{relation}:{value}")
    except cli.ConfigInvalid:
        return
    [(expr, _)] = queries._precondition_exprs([p])
    if relation in ("bit-set", "bit-clear"):
        mask = expr.args[0].args[1]
        assert mask.op == "const" and mask.value == 1 << value
    else:
        const = expr.args[1]
        assert const.op == "const" and const.value == value


# -- robustness over the flag and config space -------------------------------

_PRECONDITIONS = st.lists(st.sampled_from([
    "IRAM:0x10:==:6", "IRAM:0xff:bit-set:3", "XRAM:0x7c00:==:16",
    "XRAM:0xffff:!=:255", "XRAM:0x7c00:<:0", "SFR:0xe0:>:1", "CODE:0:==:0",
    "XRAM:0x10000:==:6", "IRAM:0x10:==:300", "IRAM:0x10"]), max_size=2)
_PATHS = st.sampled_from(["r.json", "missing/r.json"])
# Values of the right JSON type. `--tau` and `--state-limit` are always
# given, so the file's values of these two only meet the type check.
_CONFIG_VALUES = {
    "expected": st.sampled_from(["mass-storage", "hid", "composite",
                                 "unknown", "bogus"]),
    "query": st.sampled_from(["identity", "consistency", "both"]),
    "policy": st.sampled_from(["full", "partial", "auto"]),
    "tau": st.integers(), "state_limit": st.integers(),
    "max_ep": st.integers(0, 16), "seed": st.integers(),
    "time_limit": st.none() | st.integers(-1, 60) | st.floats(-1, 60),
    "preconditions": _PRECONDITIONS,
    "signatures": st.sampled_from([None, "missing.txt"]),
    "ruledb": st.sampled_from([None, "missing.txt"]),
    "report": st.none() | _PATHS,
}
_JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.text(max_size=4),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.lists(st.integers(0, 3), max_size=2))
_CONFIGS = (st.none() | st.fixed_dictionaries({}, optional=_CONFIG_VALUES)
            | st.fixed_dictionaries({}, optional={
                k: v | _JSON_JUNK for k, v in _CONFIG_VALUES.items()}))


@pytest.fixture(scope="module")
def branchy_dir(tmp_path_factory):
    image, _ = fwkit.generate_fixture(
        fwkit.FixtureSpec(template="branchy", guard_count=1))
    path = tmp_path_factory.mktemp("robust")
    (path / "branchy.bin").write_bytes(image)
    return path


_SMALL_FULL = {"--policy": "full", "--query": "both", "--state-limit": "16",
               "--tau": "1"}


@settings(max_examples=50, deadline=None)
@given(flags=st.fixed_dictionaries({
    "--state-limit": st.integers(1, 48).map(str),
    "--tau": st.integers(1, 3).map(str),
}, optional={
    "--expected": st.sampled_from(["mass-storage", "hid", "composite",
                                   "unknown"]),
    "--query": st.sampled_from(["identity", "consistency", "both"]),
    "--policy": st.sampled_from(["full", "partial", "auto"]),
    "--max-ep": st.integers(1, 16).map(str),
    "--seed": st.integers(-2**70, 2**70).map(str),
    "--time-limit": st.sampled_from(["0", "0.5", "60", "1e308", "-1", "inf",
                                     "nan"]),
    "--report": _PATHS,
}), preconditions=_PRECONDITIONS, timing=st.booleans(), config=_CONFIGS)
@example(flags=_SMALL_FULL, timing=False, config=None,
         preconditions=["IRAM:0x10:==:6", "XRAM:0x7c00:==:16"])
@example(flags=_SMALL_FULL, preconditions=[], timing=False,
         config={"time_limit": math.inf})
@example(flags=_SMALL_FULL, preconditions=[], timing=False,
         config={"time_limit": math.nan})
@example(flags=_SMALL_FULL, preconditions=[], timing=False,
         config={"time_limit": 10**400})
def test_main_exit_code_over_flags_and_config(branchy_dir, flags,
                                              preconditions, timing, config):
    """Any flag value argparse accepts and any JSON config value: `main`
    returns an exit code, raises nothing, and a usage error is one line.
    Relative paths resolve in a scratch directory."""
    argv = ["analyze", "branchy.bin", *(x for kv in flags.items() for x in kv)]
    for pre in preconditions:
        argv += ["--precondition", pre]
    if timing:
        argv.append("--timing")
    if config is not None:
        (branchy_dir / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    err = io.StringIO()
    with contextlib.chdir(branchy_dir), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_CONSISTENT, cli.EXIT_FLAGGED,
                    cli.EXIT_INCOMPLETE, cli.EXIT_USAGE)
    if code == cli.EXIT_USAGE:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1

