"""Pin the exact bytes of `usbvet analyze` reports.

Each case runs the CLI on one `fwkit` fixture written to
`img/<fixture>.bin` under a temporary working directory (the report records
that relative path) and compares the report's sha256 and the exit code with
the pinned values. The triage cases run the benchmark's own seed-1
`identity-triage` analyses, made by `bench/workloads.py`. A change that alters report bytes on purpose updates the
hashes here and says why in CHANGES.md; any other change must leave them
alone."""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from usbvet import cli, fwkit

FLAGS = {
    "defaults": [],
    "consistency": ["--query", "consistency"],
    "full": ["--policy", "full", "--state-limit", "300"],
    "seed3": ["--seed", "3", "--state-limit", "800"],
    "identity-pre": ["--query", "identity",
                     "--precondition", "XRAM:0x7fe9:==:6"],
}

PINNED = {
    ("benign-hid", "defaults"): (
        0, "1c8d7d2e8dae7660e3640c8daa01452498e2eb28987272cdab9a04b77ddb882b"),
    ("benign-hid", "consistency"): (
        0, "51e401153619bec591d6380ea0ff09f7c5a83f9a420b4a9467bee6120f7e3a83"),
    ("benign-hid", "full"): (
        0, "95aa288de602e48e803d2adc8465e76522aa53460a750231263f727865175850"),
    ("benign-hid", "seed3"): (
        0, "14a169f7247f76908494297462470a0fab1bc464cd6a4a3e577bf1266dde2b27"),
    ("benign-hid", "identity-pre"): (
        0, "bed142ed177344c833cd13dc63d00c05fac443e9a95dc54c217c590a02ef6de2"),
    ("injector-hid", "defaults"): (
        1, "c77849fbaa3a420ab2a4d81c0b133c03f968999bd1b5afd90d5093d4d4e03b54"),
    ("injector-hid", "consistency"): (
        1, "51eaf821f7befcca81ed840be6475e2cc35e6385cfc21ea4825cbf88d54a7519"),
    ("injector-hid", "full"): (
        1, "89b99e0406b0eb4c10eff86d3e070dc21a9c7ed870c712a20c9816391c215514"),
    ("injector-hid", "seed3"): (
        1, "ffe126ec3d22191879f7b5d1e5b3ac87a32a9115c4795780e527593c1ad19e39"),
    ("injector-hid", "identity-pre"): (
        0, "67dd6a0f5eb7cd03c028ee4d230095730136c719fb48f94325ad0f3fb997b7e7"),
    ("storage-claiming-hid", "defaults"): (
        0, "631138bee2c7bf395e3503f0130620c2425eebc195508ead26ee98b4223b0907"),
    ("storage-claiming-hid", "consistency"): (
        0, "cf172ec9a3792c6e2d6e8798f4879a0fd9866730635d6bc4b1c423a0583b7a7e"),
    ("storage-claiming-hid", "full"): (
        0, "2b8597acf61542f7b51d302091032d6f8505f25abbd3b197791b552e7f9babe6"),
    ("storage-claiming-hid", "seed3"): (
        0, "abbbd36bef30fc3ecbf5692ea110e9af4d85027bd54d26700ff38252edfe6fe9"),
    ("storage-claiming-hid", "identity-pre"): (
        0, "214c74db1c3549e10846730781e2834f351918dc6c4e28fd929b5f7acd5e2622"),
}


@pytest.mark.parametrize("fixture,flags", sorted(PINNED))
def test_report_bytes_pinned(fixture, flags, tmp_path, monkeypatch):
    image, _ = fwkit.generate_fixture(fwkit.FixtureSpec(template=fixture))
    (tmp_path / "img").mkdir()
    (tmp_path / "img" / f"{fixture}.bin").write_bytes(image)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["analyze", f"img/{fixture}.bin", *FLAGS[flags],
                     "--report", "report.json"])
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert (code, digest) == PINNED[fixture, flags]


# Fixture variants with the EP0 FIFO, the SETUP packet and the descriptor
# block moved off the defaults, each analysed for identity only with the
# precondition that the SETUP packet's bRequest is GET_DESCRIPTOR (6).
VARIANTS = {
    "benign-hid-moved": (fwkit.FixtureSpec(
        template="benign-hid", ep0_fifo=0x7600, ep1_buffer=0x7680,
        setup_base=0x7FD0, device_desc_addr=0x0A00,
        config_desc_addr=0x0A12, hid_report_addr=0x0A34),
        0, "11258251a51e92cdfba4a3daaf52caafe5aa2802fad95f3e21fafde450bf2999"),
    "injector-hid-moved": (fwkit.FixtureSpec(
        template="injector-hid", ep0_fifo=0x7A00, ep1_buffer=0x7A80,
        setup_base=0x7FC8, device_desc_addr=0x0C40,
        config_desc_addr=0x0C52, hid_report_addr=0x0C74),
        0, "91716c4fed8ca6db1d85df4c73bbae5ff60aa0f09dcb6ee4c09b9c44b7643632"),
    "storage-claiming-hid-moved": (fwkit.FixtureSpec(
        template="storage-claiming-hid", ep0_fifo=0x7500, ep1_buffer=0x7580,
        setup_base=0x7FF0, device_desc_addr=0x2A00,
        config_desc_addr=0x2A12, hid_report_addr=0x2A59),
        0, "7890af35b03569b3477f73c98cf751d78ae2e00b706c16d4709dd12bed543d46"),
}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_report_bytes_pinned(name, tmp_path, monkeypatch):
    spec, pinned_code, pinned_digest = VARIANTS[name]
    image, _ = fwkit.generate_fixture(spec)
    (tmp_path / "img").mkdir()
    (tmp_path / "img" / f"{name}.bin").write_bytes(image)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["analyze", f"img/{name}.bin", "--query", "identity",
                     "--precondition", f"XRAM:0x{spec.setup_base + 1:04x}:==:6",
                     "--report", "report.json"])
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert (code, digest) == (pinned_code, pinned_digest)


def load_workloads():
    """bench/workloads.py, loaded from its path as the benchmark loads it."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("_triage_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


# The benchmark's own traffic: the exit code and a 12-hex sha256 prefix of
# each seed-1 `identity-triage` report of rounds 0-4, made in the work
# directory `triage` (each report holds its image's path).
TRIAGE_PINNED = {
    "r000-benign-hid": (0, "d09a683b2ca6"),
    "r000-injector-hid": (0, "670f7c0ee313"),
    "r000-storage-claiming-hid": (1, "ce6708f9ea1f"),
    "r001-benign-hid": (0, "d0c61c156b0a"),
    "r001-injector-hid": (0, "1204230d773d"),
    "r001-storage-claiming-hid": (1, "fe4cb75ad3eb"),
    "r002-benign-hid": (0, "957d4e11bec5"),
    "r002-injector-hid": (0, "755d1eed88a5"),
    "r002-storage-claiming-hid": (1, "16db0d3cfe37"),
    "r003-benign-hid": (0, "cc8a509b5cb7"),
    "r003-injector-hid": (0, "3a0375bbd7c0"),
    "r003-storage-claiming-hid": (1, "1dc500c30e19"),
    "r004-benign-hid": (0, "bee6327cbbac"),
    "r004-injector-hid": (0, "490c19322000"),
    "r004-storage-claiming-hid": (1, "4661dd59d774"),
}


@pytest.mark.parametrize("name", sorted(TRIAGE_PINNED))
def test_triage_report_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triage").mkdir()
    ops = load_workloads().identity_triage_round(1, int(name[1:4]), "triage")
    (op,) = [op for op in ops if op.key() == f"{name}.bin"]
    code = cli.main(op.argv)
    with open(op.report_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert (code, digest[:12]) == TRIAGE_PINNED[name]
