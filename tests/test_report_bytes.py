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
        0, "b6d373109fb2330a989ec252e712cabb88fff6bd76d70ded47317fb98ab0a9d9"),
    ("benign-hid", "consistency"): (
        0, "51e401153619bec591d6380ea0ff09f7c5a83f9a420b4a9467bee6120f7e3a83"),
    ("benign-hid", "full"): (
        0, "95aa288de602e48e803d2adc8465e76522aa53460a750231263f727865175850"),
    ("benign-hid", "seed3"): (
        0, "2738e630ca441a5e458c33b941ed62bbcf48ac90350b61405202ad1f5d8f7142"),
    ("benign-hid", "identity-pre"): (
        0, "55ebd30f9fd973ae81c9978baf490bf23c8ef8d4e8cd2f142bd70121e79bd2e9"),
    ("injector-hid", "defaults"): (
        1, "227659562465fd3bf30698e8ea16b6c6614f6a6589ec4bf81e9417fcb07bf768"),
    ("injector-hid", "consistency"): (
        1, "51eaf821f7befcca81ed840be6475e2cc35e6385cfc21ea4825cbf88d54a7519"),
    ("injector-hid", "full"): (
        1, "89b99e0406b0eb4c10eff86d3e070dc21a9c7ed870c712a20c9816391c215514"),
    ("injector-hid", "seed3"): (
        1, "cd766723bfe8337c1885c881e082b61bd9f3644e18a06747fd07eedb07b9f0db"),
    ("injector-hid", "identity-pre"): (
        0, "da5183759c10ff5d4c4fadc935dce25a53de59430a37350f4ed40de529e97f61"),
    ("storage-claiming-hid", "defaults"): (
        0, "d19ff0b32f0e906dc6d2c08c5cc59796fe843a771fbb9271b0db7d36b81d214e"),
    ("storage-claiming-hid", "consistency"): (
        0, "cf172ec9a3792c6e2d6e8798f4879a0fd9866730635d6bc4b1c423a0583b7a7e"),
    ("storage-claiming-hid", "full"): (
        0, "2b8597acf61542f7b51d302091032d6f8505f25abbd3b197791b552e7f9babe6"),
    ("storage-claiming-hid", "seed3"): (
        0, "9d2c22afe9e8649c6b7579cbd87bdab644e570493ea7cf2eb15880dd158e6377"),
    ("storage-claiming-hid", "identity-pre"): (
        0, "55d7156bbd2012b71a438eb5cedeb581abbe9defe7bb9e93036d3a2a88fec129"),
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
        0, "a89e31ee825aaa80fc06099cc066492174ef4ba4fe4eb389641f4d12a7c5f94d"),
    "injector-hid-moved": (fwkit.FixtureSpec(
        template="injector-hid", ep0_fifo=0x7A00, ep1_buffer=0x7A80,
        setup_base=0x7FC8, device_desc_addr=0x0C40,
        config_desc_addr=0x0C52, hid_report_addr=0x0C74),
        0, "f87e0ec5fa5eb8cb42b6c53f3b6fe40f0e5fc3a17e2507a2d9a76642951dd0c4"),
    "storage-claiming-hid-moved": (fwkit.FixtureSpec(
        template="storage-claiming-hid", ep0_fifo=0x7500, ep1_buffer=0x7580,
        setup_base=0x7FF0, device_desc_addr=0x2A00,
        config_desc_addr=0x2A12, hid_report_addr=0x2A59),
        0, "7d88740612811e21f09e6df5579938706e2f99430df20132f60065c1d4427774"),
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
    "r000-benign-hid": (0, "74e8a6b2a067"),
    "r000-injector-hid": (0, "c89bc2e26bae"),
    "r000-storage-claiming-hid": (1, "13931d4f2472"),
    "r001-benign-hid": (0, "03fa47181056"),
    "r001-injector-hid": (0, "18f0ba0a7987"),
    "r001-storage-claiming-hid": (1, "d190e7ddd464"),
    "r002-benign-hid": (0, "fab030c2e24b"),
    "r002-injector-hid": (0, "4545bb2c2675"),
    "r002-storage-claiming-hid": (1, "5862d22cc04a"),
    "r003-benign-hid": (0, "0ad7eb4fe590"),
    "r003-injector-hid": (0, "7569fc24e548"),
    "r003-storage-claiming-hid": (1, "6beaf5b8b46e"),
    "r004-benign-hid": (0, "d306bb3d87a9"),
    "r004-injector-hid": (0, "6f797abfc0b6"),
    "r004-storage-claiming-hid": (1, "4d57eea912fd"),
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
