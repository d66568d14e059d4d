"""Pin the exact bytes of `usbvet analyze` reports.

Each case runs the CLI on one `fwkit` fixture written to
`img/<fixture>.bin` under a temporary working directory (the report records
that relative path) and compares the report's sha256 and the exit code with
the pinned values. A change that alters report bytes on purpose updates the
hashes here and says why in CHANGES.md; any other change must leave them
alone."""

import hashlib

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
        0, "6184917040bd80f465337d51b71261a9394f8790634eb466dd7947330092e658"),
    ("benign-hid", "consistency"): (
        0, "e63df2a03ea0252a25d634cf9dad5f9fcb76032c280642b907eba5d4d20693d4"),
    ("benign-hid", "full"): (
        0, "95aa288de602e48e803d2adc8465e76522aa53460a750231263f727865175850"),
    ("benign-hid", "seed3"): (
        0, "09b868b85b1d412b186ef3a01553022ad9c048617eac86599de56c8e49a6a84f"),
    ("benign-hid", "identity-pre"): (
        0, "4420fc12fb79089a11191969728618bfc8d4c56e1e07393553cffb1a2db098b3"),
    ("injector-hid", "defaults"): (
        1, "18125f1b4a93175d5942e4c3e9984f323ffb05bd11ed3232ffa96bdc7cb7cad6"),
    ("injector-hid", "consistency"): (
        1, "8d014692aec097127ccf8b52bf11157b88914b1004c7680c76ed215ef7d326f5"),
    ("injector-hid", "full"): (
        1, "89b99e0406b0eb4c10eff86d3e070dc21a9c7ed870c712a20c9816391c215514"),
    ("injector-hid", "seed3"): (
        1, "e45b5d986040fe53c2dbee1e7f2eded9a2f0d7daf596fcc210e173261b85f3d6"),
    ("injector-hid", "identity-pre"): (
        0, "1368ad1467e053529f9e7aa7392dbed9ad7e575bbe500b00b0990e9bcf767468"),
    ("storage-claiming-hid", "defaults"): (
        0, "d035165775e99a926e3023df39b482a67b5c1ab165b1d15fc2e595ae2210cdd6"),
    ("storage-claiming-hid", "consistency"): (
        0, "c9bb9e5ae3e07163166e78b847087444b92ac834c2cdc24b59dfa1cc42e9757b"),
    ("storage-claiming-hid", "full"): (
        0, "2b8597acf61542f7b51d302091032d6f8505f25abbd3b197791b552e7f9babe6"),
    ("storage-claiming-hid", "seed3"): (
        0, "9598c7f504b788c6c7351f5d7546637636dd467557f6321dda17c32d1d7ad475"),
    ("storage-claiming-hid", "identity-pre"): (
        0, "5f17809269c935c82c0b41729f83b673b9f41526cb844e0829bab965d6ca81d0"),
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
        0, "64ed42a2fbf69310998f357adc01ed61a0d5346f4a0909642f98e5aa7a3dc575"),
    "injector-hid-moved": (fwkit.FixtureSpec(
        template="injector-hid", ep0_fifo=0x7A00, ep1_buffer=0x7A80,
        setup_base=0x7FC8, device_desc_addr=0x0C40,
        config_desc_addr=0x0C52, hid_report_addr=0x0C74),
        0, "f0ea8b65cb2882f090789583c1eac6893f8c2a02c2af40ef4507e083e5ef05c3"),
    "storage-claiming-hid-moved": (fwkit.FixtureSpec(
        template="storage-claiming-hid", ep0_fifo=0x7500, ep1_buffer=0x7580,
        setup_base=0x7FF0, device_desc_addr=0x2A00,
        config_desc_addr=0x2A12, hid_report_addr=0x2A59),
        0, "6b6d1b607ade2e113981c65dd813bd5d184bb99ea4486f579adaf30fdcf7eede"),
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
