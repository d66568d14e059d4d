"""USB descriptor parsing and driver matching on the kernel's match flags.

The matching side mirrors the kernel's usb_match_one_id semantics: a rule's
match_flags decide exactly which descriptor fields participate, everything
else is ignored. One table (`_MATCH_FIELDS`) says which field each flag
tests. The ten rule forms are the kernel's device-id macros
(USB_DEVICE, USB_DEVICE_VER, USB_DEVICE_INFO, USB_INTERFACE_INFO, the four
DEVICE+interface hybrids, USB_VENDOR_AND_INTERFACE_INFO and USUAL_DEV).
The rule database is a text file of representative entries; analysts can
extend it without touching code.

One kernel rule is not modelled. `usb_match_one_id_intf` refuses a rule
that matches interface fields but not the vendor when the device class is
0xFF (vendor-specific); here such a rule still matches, because the flags
alone decide which fields take part (the acceptance suite's criterion 10
checks exactly that).
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from operator import gt, lt, ne

USB_CLASS_HID = 0x03
USB_CLASS_MASS_STORAGE = 0x08

# match_flags bits (kernel mod_devicetable.h)
MATCH_VENDOR = 0x0001
MATCH_PRODUCT = 0x0002
MATCH_DEV_LO = 0x0004
MATCH_DEV_HI = 0x0008
MATCH_DEV_CLASS = 0x0010
MATCH_DEV_SUBCLASS = 0x0020
MATCH_DEV_PROTOCOL = 0x0040
MATCH_INT_CLASS = 0x0080
MATCH_INT_SUBCLASS = 0x0100
MATCH_INT_PROTOCOL = 0x0200
MATCH_INT_NUMBER = 0x0400

MATCH_DEVICE = MATCH_VENDOR | MATCH_PRODUCT
MATCH_DEV_RANGE = MATCH_DEV_LO | MATCH_DEV_HI
MATCH_DEV_INFO = MATCH_DEV_CLASS | MATCH_DEV_SUBCLASS | MATCH_DEV_PROTOCOL
MATCH_INT_INFO = MATCH_INT_CLASS | MATCH_INT_SUBCLASS | MATCH_INT_PROTOCOL
MATCH_INT_ANY = MATCH_INT_INFO | MATCH_INT_NUMBER


class MalformedDescriptor(Exception):
    pass


@dataclass(frozen=True)
class DeviceDescriptor:
    bLength: int
    bDescriptorType: int
    bcdUSB: int
    bDeviceClass: int
    bDeviceSubClass: int
    bDeviceProtocol: int
    bMaxPacketSize0: int
    idVendor: int
    idProduct: int
    bcdDevice: int
    iManufacturer: int
    iProduct: int
    iSerialNumber: int
    bNumConfigurations: int

    def to_bytes(self) -> bytes:
        return struct.pack("<BBHBBBBHHHBBBB", self.bLength,
                           self.bDescriptorType, self.bcdUSB,
                           self.bDeviceClass, self.bDeviceSubClass,
                           self.bDeviceProtocol, self.bMaxPacketSize0,
                           self.idVendor, self.idProduct, self.bcdDevice,
                           self.iManufacturer, self.iProduct,
                           self.iSerialNumber, self.bNumConfigurations)


@dataclass(frozen=True)
class EndpointDescriptor:
    bEndpointAddress: int
    bmAttributes: int
    wMaxPacketSize: int
    bInterval: int

    @property
    def direction_in(self) -> bool:
        return bool(self.bEndpointAddress & 0x80)

    @property
    def transfer_type(self) -> str:
        return ("control", "isochronous", "bulk", "interrupt")[
            self.bmAttributes & 0x03]


@dataclass(frozen=True)
class InterfaceDescriptor:
    bInterfaceNumber: int
    bAlternateSetting: int
    bNumEndpoints: int
    bInterfaceClass: int
    bInterfaceSubClass: int
    bInterfaceProtocol: int
    iInterface: int
    endpoints: tuple = ()


@dataclass
class ConfigurationDescriptor:
    bLength: int
    bDescriptorType: int
    wTotalLength: int
    bNumInterfaces: int
    bConfigurationValue: int
    iConfiguration: int
    bmAttributes: int
    bMaxPower: int
    interfaces: list[InterfaceDescriptor] = field(default_factory=list)
    # every sub-block in stream order (type, raw bytes) so serialization is exact
    blocks: list[tuple[int, bytes]] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        head = struct.pack("<BBHBBBBB", self.bLength, self.bDescriptorType,
                           self.wTotalLength, self.bNumInterfaces,
                           self.bConfigurationValue, self.iConfiguration,
                           self.bmAttributes, self.bMaxPower)
        return head + b"".join(raw for _t, raw in self.blocks)


def parse_device_descriptor(data: bytes) -> DeviceDescriptor:
    if len(data) < 18:
        raise MalformedDescriptor(f"device descriptor needs 18 bytes, "
                                  f"have {len(data)}")
    fields = struct.unpack("<BBHBBBBHHHBBBB", bytes(data[:18]))
    d = DeviceDescriptor(*fields)
    if d.bLength != 18 or d.bDescriptorType != 1:
        raise MalformedDescriptor(
            f"bad device header bLength={d.bLength} type={d.bDescriptorType}")
    return d


def parse_configuration(data: bytes) -> ConfigurationDescriptor:
    """Parse a configuration blob including nested interface/endpoint
    descriptors within wTotalLength; unknown descriptor types are kept as
    raw blocks (skipped by bLength)."""
    if len(data) < 9:
        raise MalformedDescriptor("configuration descriptor needs 9 bytes")
    (bLength, bType, wTotal, bNumIf, bConfVal,
     iConf, bmAttr, bMaxPower) = struct.unpack("<BBHBBBBB", bytes(data[:9]))
    if bLength != 9 or bType != 2:
        raise MalformedDescriptor(
            f"bad configuration header bLength={bLength} type={bType}")
    if wTotal < 9:
        raise MalformedDescriptor(f"wTotalLength {wTotal} < 9")
    if wTotal > len(data):
        raise MalformedDescriptor(
            f"wTotalLength {wTotal} overruns the available {len(data)} bytes")
    cfg = ConfigurationDescriptor(bLength, bType, wTotal, bNumIf, bConfVal,
                                  iConf, bmAttr, bMaxPower)
    pos = 9
    current_if: InterfaceDescriptor | None = None
    if_eps: list[EndpointDescriptor] = []

    def commit_interface():
        nonlocal current_if, if_eps
        if current_if is not None:
            cfg.interfaces.append(
                InterfaceDescriptor(*current_if[:7], endpoints=tuple(if_eps)))
        current_if = None
        if_eps = []

    while pos < wTotal:
        blen = data[pos]
        if blen < 2:  # a descriptor holds at least bLength and its type
            raise MalformedDescriptor(f"bLength {blen} at offset {pos}")
        if pos + blen > wTotal:
            raise MalformedDescriptor(
                f"descriptor at offset {pos} overruns wTotalLength")
        btype = data[pos + 1]
        raw = bytes(data[pos:pos + blen])
        cfg.blocks.append((btype, raw))
        if btype == 4 and blen >= 9:
            commit_interface()
            current_if = struct.unpack("<BBBBBBB", raw[2:9])
        elif btype == 5 and blen >= 7:
            addr, attr, wmax, interval = struct.unpack("<BBHB", raw[2:7])
            if_eps.append(EndpointDescriptor(addr, attr, wmax, interval))
        pos += blen
    commit_interface()
    distinct = {i.bInterfaceNumber for i in cfg.interfaces}
    if len(distinct) != bNumIf:
        raise MalformedDescriptor(
            f"bNumInterfaces={bNumIf} but blob defines {len(distinct)} "
            f"interface numbers")
    return cfg


# ---------------------------------------------------------------------------
# Match rules
# ---------------------------------------------------------------------------

RULE_FORMS = {
    "USB_DEVICE": MATCH_DEVICE,
    "USB_DEVICE_VER": MATCH_DEVICE | MATCH_DEV_RANGE,
    "USB_DEVICE_INFO": MATCH_DEV_INFO,
    "USB_INTERFACE_INFO": MATCH_INT_INFO,
    "USB_DEVICE_INTERFACE_CLASS": MATCH_DEVICE | MATCH_INT_CLASS,
    "USB_DEVICE_INTERFACE_PROTOCOL": MATCH_DEVICE | MATCH_INT_PROTOCOL,
    "USB_DEVICE_INTERFACE_NUMBER": MATCH_DEVICE | MATCH_INT_NUMBER,
    "USB_DEVICE_AND_INTERFACE_INFO": MATCH_DEVICE | MATCH_INT_INFO,
    "USB_VENDOR_AND_INTERFACE_INFO": MATCH_VENDOR | MATCH_INT_INFO,
    "USUAL_DEV": MATCH_INT_INFO,
}


@dataclass(frozen=True)
class MatchRule:
    form: str
    driver: str
    match_flags: int
    idVendor: int = 0
    idProduct: int = 0
    bcdDevice_lo: int = 0
    bcdDevice_hi: int = 0
    bDeviceClass: int = 0
    bDeviceSubClass: int = 0
    bDeviceProtocol: int = 0
    bInterfaceClass: int = 0
    bInterfaceSubClass: int = 0
    bInterfaceProtocol: int = 0
    bInterfaceNumber: int = 0

    def matches(self, device: DeviceDescriptor,
                interface: InterfaceDescriptor | None) -> bool:
        f = self.match_flags
        if f & MATCH_INT_ANY and interface is None:
            return False
        for flag, (_key, name, on_iface, field_name, _bits,
                   refuses) in _MATCH_FIELDS.items():
            if f & flag and refuses(
                    getattr(interface if on_iface else device, field_name),
                    getattr(self, name)):
                return False
        return True


# What each match flag tests, one row per flag: its rule-file key, its
# MatchRule field, whether the descriptor field is the interface's (else
# the device's), that field, the width in bits, and the comparison of
# (descriptor value, rule value) that refuses a match. The bcdDevice bounds
# are a range; every other flag tests equality. class, subclass and
# protocol key two rows each, the device's first: a form that matches any
# interface info field takes the interface's.
_MATCH_FIELDS = {
    MATCH_VENDOR: ("vid", "idVendor", False, "idVendor", 16, ne),
    MATCH_PRODUCT: ("pid", "idProduct", False, "idProduct", 16, ne),
    MATCH_DEV_LO: ("lo", "bcdDevice_lo", False, "bcdDevice", 16, lt),
    MATCH_DEV_HI: ("hi", "bcdDevice_hi", False, "bcdDevice", 16, gt),
    MATCH_DEV_CLASS: ("class", "bDeviceClass", False, "bDeviceClass", 8, ne),
    MATCH_DEV_SUBCLASS: ("subclass", "bDeviceSubClass", False,
                         "bDeviceSubClass", 8, ne),
    MATCH_DEV_PROTOCOL: ("protocol", "bDeviceProtocol", False,
                         "bDeviceProtocol", 8, ne),
    MATCH_INT_CLASS: ("class", "bInterfaceClass", True, "bInterfaceClass",
                      8, ne),
    MATCH_INT_SUBCLASS: ("subclass", "bInterfaceSubClass", True,
                         "bInterfaceSubClass", 8, ne),
    MATCH_INT_PROTOCOL: ("protocol", "bInterfaceProtocol", True,
                         "bInterfaceProtocol", 8, ne),
    MATCH_INT_NUMBER: ("number", "bInterfaceNumber", True,
                       "bInterfaceNumber", 8, ne),
}


def _rule_from_parts(form: str, driver: str, kv: dict[str, int]) -> MatchRule:
    """A rule of `form` with each key's value in its field. ValueError for an
    unknown form or key, a key the form does not match on, or a value that
    does not fit its field."""
    if form not in RULE_FORMS:
        raise ValueError(f"unknown rule form {form}")
    flags = RULE_FORMS[form]
    # USUAL_DEV pins the interface class, so no rule sets it
    settable = flags & ~MATCH_INT_CLASS if form == "USUAL_DEV" else flags
    int_side = bool(flags & MATCH_INT_INFO)
    fields: dict[str, int] = {}
    for key, value in kv.items():
        rows = [flag for flag, row in _MATCH_FIELDS.items() if row[0] == key]
        if not rows:
            raise ValueError(f"unknown rule field {key}")
        flag = rows[-1] if int_side else rows[0]
        _key, name, _on_iface, _field, bits, _refuses = _MATCH_FIELDS[flag]
        if not settable & flag:
            raise ValueError(f"{form} does not take {key}")
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{key}={value} does not fit in {bits} bits")
        fields[name] = value
    if form == "USUAL_DEV":
        fields["bInterfaceClass"] = USB_CLASS_MASS_STORAGE
    return MatchRule(form, driver, flags, **fields)


def load_rules(text: str) -> list[MatchRule]:
    """One rule per line: `FORM driver key=value ...` (values hex or decimal).
    ValueError `rule line N: ...` for a line `_rule_from_parts` refuses, one
    that gives a key twice, or a value that is not a number."""
    rules = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"rule line {line_no}: {raw!r}")
        form, driver = parts[0], parts[1]
        kv = {}
        for p in parts[2:]:
            k, _, v = p.partition("=")
            if k in kv:
                raise ValueError(f"rule line {line_no}: {k} given twice")
            try:
                kv[k] = int(v, 0)
            except ValueError:
                raise ValueError(f"rule line {line_no}: {k}={v!r} is not "
                                 f"a number") from None
        try:
            rules.append(_rule_from_parts(form, driver, kv))
        except ValueError as e:
            raise ValueError(f"rule line {line_no}: {e}") from None
    return rules


@cache
def default_rules() -> tuple[MatchRule, ...]:
    """The packaged rule file (`data/usb_rules.txt`), parsed on the first
    call. Every call returns the same immutable tuple of frozen rules."""
    text = (resources.files("usbvet") / "data" / "usb_rules.txt").read_text()
    return tuple(load_rules(text))


def match_drivers(device: DeviceDescriptor, interfaces,
                  rules: Sequence[MatchRule] | None = None
                  ) -> list[tuple[str, str]]:
    """All (rule form, driver) pairs the OS would consider for this device,
    under `rules`, or the shared `default_rules()` when None.

    Interface-level rules are evaluated once per interface; device-only
    rules once. No priority ordering is modeled: every match is reported.
    """
    if rules is None:
        rules = default_rules()
    out: list[tuple[str, str]] = []
    seen = set()
    for rule in rules:
        needs_iface = bool(rule.match_flags & MATCH_INT_ANY)
        candidates = list(interfaces) if needs_iface else [None]
        for iface in candidates:
            if rule.matches(device, iface) and (rule.form, rule.driver) not in seen:
                seen.add((rule.form, rule.driver))
                out.append((rule.form, rule.driver))
    return out


# ---------------------------------------------------------------------------
# Claimed model and comparison
# ---------------------------------------------------------------------------

@dataclass
class ClaimedInterface:
    cls: int
    subclass: int
    protocol: int
    confirmed: bool           # backed by a reached target, not just bytes
    evidence: str             # target address / descriptor provenance


@dataclass
class ClaimedModel:
    device_class: int | None
    device_protocol: int | None
    interfaces: list[ClaimedInterface]
    endpoints: list[dict]


@dataclass
class Verdict:
    consistent: bool
    reasons: list[str]
    warnings: list[str]


EXPECTED_CLASS_SETS = {
    "mass-storage": {USB_CLASS_MASS_STORAGE},
    "hid": {USB_CLASS_HID},
    "composite": {USB_CLASS_HID, USB_CLASS_MASS_STORAGE},
    "unknown": None,
}


def compare_models(claimed: ClaimedModel, expected_class: str) -> Verdict:
    """Anomalous iff a reachable claimed interface class falls outside the
    expected set. Statically-present-but-unconfirmed mismatches are warnings."""
    expected = EXPECTED_CLASS_SETS.get(expected_class)
    if expected is None:
        return Verdict(True, [], ["expected class unknown: identity "
                                  "comparison skipped"])
    reasons = []
    warnings = []
    for iface in claimed.interfaces:
        if iface.cls in expected:
            continue
        msg = (f"interface class 0x{iface.cls:02x} outside expected "
               f"{sorted(expected)} ({iface.evidence})")
        if iface.confirmed:
            reasons.append(msg)
        else:
            warnings.append("unconfirmed " + msg)
    return Verdict(not reasons, reasons, warnings)
