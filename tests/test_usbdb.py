import random

import pytest

from usbvet import usbdb
from usbvet.usbdb import (ClaimedInterface, ClaimedModel, DeviceDescriptor,
                          InterfaceDescriptor, MatchRule, RULE_FORMS,
                          compare_models, match_drivers,
                          parse_configuration, parse_device_descriptor)


def make_device(**kw):
    fields = dict(bLength=18, bDescriptorType=1, bcdUSB=0x0200,
                  bDeviceClass=0, bDeviceSubClass=0, bDeviceProtocol=0,
                  bMaxPacketSize0=64, idVendor=0x1234, idProduct=0x5678,
                  bcdDevice=0x0100, iManufacturer=1, iProduct=2,
                  iSerialNumber=0, bNumConfigurations=1)
    fields.update(kw)
    return DeviceDescriptor(**fields)


def make_interface(**kw):
    fields = dict(bInterfaceNumber=0, bAlternateSetting=0, bNumEndpoints=1,
                  bInterfaceClass=3, bInterfaceSubClass=1,
                  bInterfaceProtocol=1, iInterface=0)
    fields.update(kw)
    return InterfaceDescriptor(**fields)


# spec example blob: config + interface(class 3) + HID class desc + intr-IN EP
CONFIG_BLOB = bytes([0x09, 0x02, 0x22, 0x00, 0x01, 0x01, 0x00, 0x80, 0x32,
                     0x09, 0x04, 0x00, 0x00, 0x01, 0x03, 0x01, 0x01, 0x00,
                     0x09, 0x21, 0x11, 0x01, 0x00, 0x01, 0x22, 0x3F, 0x00,
                     0x07, 0x05, 0x81, 0x03, 0x08, 0x00, 0x0A])


def test_parse_device_descriptor_field_map():
    raw = bytes([0x12, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x40,
                 0x34, 0x12, 0x78, 0x56, 0x00, 0x01, 0x01, 0x02,
                 0x00, 0x01])
    d = parse_device_descriptor(raw)
    assert d.idVendor == 0x1234 and d.idProduct == 0x5678  # little-endian
    assert d.bcdUSB == 0x0200 and d.bcdDevice == 0x0100
    assert d.bNumConfigurations == 1
    assert d.to_bytes() == raw


def test_parse_device_descriptor_rejects_bad_header():
    with pytest.raises(usbdb.MalformedDescriptor):
        parse_device_descriptor(bytes([0x11, 0x01] + [0] * 16))
    with pytest.raises(usbdb.MalformedDescriptor):
        parse_device_descriptor(bytes(4))


def test_parse_configuration_tree():
    cfg = parse_configuration(CONFIG_BLOB)
    assert cfg.wTotalLength == 0x22
    assert len(cfg.interfaces) == 1
    iface = cfg.interfaces[0]
    assert (iface.bInterfaceClass, iface.bInterfaceSubClass,
            iface.bInterfaceProtocol) == (3, 1, 1)
    assert len(iface.endpoints) == 1
    ep = iface.endpoints[0]
    assert ep.transfer_type == "interrupt" and ep.direction_in
    assert ep.wMaxPacketSize == 8


def test_parse_configuration_roundtrip_exact():
    cfg = parse_configuration(CONFIG_BLOB)
    assert cfg.to_bytes() == CONFIG_BLOB


def test_parse_configuration_zero_blength():
    blob = bytearray(CONFIG_BLOB)
    blob[9] = 0
    with pytest.raises(usbdb.MalformedDescriptor):
        parse_configuration(bytes(blob))


def test_parse_configuration_one_byte_blength_at_the_end():
    # a bLength of 1 as the last byte: the type byte would lie past the blob
    with pytest.raises(usbdb.MalformedDescriptor,
                       match="^bLength 1 at offset 9$"):
        parse_configuration(bytes.fromhex("09020a00020100803201"))


def test_parse_configuration_overrun():
    with pytest.raises(usbdb.MalformedDescriptor):
        parse_configuration(CONFIG_BLOB[:12])


def test_default_rules_cover_all_ten_forms():
    rules = usbdb.default_rules()
    assert {r.form for r in rules} == set(RULE_FORMS)


def test_default_rules_are_one_shared_tuple():
    rules = usbdb.default_rules()
    assert type(rules) is tuple and usbdb.default_rules() is rules
    with pytest.raises(AttributeError):
        rules[0].driver = "other"  # frozen


def test_usb_device_rule_semantics():
    rule = MatchRule("USB_DEVICE", "drv", usbdb.MATCH_DEVICE,
                     idVendor=0x1234, idProduct=0x5678)
    assert rule.matches(make_device(), None)
    assert not rule.matches(make_device(idVendor=0x9999), None)
    assert not rule.matches(make_device(idProduct=0x0001), None)
    # non-participating fields are ignored
    assert rule.matches(make_device(bDeviceClass=0xFF, bcdDevice=0xFFFF), None)


def test_usb_interface_info_ignores_vid_pid():
    rule = MatchRule("USB_INTERFACE_INFO", "drv", usbdb.MATCH_INT_INFO,
                     bInterfaceClass=3, bInterfaceSubClass=1,
                     bInterfaceProtocol=1)
    assert rule.matches(make_device(idVendor=0xAAAA, idProduct=0xBBBB),
                        make_interface())
    assert not rule.matches(make_device(), make_interface(bInterfaceProtocol=2))


def test_usb_device_ver_range():
    rule = MatchRule("USB_DEVICE_VER", "drv",
                     usbdb.MATCH_DEVICE | usbdb.MATCH_DEV_RANGE,
                     idVendor=0x1234, idProduct=0x5678,
                     bcdDevice_lo=0x0100, bcdDevice_hi=0x0200)
    assert rule.matches(make_device(bcdDevice=0x0100), None)
    assert rule.matches(make_device(bcdDevice=0x0200), None)
    assert not rule.matches(make_device(bcdDevice=0x0201), None)
    assert not rule.matches(make_device(bcdDevice=0x00FF), None)


def test_usual_dev_pins_mass_storage_class():
    [rule] = usbdb.load_rules("USUAL_DEV usb-storage subclass=0x06 protocol=0x50")
    assert rule.bInterfaceClass == usbdb.USB_CLASS_MASS_STORAGE
    storage_if = make_interface(bInterfaceClass=8, bInterfaceSubClass=6,
                                bInterfaceProtocol=0x50)
    assert rule.matches(make_device(), storage_if)
    assert not rule.matches(make_device(), make_interface())


def test_interface_rule_requires_interface():
    rule = MatchRule("USB_INTERFACE_INFO", "drv", usbdb.MATCH_INT_INFO,
                     bInterfaceClass=3, bInterfaceSubClass=1,
                     bInterfaceProtocol=1)
    assert not rule.matches(make_device(), None)


def test_match_table_has_one_row_per_flag_and_every_key_resolves():
    flags = {v for k, v in vars(usbdb).items()
             if k.startswith("MATCH_") and v & (v - 1) == 0}
    assert len(flags) == 11 and set(usbdb._MATCH_FIELDS) == flags
    # every rule-file key, each row at its field's width
    widths = {"vid": 16, "pid": 16, "lo": 16, "hi": 16,
              "class": 8, "subclass": 8, "protocol": 8, "number": 8}
    rule_fields = set(MatchRule.__dataclass_fields__)
    for key, name, on_iface, field, width, _ in usbdb._MATCH_FIELDS.values():
        assert name in rule_fields and width == widths[key]
        side = InterfaceDescriptor if on_iface else DeviceDescriptor
        assert field in side.__dataclass_fields__
    assert {row[0] for row in usbdb._MATCH_FIELDS.values()} == set(widths)
    # each form takes the key of every flag it sets, into that flag's field,
    # at the field's widest value and no wider
    for form, flags in RULE_FORMS.items():
        for flag, (key, name, _, _, width, _) in usbdb._MATCH_FIELDS.items():
            if not flags & flag or (form == "USUAL_DEV"
                                    and flag == usbdb.MATCH_INT_CLASS):
                continue
            top = (1 << width) - 1
            rule = usbdb._rule_from_parts(form, "drv", {key: top})
            assert getattr(rule, name) == top, (form, key)
            with pytest.raises(ValueError, match="does not fit"):
                usbdb._rule_from_parts(form, "drv", {key: top + 1})


_FIELD_SETTERS = {
    usbdb.MATCH_VENDOR: ("device", "idVendor"),
    usbdb.MATCH_PRODUCT: ("device", "idProduct"),
    usbdb.MATCH_DEV_CLASS: ("device", "bDeviceClass"),
    usbdb.MATCH_DEV_SUBCLASS: ("device", "bDeviceSubClass"),
    usbdb.MATCH_DEV_PROTOCOL: ("device", "bDeviceProtocol"),
    usbdb.MATCH_INT_CLASS: ("iface", "bInterfaceClass"),
    usbdb.MATCH_INT_SUBCLASS: ("iface", "bInterfaceSubClass"),
    usbdb.MATCH_INT_PROTOCOL: ("iface", "bInterfaceProtocol"),
    usbdb.MATCH_INT_NUMBER: ("iface", "bInterfaceNumber"),
}

_RULE_FIELD = {
    usbdb.MATCH_VENDOR: "idVendor", usbdb.MATCH_PRODUCT: "idProduct",
    usbdb.MATCH_DEV_CLASS: "bDeviceClass",
    usbdb.MATCH_DEV_SUBCLASS: "bDeviceSubClass",
    usbdb.MATCH_DEV_PROTOCOL: "bDeviceProtocol",
    usbdb.MATCH_INT_CLASS: "bInterfaceClass",
    usbdb.MATCH_INT_SUBCLASS: "bInterfaceSubClass",
    usbdb.MATCH_INT_PROTOCOL: "bInterfaceProtocol",
    usbdb.MATCH_INT_NUMBER: "bInterfaceNumber",
}


def build_matching_pair(rng, form):
    """A rule of the given form plus a (device, interface) that matches it."""
    dev = dict(idVendor=rng.randrange(0x10000),
               idProduct=rng.randrange(0x10000),
               bcdDevice=rng.randrange(0x10000),
               bDeviceClass=rng.randrange(256),
               bDeviceSubClass=rng.randrange(256),
               bDeviceProtocol=rng.randrange(256))
    ifc = dict(bInterfaceNumber=rng.randrange(8),
               bInterfaceClass=rng.randrange(256),
               bInterfaceSubClass=rng.randrange(256),
               bInterfaceProtocol=rng.randrange(256))
    if form == "USUAL_DEV":
        ifc["bInterfaceClass"] = usbdb.USB_CLASS_MASS_STORAGE
    flags = RULE_FORMS[form]
    rule_fields = {}
    for bit, fieldname in _RULE_FIELD.items():
        if flags & bit:
            src = dev if fieldname.startswith(("id", "bDevice")) else ifc
            rule_fields[fieldname] = src[fieldname]
    if flags & usbdb.MATCH_DEV_LO:
        rule_fields["bcdDevice_lo"] = max(0, dev["bcdDevice"] - rng.randrange(64))
    if flags & usbdb.MATCH_DEV_HI:
        rule_fields["bcdDevice_hi"] = min(0xFFFF,
                                          dev["bcdDevice"] + rng.randrange(64))
    rule = MatchRule(form, "drv", flags, **rule_fields)
    return rule, make_device(**dev), make_interface(**ifc)


def test_rule_flag_faithfulness_randomized():
    """For every rule form: each participating field, when perturbed, breaks
    the match; each non-participating field never affects it."""
    rng = random.Random(2024)
    forms = sorted(RULE_FORMS)
    for trial in range(1500):
        form = forms[trial % len(forms)]
        rule, dev, ifc = build_matching_pair(rng, form)
        assert rule.matches(dev, ifc), form
        flags = rule.match_flags
        # perturbing a participating scalar field must break the match
        for bit, fieldname in _RULE_FIELD.items():
            if not flags & bit:
                continue
            side, attr = _FIELD_SETTERS[bit]
            if side == "device":
                broken = DeviceDescriptor(**{**dev.__dict__,
                                             attr: getattr(dev, attr) ^ 0x01})
                assert not rule.matches(broken, ifc), (form, attr)
            else:
                broken = InterfaceDescriptor(**{
                    **{k: getattr(ifc, k) for k in (
                        "bInterfaceNumber", "bAlternateSetting",
                        "bNumEndpoints", "bInterfaceClass",
                        "bInterfaceSubClass", "bInterfaceProtocol",
                        "iInterface")},
                    attr: getattr(ifc, attr) ^ 0x01})
                assert not rule.matches(dev, broken), (form, attr)
        # toggling any non-participating field never changes the outcome
        for bit, fieldname in _RULE_FIELD.items():
            if flags & bit:
                continue
            side, attr = _FIELD_SETTERS[bit]
            if side == "device":
                other = DeviceDescriptor(**{**dev.__dict__,
                                            attr: rng.randrange(0x10000)
                                            if attr.startswith("id")
                                            else rng.randrange(256)})
                assert rule.matches(other, ifc), (form, attr)
            else:
                fields = {k: getattr(ifc, k) for k in (
                    "bInterfaceNumber", "bAlternateSetting", "bNumEndpoints",
                    "bInterfaceClass", "bInterfaceSubClass",
                    "bInterfaceProtocol", "iInterface")}
                fields[attr] = rng.randrange(256)
                assert rule.matches(dev, InterfaceDescriptor(**fields)) \
                    or (form == "USUAL_DEV" and attr == "bInterfaceClass"), \
                    (form, attr)


def test_match_drivers_reports_all_matches():
    rules = usbdb.load_rules("\n".join([
        "USB_DEVICE widget vid=0x1234 pid=0x5678",
        "USB_INTERFACE_INFO usbhid class=0x03 subclass=0x01 protocol=0x01",
        "USB_DEVICE other vid=0x9999 pid=0x9999",
    ]))
    got = match_drivers(make_device(), [make_interface()], rules)
    assert ("USB_DEVICE", "widget") in got
    assert ("USB_INTERFACE_INFO", "usbhid") in got
    assert ("USB_DEVICE", "other") not in got


def test_compare_models_consistent():
    m = ClaimedModel(0, 0, [ClaimedInterface(8, 6, 0x50, True, "config")],
                     [])
    v = compare_models(m, "mass-storage")
    assert v.consistent and not v.reasons


def test_compare_models_anomalous_cites_evidence():
    m = ClaimedModel(0, 0, [
        ClaimedInterface(8, 6, 0x50, True, "config"),
        ClaimedInterface(3, 0, 0, True, "HID report copy at 0x0097 reached"),
    ], [])
    v = compare_models(m, "mass-storage")
    assert not v.consistent
    assert "0x0097" in v.reasons[0]


def test_compare_models_orthogonal_to_behavior():
    # identity consistent even when Query 2 flagged something: the verdicts
    # are orthogonal (pipeline combines them)
    m = ClaimedModel(0, 0, [ClaimedInterface(3, 1, 1, True, "config")], [])
    assert compare_models(m, "hid").consistent


def test_compare_models_unknown_expected_skips():
    m = ClaimedModel(0, 0, [ClaimedInterface(3, 1, 1, True, "config")], [])
    v = compare_models(m, "unknown")
    assert v.consistent and v.warnings
