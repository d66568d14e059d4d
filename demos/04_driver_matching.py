#!/usr/bin/env python3
"""Descriptor parsing and driver matching in isolation: parse the descriptor
blobs out of a generated image and ask which kernel-style rules would bind."""

from usbvet import fwkit, lifter, usbdb, usbstatic

image, manifest = fwkit.generate_fixture(
    fwkit.FixtureSpec(template="storage-claiming-hid"))

hits = usbstatic.scan_with_xrefs(
    image, usbstatic.reachable_instructions(lifter.lift_program(image)))
print("signature hits:")
for h in hits:
    xr = ", ".join(f"0x{x:04x}" for x in h.xrefs) or "-"
    print(f"  {h.name:<16} at 0x{h.addr:04x}  bytes {h.matched.hex()}  xrefs {xr}")

device = usbdb.parse_device_descriptor(image[manifest.descriptors["DEVICE_DESC"]:])
config = usbdb.parse_configuration(image[manifest.descriptors["CONFIG_DESC"]:])

print(f"\ndevice: vid=0x{device.idVendor:04x} pid=0x{device.idProduct:04x} "
      f"class={device.bDeviceClass}")
for iface in config.interfaces:
    eps = ", ".join(f"{e.transfer_type}/{'in' if e.direction_in else 'out'}"
                    for e in iface.endpoints)
    print(f"interface {iface.bInterfaceNumber}: class {iface.bInterfaceClass} "
          f"subclass {iface.bInterfaceSubClass} protocol "
          f"{iface.bInterfaceProtocol} endpoints [{eps}]")

print("\nmatching rules (kernel semantics, all matches reported):")
for form, driver in usbdb.match_drivers(device, config.interfaces):
    print(f"  {form:<28} -> {driver}")

print("\nround-trip check: serializing the parsed configuration reproduces")
blob = image[manifest.descriptors["CONFIG_DESC"]:]
print("the original bytes exactly:",
      config.to_bytes() == bytes(blob[:config.wTotalLength]))
