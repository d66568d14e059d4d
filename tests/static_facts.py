"""The static facts of an image, built as `cli.run_pipeline` builds them."""

from usbvet import usbstatic


def static_facts(image: bytes) -> usbstatic.PropMap:
    return usbstatic.prop_const_mem(usbstatic.reachable_instructions(image))
