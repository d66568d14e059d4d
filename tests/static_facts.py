"""The static facts of an image, built as `cli.run_pipeline` builds them."""

from usbvet import lifter, usbstatic


def static_facts(image: bytes) -> usbstatic.PropMap:
    return usbstatic.static_facts(lifter.lift_program(image))
