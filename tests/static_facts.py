"""The static facts of an image, built as `cli.run_pipeline` builds them."""

from usbvet import lifter, usbstatic


def static_facts(image: bytes) -> usbstatic.PropMap:
    program = lifter.lift_program(image)
    return usbstatic.prop_const_mem(usbstatic.reachable_instructions(program),
                                    program)
