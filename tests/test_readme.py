"""The README's lists of option values are the ones the program accepts:
each list is written once in `src/usbvet`, and the README repeats it."""

import pathlib
import re

from usbvet import cli, queries

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def _bullet(flag: str) -> str:
    """The README's CLI bullet of `flag`, up to the next bullet."""
    m = re.search(r"^\* `" + re.escape(flag) + r"\b.*?(?=^\* |\Z)", README,
                  re.M | re.S)
    assert m, flag
    return m.group()


def test_readme_option_values_are_the_accepted_ones():
    for flag, values in (("--expected", cli.EXPECTED_CLASSES),
                         ("--query", cli.QUERIES),
                         ("--policy", cli.POLICIES)):
        listed = re.match(r"\* `--[\w-]+ \{([^}]*)\}`", _bullet(flag))
        assert listed, flag
        assert tuple(listed.group(1).split(",")) == values, flag


def _first_listed(flag: str) -> tuple[str, ...]:
    """The first parenthesised list of backquoted names in flag's bullet."""
    listed = re.search(r"\(((?:`[^`]+`,\s*)*`[^`]+`)\)", _bullet(flag))
    assert listed, flag
    return tuple(re.findall(r"`([^`]+)`", listed.group(1)))


def test_readme_precondition_relations_are_the_accepted_ones():
    assert _first_listed("--precondition") == queries.RELATIONS


def test_readme_config_keys_are_the_accepted_ones():
    assert _first_listed("--config") == tuple(cli._CONFIG_KEYS)
