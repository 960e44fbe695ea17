"""Presentation files with their names changed: the tests that verdicts,
normal forms and step charges do not depend on names rename a file's
generators (and parameters), each in its place, to names that sort the
other way round."""

import re


def section_names(text: str, section: str) -> list[str]:
    """The names listed in a ``.preso`` section, in their order."""
    names, current = [], None
    for line in text.splitlines():
        line = line.split("#", 1)[0].split("@", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
        elif current == section:
            names += line.split()
    return names


def reversed_names(names: list[str], prefix: str) -> dict[str, str]:
    """Each of ``names`` mapped to ``<prefix><k>x``, ``k`` counting down to
    1: in their order, the new names sort the other way round."""
    assert len(names) < 10  # g10x would sort before g9x
    return {name: f"{prefix}{len(names) - k}x" for k, name in enumerate(names)}


def substituted(text: str, mapping: dict[str, str]) -> str:
    """``text`` with each whole name in ``mapping`` replaced."""
    alternatives = "|".join(map(re.escape, sorted(mapping, key=len,
                                                  reverse=True)))
    return re.sub(rf"(?<!\w)(?:{alternatives})(?!\w)",
                  lambda m: mapping[m.group()], text)
