"""The out_dir file names heavecast.cli.STAGE_FILES gives, for the tests."""

import re

from heavecast.cli import STAGE_FILES

# a template's field, or the field of an issue file's index left after formatting
_FIELD = re.compile(r"\{+[^}]*\}+")


def glob(template: str) -> str:
    """The glob of every file template names: each field a `*`."""
    return _FIELD.sub("*", template)


def names(templates, model: str = "hybrid", horizons=(0,)) -> list[str]:
    """The out_dir names templates give for model at each of horizons, each
    once and in order; the files of a directory as a glob of every index."""
    found = []
    for template in templates:
        for h in horizons:
            name = glob(template.format(h=h, model=model))
            if name not in found:
                found.append(name)
    return found


def reads(stage: str, model: str = "hybrid", horizons=(0,)) -> list[str]:
    """The out_dir names stage reads."""
    return names(STAGE_FILES[stage][0], model, horizons)


def writes(stage: str, model: str = "hybrid", horizons=(0,)) -> list[str]:
    """The out_dir names stage writes."""
    return names(STAGE_FILES[stage][1], model, horizons)
