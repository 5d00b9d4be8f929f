"""Exception taxonomy shared by all donlab modules, and the checks of outside input."""

import json
import math
from pathlib import Path


class DonlabError(Exception):
    """Base class for all donlab errors."""


class ConfigurationError(DonlabError, ValueError):
    """A config object or plan is invalid (bad dims, infeasible sizing, ...)."""


class InputError(DonlabError, ValueError):
    """Runtime arguments violate an operation's preconditions."""


class FormatError(DonlabError, ValueError):
    """A file on disk does not match the expected schema."""


class NumericalError(DonlabError, RuntimeError):
    """A numerical procedure failed (non-PD kernel, non-finite loss, ...)."""


class DivergenceError(NumericalError):
    """A time-stepping solve blew up."""


def check_number(name: str, value, error: type[DonlabError], *, count: bool = False,
                 finite: bool = False, at_least=None, above=None, below=None) -> None:
    """Raise error("{name} must be {rule}, got {value!r}") unless value obeys the rule.

    A count must be an int, any other number an int or a float; a bool is
    neither, and nothing is converted. finite excludes +-inf; at_least, above
    and below (given with one of the other two) bound the value; NaN fails.
    """
    if (isinstance(value, bool) or not isinstance(value, int if count else (int, float))
            or value != value or (finite and not -math.inf < value < math.inf)
            or (at_least is not None and not value >= at_least)
            or (above is not None and not value > above)
            or (below is not None and not value < below)):
        rule = "an int" if count else "a finite number" if finite else "a number"
        low = at_least if above is None else above
        if below is not None:
            rule += f" in {'[' if above is None else '('}{low}, {below})"
        elif low is not None:
            rule += f" {'>=' if above is None else '>'} {low}"
        raise error(f"{name} must be {rule}, got {value!r}")


def read_json_object(path, what: str) -> dict:
    """The JSON object held by the file at path; what names the file in errors.

    A missing file raises InputError, invalid JSON or a value that is not an
    object FormatError.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError as exc:
        raise InputError(f"{what} not found: {path}") from exc
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise FormatError(f"{what} {path} must hold a JSON object")
    return value
