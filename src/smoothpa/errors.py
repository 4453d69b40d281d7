"""Exception taxonomy shared across the package, and the readers of outside input
that raise it.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalAssertionError and
InfiniteLossError -> 3.
"""

import json


class ConfigError(ValueError):
    """Malformed experiment configuration. Message carries the offending field path."""


def parse_field(value, name: str, cast):
    """cast(value); a bool, a non-integral number for an int cast, or a value
    the cast rejects raises ConfigError naming the field."""
    try:
        if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: {value!r} is not a valid {cast.__name__}") from None


def load_json(path, name: str):
    """The JSON document in the UTF-8 file at `path`. A file that is missing,
    unreadable (a directory, say), not UTF-8, not JSON or nested deeper than
    the decoder recurses raises ConfigError naming the input, e.g.
    `config: cannot read out: Is a directory`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{name}: file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"{name}: cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{name}: {path} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{name}: invalid JSON in {path} ({e})") from None
    except RecursionError:
        raise ConfigError(f"{name}: {path} nests too deeply") from None


class NumericalAssertionError(AssertionError):
    """A runtime numerical guarantee was violated (smoothness, truncation range, ...)."""


class SmoothnessError(NumericalAssertionError):
    """A distribution failed the sigma-smoothness check."""


class InfiniteLossError(ArithmeticError):
    """Deterministic prediction contradicted by the realized label: log-loss is infinite."""
