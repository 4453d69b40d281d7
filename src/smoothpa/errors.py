"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalAssertionError -> 3.
"""


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


class NumericalAssertionError(AssertionError):
    """A runtime numerical guarantee was violated (smoothness, truncation range, ...)."""


class SmoothnessError(NumericalAssertionError):
    """A distribution failed the sigma-smoothness check."""


class InfiniteLossError(ArithmeticError):
    """Deterministic prediction contradicted by the realized label: log-loss is infinite."""
