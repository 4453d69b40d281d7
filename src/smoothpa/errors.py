"""Exception taxonomy shared across the package, the readers of outside input
that raise it, and the writer of the JSON documents the package emits.

The CLI maps these onto exit codes: ConfigError -> 2, NumericalAssertionError and
InfiniteLossError -> 3.
"""

import json
import math


class ConfigError(ValueError):
    """Malformed experiment configuration. Message carries the offending field path."""


def parse_field(value, name: str, cast):
    """cast(value); a bool, a string (JSON "64" is not the number 64), a
    non-integral number for an int cast, or a value the cast rejects raises
    ConfigError naming the field."""
    try:
        if isinstance(value, (bool, str)) or (cast is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: {value!r} is not a valid {cast.__name__}") from None


def read_ids(values, name: str, size) -> list:
    """The JSON list `values` of context ids in [0, size), as Python ints; a bad
    one raises ConfigError naming it, e.g. `adversary.set[1]: 1.5 is not a valid
    int`. A list of plain ints has its types checked as a whole and comes back as is."""
    if not isinstance(values, list):
        raise ConfigError(f"{name}: must be a list of context ids")
    ids = values if set(map(type, values)) <= {int} else [
        parse_field(v, f"{name}[{i}]", int) for i, v in enumerate(values)]
    if ids and (min(ids) < 0 or max(ids) >= size):
        i = next(i for i, v in enumerate(ids) if not 0 <= v < size)
        raise ConfigError(f"{name}[{i}]: context id {ids[i]} outside [0, {size})")
    return ids


def positive_finite(value: float, name: str) -> float:
    """value, if it is positive and finite; otherwise ConfigError naming the field."""
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name}: {value:g} must be positive and finite")
    return value


def check_keys(obj: dict, path: str, known) -> None:
    """Reject a key of `obj` that its reader does not read, as ConfigError
    naming its path, e.g. `learner.kt.betta: unknown key`; `path` is the
    object's own path, empty at the top level of a config."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def allocate(size: int, name: str, unit: str, make):
    """make(), an array of `size` rows; numpy's refusal to allocate it raises
    ConfigError naming the field, e.g. `T: 4611686018427387904 rounds are more
    than numpy can allocate`. Near 2**63 np.arange returns an empty array
    instead of refusing, so a short result counts as a refusal too."""
    try:
        arr = make()
    except (ValueError, MemoryError):
        arr = None
    if arr is None or len(arr) != size:
        raise ConfigError(f"{name}: {size} {unit} are more than numpy can allocate")
    return arr


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


# Encodes each scalar of a document; items are joined by a bare newline, which
# no encoded scalar holds, so the joined text splits back into the scalars
_ENCODE_SCALARS = json.JSONEncoder(separators=("\n", ": ")).encode
_CONTAINERS = (list, tuple, dict)


def format_json(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), byte for byte,
    for a document without cycles, from the C encoder in place of the
    pure-Python one json.dumps uses for any `indent`. One walk in Python lays
    out every nonempty dict and list. A list of scalars alone is encoded by
    one call; every other key and scalar (an empty container counts as one)
    gets a `%s` slot, and one more call encodes all of them."""
    if not (isinstance(obj, _CONTAINERS) and obj):
        return _ENCODE_SCALARS(obj)
    scalars, template = [], []
    _lay_out(obj, "\n", scalars, template)
    texts = _ENCODE_SCALARS(scalars)[1:-1].split("\n") if scalars else ()
    return "".join(template) % tuple(texts)


def _lay_out(obj, newline: str, scalars: list, template: list) -> None:
    """Append the nonempty container obj's layout to template and the keys and
    scalars of its slots, in order, to scalars; newline is its own line start."""
    inner = newline + "  "
    if isinstance(obj, dict):
        template.append("{" + inner)
        for i, (key, value) in enumerate(sorted(obj.items())):
            scalars.append(_key_text(key))
            sep = "," + inner if i else ""
            if isinstance(value, _CONTAINERS) and value:
                template.append(sep + "%s: ")
                _lay_out(value, inner, scalars, template)
            else:
                scalars.append(value)
                template.append(sep + "%s: %s")
        template.append(newline + "}")
    elif any(issubclass(t, _CONTAINERS) for t in set(map(type, obj))):
        template.append("[" + inner)
        for i, value in enumerate(obj):
            if i:
                template.append("," + inner)
            if isinstance(value, _CONTAINERS) and value:
                _lay_out(value, inner, scalars, template)
            else:
                scalars.append(value)
                template.append("%s")
        template.append(newline + "]")
    else:
        # a list of scalars alone: one call of its own, a few strings in place
        # of one per scalar; `%` is doubled, as the template is filled with %
        text = _ENCODE_SCALARS(obj)[1:-1].replace("\n", "," + inner).replace("%", "%%")
        template.append("[" + inner + text + newline + "]")


def _key_text(key) -> str:
    """The string json writes for a dict key: the key itself, or the JSON text
    of an int, float, bool or None key."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _ENCODE_SCALARS(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


class NumericalAssertionError(AssertionError):
    """A runtime numerical guarantee was violated (smoothness, truncation range, ...)."""


class SmoothnessError(NumericalAssertionError):
    """A distribution failed the sigma-smoothness check."""


class InfiniteLossError(ArithmeticError):
    """Deterministic prediction contradicted by the realized label: log-loss is infinite."""
