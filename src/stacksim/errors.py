"""Exception types shared across the package, and the one reader of config objects."""

import json
import math
from dataclasses import MISSING, fields


class ConfigurationError(ValueError):
    """Inconsistent geometry, dimensions, or layer configuration."""


class ValidationError(ValueError):
    """Experiment configuration failed validation; message lists every violation."""


# JSON value types accepted for each scalar field annotation, and their names;
# a ``tuple[int, int]`` grid shape must be a list of two integers, and other
# annotations (enums, nested sections) are left to their readers.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "dict": (dict,)}
_NAMES = {"int": "an integer", "float": "a number", "bool": "a boolean", "dict": "a JSON object"}


def read_object(section: str, data, cls) -> dict:
    """Checked copy of the JSON object ``data`` of config section ``section``,
    whose fields are those of the dataclass ``cls``.

    Rejects a value that is not an object, fields ``cls`` does not have,
    missing fields that ``cls`` gives no default, and scalar values and grid
    shapes whose JSON type does not match the field's annotation (``true`` is
    not an integer; an integer is a number), and NaN or infinite numbers.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{section} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {section} fields: {', '.join(unknown)}")
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    missing = sorted(required - set(data))
    if missing:
        raise ConfigurationError(f"missing {section} fields: {', '.join(missing)}")
    for f in fields(cls):
        value = data.get(f.name)
        kinds = [k.strip() for k in str(getattr(f.type, "__name__", f.type)).split("|")]
        if f.name not in data or (value is None and "None" in kinds):
            continue
        if kinds[0] == "tuple[int, int]":
            if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value)):
                got = json.dumps(value) if isinstance(value, list) else type(value).__name__
                raise ConfigurationError(f"{section} field {f.name} must be a list of two integers, got {got}")
        elif kinds[0] in _JSON_TYPES:
            types, expected = _JSON_TYPES[kinds[0]], _NAMES[kinds[0]]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ConfigurationError(f"{section} field {f.name} must be {expected}, got {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{section} field {f.name} must be a finite number, got {json.dumps(value)}")
    return dict(data)
