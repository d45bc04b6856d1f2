"""Exception types shared across the package, and the one reader of config objects."""

from dataclasses import MISSING, fields


class ConfigurationError(ValueError):
    """Inconsistent geometry, dimensions, or layer configuration."""


class ValidationError(ValueError):
    """Experiment configuration failed validation; message lists every violation."""


def read_object(section: str, data, cls) -> dict:
    """Checked copy of the JSON object ``data`` of config section ``section``,
    whose fields are those of the dataclass ``cls``.

    Rejects a value that is not an object, fields ``cls`` does not have, and
    missing fields that ``cls`` gives no default.
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
    return dict(data)
