"""JSON decoding at the input boundaries, and of config objects into the
package's config dataclasses."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from .errors import ConfigError, HandsatError

# field annotation -> (what the value must be, check); a JSON bool is never
# accepted, although Python counts it as an int
_KINDS = {
    "int": ("an integer", lambda v: isinstance(v, int)),
    "float": ("a finite number",
              lambda v: isinstance(v, (int, float)) and math.isfinite(v)),
    "str": ("a string", lambda v: isinstance(v, str)),
}


def decode_config(cls, obj, what: str):
    """Build and validate dataclass `cls` from a JSON object; missing keys
    take the field defaults. Input that is not an object, unknown keys,
    missing keys of fields without a default and values that do not match
    the field's annotation raise ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    kinds = {f.name: _KINDS[f.type] for f in dataclasses.fields(cls)}
    unknown = set(obj) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(cls)
               if f.name not in obj and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    for name, value in obj.items():
        expected, check = kinds[name]
        if isinstance(value, bool) or not check(value):
            raise ConfigError(f"{what} key {name!r} must be {expected}, "
                              f"got {value!r}")
    cfg = cls(**obj)
    cfg.validate()
    return cfg


def parse_json(text: str | bytes, error: type[HandsatError], where: str):
    """json.loads(text). Malformed JSON, and nesting too deep for the
    parser, raise `error` with one line naming `where`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{where} is not valid JSON: {e}") from None
    except RecursionError:
        raise error(f"{where} is not valid JSON: nested too deeply") from None


def read_json(path: str | Path, what: str):
    """Parse the JSON file at `path`. A missing or unreadable file, bytes
    that are not UTF-8 and malformed JSON raise ConfigError naming `what`."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except OSError as e:
        raise ConfigError(f"{what} file {path} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what} file {path} is not valid UTF-8") from None
    return parse_json(text, ConfigError, f"{what} file {path}")
