"""Plain-text config files: flat ``key = value`` maps.

Full-line ``#`` comments and blank lines are ignored. Values are typed by
shape: ``true``/``false`` parse as booleans, then integers, then floats, and
anything else is kept as a string; a value of several whitespace-separated
tokens parses to a tuple of scalars. Writing uses ``repr`` for floats and
sorts keys, so a parsed file rewrites to canonical bytes and numbers
round-trip exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

Scalar = bool | int | float | str
ConfigValue = Scalar | tuple[Scalar, ...]


def _parse_scalar(token: str) -> Scalar:
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(text: str) -> ConfigValue:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty value")
    if len(tokens) == 1:
        return _parse_scalar(tokens[0])
    return tuple(_parse_scalar(t) for t in tokens)


def _format_scalar(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if not text or text.split() != [text]:
        raise ValueError(f"string value {value!r} has whitespace; not writable")
    return text


def _format_value(value: ConfigValue) -> str:
    if isinstance(value, (tuple, list)):
        if not value:
            raise ValueError("empty tuple value is not writable")
        return " ".join(_format_scalar(v) for v in value)
    return _format_scalar(value)


def read_config(path: str | Path) -> dict[str, ConfigValue]:
    """Parse a flat key = value file into a typed mapping."""
    mapping: dict[str, ConfigValue] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{lineno}: missing key")
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = _parse_value(value.strip())
    return mapping


def format_config(mapping: dict[str, ConfigValue]) -> str:
    """Canonical text for a config mapping: sorted keys, repr floats."""
    lines = [f"{key} = {_format_value(mapping[key])}" for key in sorted(mapping)]
    return "\n".join(lines) + "\n" if lines else ""


def write_config(path: str | Path, mapping: dict[str, ConfigValue]) -> None:
    Path(path).write_text(format_config(mapping))
