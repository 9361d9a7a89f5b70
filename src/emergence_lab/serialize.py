"""Plain-text config files: flat ``key = value`` maps.

Full-line ``#`` comments and blank lines are ignored. Values are returned as
their stripped text; giving them types is left to the schema that reads them
(``experiments.config_from_mapping``).
"""

from __future__ import annotations

from pathlib import Path


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file into a mapping of key to value text."""
    mapping: dict[str, str] = {}
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
        value = value.strip()
        if not value:
            raise ValueError(f"{path}:{lineno}: empty value")
        mapping[key] = value
    return mapping
