"""Flat dotted-key configuration files.

The on-disk format is one ``dotted.key = value`` pair per line, with
``#`` comments and blank lines ignored.  Values are typed by shape:
``true``/``false``, integers (underscores allowed), floats, quoted
strings, bare strings.  Shipped profiles and benchmark presets use this
format, and the command line accepts the same files as overrides.
"""

from __future__ import annotations

from typing import Any, Dict


class ConfigError(ValueError):
    pass


def parse_value(raw: str):
    """Type one raw value by its shape, as a config line's value is."""
    if raw == "true":
        return True
    if raw == "false":
        return False
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    try:
        return int(raw.replace("_", ""))
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(text: str) -> Dict[str, Any]:
    """Parse config text into a flat {dotted.key: value} mapping."""
    out: Dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw = raw.strip()
        if not raw:
            raise ConfigError(f"line {lineno}: empty value")
        out[key] = parse_value(raw)
    return out


def read_text(path) -> str:
    """The text of a UTF-8 file, line breaks untranslated; a file that is
    not UTF-8 is a ``ConfigError`` naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def load_config(path) -> Dict[str, Any]:
    return parse_config(read_text(path))


def subsection(mapping: Dict[str, Any], prefix: str) -> Dict[str, Any]:
    """Keys under ``prefix.``, with the prefix stripped."""
    dot = prefix + "."
    return {k[len(dot):]: v for k, v in mapping.items() if k.startswith(dot)}


def is_int(value) -> bool:
    """An integer, not a bool (``bool`` subclasses ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An integer or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def require(mapping: Dict[str, Any], key: str):
    try:
        return mapping[key]
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
