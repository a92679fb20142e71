"""Identifier grammar and name-mangling helpers."""

from __future__ import annotations

import re

# Grammar shared by tool names, parameter names, event names and keys.
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The one placeholder scanner: at each position a ``{{`` or ``}}`` escape,
# else a ``{key}`` placeholder (group 1), tried in that order, left to right.
# Validation (V8, A2) and substitution read placeholders through it alone.
PLACEHOLDER_SCANNER = re.compile(r"\{\{|\}\}|\{(%s)\}" % IDENT_RE.pattern)


def is_identifier(name: str) -> bool:
    return bool(IDENT_RE.fullmatch(name))


def snake_case(name: str) -> str:
    """Mangle a display name into an identifier: "Web Agent" -> "web_agent"."""
    out = re.sub(r"[^A-Za-z0-9]+", "_", name.strip()).strip("_").lower()
    if not out:
        out = "agent"
    if out[0].isdigit():
        out = "_" + out
    return out


def placeholders(text: str) -> list[str]:
    """Placeholder keys in ``text``, in order, ignoring {{ }} escapes."""
    return [key for key in PLACEHOLDER_SCANNER.findall(text) if key]
