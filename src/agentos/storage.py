"""Entry names and atomic file writes shared by the registry and the RAG store."""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from .errors import InvalidDefinitionError


def entry_path(folder: Path, name: str, what: str, suffix: str = "") -> Path:
    """``folder/<name><suffix>`` for a name that stays inside ``folder``: nonempty,
    no surrounding whitespace, path separator or NUL byte, no leading dot."""
    if not name or name != name.strip() or name.startswith(".") \
            or "/" in name or "\\" in name or "\x00" in name:
        raise InvalidDefinitionError(f"unusable {what} name: {name!r}")
    return folder / f"{name}{suffix}"


def atomic_write(path: Path, data: bytes) -> None:
    """Write through a dot-named temp file beside ``path``, then rename it;
    a failed write removes the temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
