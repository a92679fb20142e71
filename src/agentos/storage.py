"""Entry names, atomic file writes and stat signatures shared by the registry
and the RAG store."""

from __future__ import annotations

import contextlib
import os
import tempfile

from .errors import InvalidDefinitionError


def entry_path(folder: str | os.PathLike, name: str, what: str, suffix: str = "") -> str:
    """``folder/<name><suffix>`` for a name that stays inside ``folder``: nonempty,
    no surrounding whitespace, path separator or NUL byte, no leading dot."""
    if not name or name != name.strip() or name.startswith(".") \
            or "/" in name or "\\" in name or "\x00" in name:
        raise InvalidDefinitionError(f"unusable {what} name: {name!r}")
    return os.path.join(folder, f"{name}{suffix}")


def atomic_write(path: str | os.PathLike, data: bytes | memoryview) -> os.stat_result:
    """Write through a dot-named temp file beside ``path``, then rename it; the
    folder is made first when it is missing, and a failed write removes the
    temp file. Returns the written file's stat as it is after the rename."""
    folder = os.path.dirname(os.fspath(path)) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=folder, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.replace(tmp, path)
            return os.fstat(fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def signature(st: os.stat_result) -> tuple[int, int, int, int]:
    """What a cached read of a file is valid for (docs/formats.md)."""
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns
