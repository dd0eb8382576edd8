"""Atomic file writes (temp file in the target directory, then rename), the
append-only log line and the artifacts' UTC timestamp format."""

from __future__ import annotations

import os
import tempfile
from datetime import datetime, timezone


def iso_utc(ts: float) -> str:
    """Unix time as an ISO-8601 UTC timestamp with whole seconds."""
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_bytes_atomic(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def append_line(path, line: str) -> None:
    """Append one text line; creates the file if missing (append-only logs)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line.rstrip("\n") + "\n")
