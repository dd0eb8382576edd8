"""Atomic file writes (temp file in the target directory, then rename), the
append-only log line, the artifacts' UTC timestamp format, the two text
artifact layouts: "key: value" reports (written and read back) and commented
CSVs, and the one worker pool every stage fans its independent tasks out on."""

from __future__ import annotations

import os
import tempfile
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone


def iso_utc(ts: float) -> str:
    """Unix time as an ISO-8601 UTC timestamp with whole seconds."""
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_bytes_atomic(path, data) -> None:
    """Write ``data``, any bytes-like object (a contiguous numpy array
    too, without a copy), to ``path`` atomically."""
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


def append_line(path, line: str, *, header: str) -> None:
    """Append one line to a log, flushed and fsynced.  A new or empty log gets
    ``header`` first; a log starting otherwise raises ValueError, unchanged."""
    with open(path, "a+", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(header + "\n")
        else:
            fh.seek(0)
            if fh.readline().rstrip("\n") != header:
                raise ValueError(f"{path}: first line is not {header!r}")
        fh.write(line.rstrip("\n") + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def write_report(path, fields) -> None:
    """Write ``(key, value)`` pairs as "key: value" lines, each newline-ended.

    Values print with ``str``; a float's ``str`` is its shortest round-trip
    form, the same as its ``repr``.
    """
    write_text_atomic(path, "".join(f"{key}: {value}\n" for key, value in fields))


def read_report(path) -> dict[str, str]:
    """Read a ``write_report`` file back into ``{key: value}`` strings.

    Raises ValueError on a line that is not "key: value" or repeats a key.
    """
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            key, sep, value = line.rstrip("\n").partition(": ")
            if not sep or key in fields:
                raise ValueError(f"line {number} is not a new 'key: value' pair")
            fields[key] = value
    return fields


def write_csv(path, comments, header, rows) -> None:
    """Write a CSV artifact: each comment line prefixed "# ", then the header
    columns, then one line per row, cells printed with ``str`` and joined by
    commas; every line newline-ended."""
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def ordered_map(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, the tasks spread over ``threads``
    worker threads.

    Results come back in input order, and an exception propagates from the
    first failing item in input order, so a caller sees the same results and
    the same error at any thread count.  ``items`` is consumed lazily: at
    most ``2 * threads`` tasks are submitted ahead of the oldest unfinished
    one, so a generator of large items holds only those in memory.  An
    exception raised by ``items`` itself fails at its own position, after
    every earlier task.  One thread runs every task in the calling thread,
    without a pool.
    """
    if threads == 1:
        return [fn(item) for item in items]
    items = iter(items)
    ahead = deque()
    results = []
    failure = None
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        while True:
            while failure is None and len(ahead) < 2 * threads:
                try:
                    item = next(items)
                except StopIteration:
                    break
                except Exception as exc:   # raised once every earlier task is done
                    failure = exc
                    break
                ahead.append(pool.submit(fn, item))
            if not ahead:
                break
            results.append(ahead.popleft().result())
    finally:   # after a failure, tasks not yet started never start
        pool.shutdown(cancel_futures=True)
    if failure is not None:
        raise failure
    return results
