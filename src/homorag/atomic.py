"""Every file the package writes or reads as text goes through this module:
writes replace the file atomically, reads decode UTF-8 and name the fault,
every JSON document has the one layout of `dump_json`, every JSON-lines text
that of `dump_json_lines`, and every digest of a value is `json_digest`.
`loads_json_object` also checks the JSON object an HTTP backend sends back,
and a `FileReader` reads byte ranges of a file from any number of threads."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import weakref
from pathlib import Path
from typing import Iterable, Iterator


def write_atomic(path: Path, data: bytes) -> None:
    """Write data to path through a temp file in the same directory and
    `os.replace`, so a reader sees the old file or the new one, never part of
    either. The temp name is unique per process and thread. If any step
    fails the temp file is removed and the old file is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def dump_json(data) -> str:
    """The package's one layout for a JSON document: sorted keys, no whitespace
    between tokens, non-ASCII as `\\u` escapes and a trailing newline. The
    stdlib's C encoder writes it; a value it cannot encode raises TypeError."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def json_digest(value) -> str:
    """The sha256 hex digest of value's `dump_json` layout without its newline:
    the config digest and the backend cache key."""
    return hashlib.sha256(dump_json(value)[:-1].encode("utf-8")).hexdigest()


def dump_json_lines(items: Iterable) -> str:
    """Each item as one `json.dumps(item, sort_keys=True)` line ending in `\\n`."""
    return "".join(json.dumps(item, sort_keys=True) + "\n" for item in items)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, line with its `\\n`) of a UTF-8 file; a line
    that is not UTF-8 raises ValueError naming `path:line`, cause chained."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            yield line_no, line


def loads_json_object(blob: bytes, where) -> dict:
    """The JSON object that blob holds as UTF-8. Bytes that are not UTF-8, bad
    or truncated JSON, nesting too deep or a value that is not an object raise
    ValueError `<where>: not a UTF-8 JSON object`, cause chained."""
    try:
        data = json.loads(blob.decode("utf-8"))
        if not isinstance(data, dict):
            raise TypeError(f"holds a JSON {type(data).__name__}, not an object")
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep nesting is a RecursionError
    except (ValueError, TypeError, RecursionError) as exc:
        raise ValueError(f"{where}: not a UTF-8 JSON object") from exc
    return data


def read_json_object(path: str | Path) -> dict:
    """The JSON object that path holds, checked by `loads_json_object`; OSError passes."""
    with open(path, "rb") as fh:
        return loads_json_object(fh.read(), path)


class FileReader:
    """One read-only descriptor on a file, for reads at an offset from any
    number of threads. It goes on reading the file it opened after the path is
    renamed or replaced, and is closed when the reader is collected."""

    def __init__(self, path: str | Path):
        self._fd = os.open(path, os.O_RDONLY)  # not inherited by child processes (PEP 446)
        weakref.finalize(self, os.close, self._fd)

    def read_at(self, offset: int, length: int) -> bytes:
        """The length bytes at offset, fewer where the file ends first: one `os.pread`."""
        return os.pread(self._fd, length, offset)
