"""Atomic file replacement for run outputs and cache entries."""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


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
