"""Atomic file writes.

The CLI writes every report, manifest and extractions file through
``write_atomic``, and compaction writes a fixture directory's one segment
through it, so a crash never leaves a torn output file.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and rename it into
    place, so ``path`` holds either its old bytes or all of ``data``. A
    write that fails leaves no temp file."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
