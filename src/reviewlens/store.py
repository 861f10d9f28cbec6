"""Directory of fingerprint-keyed JSON payloads.

Both the replay fixture corpus and the on-disk response cache use this exact
layout: one ``<fingerprint>.json`` file per recorded response, holding
``{"text": ..., "model": ...}``. Writes are atomic (temp file + rename) so
concurrent workers can never observe a torn file.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from pathlib import Path
from typing import Any


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


class ResponseStore:
    """Low-level access to one fingerprint-keyed directory."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    def load(self, fingerprint: str) -> tuple[dict[str, Any] | None, str | None]:
        """Return (payload, problem). Missing file: (None, None).
        Unreadable or non-object content: (None, <description>).
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None, None
        except OSError as exc:
            return None, f"unreadable entry {path.name}: {exc}"
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            return None, f"corrupt entry {path.name}: {exc}"
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            return None, f"corrupt entry {path.name}: expected an object with a 'text' string"
        return payload, None

    def save(self, fingerprint: str, payload: dict[str, Any]) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        target = self.path_for(fingerprint)
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        write_atomic(target, text.encode("utf-8"))
        return target

    def evict(self, fingerprint: str) -> None:
        try:
            self.path_for(fingerprint).unlink()
        except FileNotFoundError:
            pass
