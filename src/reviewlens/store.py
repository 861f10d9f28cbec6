"""Directory of fingerprint-keyed JSON payloads.

Both the replay fixture corpus and the on-disk response cache use this exact
layout: one ``<fingerprint>.json`` file per recorded response, holding
``{"text": ..., "model": ...}``. Writes are atomic (temp file + rename) so
concurrent workers can never observe a torn file.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any


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
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
                handle.write("\n")
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target

    def evict(self, fingerprint: str) -> None:
        try:
            self.path_for(fingerprint).unlink()
        except FileNotFoundError:
            pass
