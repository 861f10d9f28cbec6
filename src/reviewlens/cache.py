"""Content-addressed response cache.

Entries live under a cache directory as one JSON file per request
fingerprint, identical in layout to replay fixtures. There is no TTL: a
fingerprint only ever maps to one logical answer, and prompt or model
changes produce new fingerprints rather than stale hits.
"""

from __future__ import annotations

from pathlib import Path

from .gateway import ChatResponse
from .store import ResponseStore


class DiskResponseCache:
    """Cache keyed by request fingerprint, tolerant of corrupt entries."""

    def __init__(self, cache_dir: Path | str):
        self._store = ResponseStore(cache_dir)

    def get(self, digest: str, *, diagnostics: list[str] | None = None) -> ChatResponse | None:
        payload, problem = self._store.load(digest)
        if problem is not None:
            # Corruption is a miss, never a crash; the caller re-fetches.
            if diagnostics is not None:
                diagnostics.append(f"cache: {problem}; treated as miss")
            self._store.evict(digest)
            return None
        if payload is None:
            return None
        return ChatResponse(text=payload["text"], model=str(payload.get("model", "")), latency_ms=0)

    def put(self, digest: str, response: ChatResponse) -> None:
        self._store.save(digest, {"text": response.text, "model": response.model})

    def evict(self, digest: str) -> None:
        self._store.evict(digest)
