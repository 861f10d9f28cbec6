"""The response log: one append-only store for the response cache and the
replay fixtures, keyed by request fingerprint.

A store is a directory of segment files (``*.log``), a log-structured hash
table after Bitcask (Sheehy & Smith, 2010). Each line is one entry::

    <fingerprint> <checksum> <compact JSON {"model": ..., "text": ...}>

where the checksum is the CRC-32 of the JSON as eight hex digits. An
eviction appends a tombstone: the same line with ``null`` for the JSON.

Opening a store reads every segment once, oldest first, and closes it: the
in-memory keydir maps a fingerprint to its value's JSON bytes, so a store
holds no file open until it writes. A later line wins and a tombstone
deletes. A last line with no newline, torn by a crash, is skipped, so its
request is a miss. A line whose fingerprint parses but whose checksum
fails makes that fingerprint a miss with a diagnostic: corruption is a
miss, never a crash.

Each store instance appends to a segment of its own, created on its first
``put`` and named ``<creation time in ns>-<pid>-<random>.log``, so names
sort oldest first. Each line goes out in one unbuffered ``write`` under a
lock: two processes sharing a directory never interleave, and a line is in
the file, readable by any other process, once ``put`` returns. ``compact``
rewrites the live entries, sorted by fingerprint, as the one segment
``responses.log``, which sorts before all others; that is the layout of a
fixture directory. A directory of ``<fingerprint>.json`` files, the layout
before this log, reads as empty.

There is no TTL: a fingerprint only ever maps to one logical answer, and
prompt or model changes produce new fingerprints rather than stale hits.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import threading
import time
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import DataFormatError
from .store import write_atomic

COMPACTED_SEGMENT = "responses.log"

_FINGERPRINT = re.compile(rb"[0-9a-f]{64}")
_TOMBSTONE = b"null"
# A line is "<64 hex> <8 hex> <value>\n": the value starts at this offset.
_VALUE_AT = 74


@dataclass(frozen=True, slots=True)
class ChatResponse:
    """One chat answer, as a backend returns it and the log stores it."""

    text: str
    model: str


def _line(digest: str, value: bytes) -> bytes:
    return b"%s %08x %s\n" % (digest.encode("ascii"), zlib.crc32(value), value)


def _segments(root: Path) -> list[Path]:
    """The segments under ``root``, oldest first, so that a later line wins:
    a compacted segment, then the others in the creation order their names
    give."""
    try:
        names = [name for name in os.listdir(root) if name.endswith(".log")]
    except FileNotFoundError:
        return []
    except NotADirectoryError:
        raise DataFormatError(f"response store {root} is not a directory") from None
    names.sort(key=lambda name: (name != COMPACTED_SEGMENT, name))
    return [root / name for name in names]


class DiskResponseCache:
    """An append-only response log, tolerant of torn and corrupt lines."""

    def __init__(self, path: Path | str):
        self.root = Path(path)
        # Fingerprint -> the JSON bytes of its value, or the problem that
        # makes it a miss.
        self._keydir: dict[str, bytes | str] = {}
        self._lock = threading.Lock()
        self._segment: int | None = None  # this instance's own, once created
        self._closer: weakref.finalize | None = None
        self.segments: list[Path] = []
        for segment in _segments(self.root):
            try:
                with open(segment, "rb") as handle:
                    for line in handle:
                        if line.endswith(b"\n"):  # else torn by a crash
                            self._index(line, segment.name)
            except FileNotFoundError:
                continue  # compacted away since the listing
            self.segments.append(segment)

    def _index(self, line: bytes, name: str) -> None:
        if line[64:65] != b" " or not _FINGERPRINT.fullmatch(line, 0, 64):
            return  # no fingerprint to charge the damage to
        digest = line[:64].decode("ascii")
        value = line[_VALUE_AT:-1]
        if line[73:74] != b" " or line[65:73] != b"%08x" % zlib.crc32(value):
            self._keydir[digest] = f"corrupt entry {digest[:16]}... in {name}: checksum mismatch"
        elif value == _TOMBSTONE:
            self._keydir.pop(digest, None)
        else:
            self._keydir[digest] = value

    def __iter__(self) -> Iterator[str]:
        """The fingerprints of the live entries."""
        return iter([digest for digest, entry in self._keydir.items() if isinstance(entry, bytes)])

    def load(self, digest: str) -> tuple[ChatResponse | None, str | None]:
        """Return (response, problem). No entry: (None, None). A corrupt or
        unreadable entry: (None, <description>)."""
        entry = self._keydir.get(digest)
        if entry is None or isinstance(entry, str):
            return None, entry
        try:
            payload = json.loads(entry)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            return None, f"unreadable entry {digest[:16]}...: {exc}"
        if not isinstance(payload, dict) or not isinstance(payload.get("text"), str):
            return None, f"corrupt entry {digest[:16]}...: expected an object with a 'text' string"
        return ChatResponse(text=payload["text"], model=str(payload.get("model", ""))), None

    def get(self, digest: str, *, diagnostics: list[str] | None = None) -> ChatResponse | None:
        response, problem = self.load(digest)
        if problem is not None:
            # Corruption is a miss, never a crash; the caller re-fetches.
            if diagnostics is not None:
                diagnostics.append(f"cache: {problem}; treated as miss")
            self.evict(digest)
        return response

    def put(self, digest: str, response: ChatResponse) -> None:
        # ASCII-escaped, so that any text, a lone surrogate included, encodes.
        value = json.dumps({"model": response.model, "text": response.text}, separators=(",", ":"))
        self._append(digest, value.encode("ascii"))

    def evict(self, digest: str) -> None:
        if digest in self._keydir:
            self._append(digest, _TOMBSTONE)

    def _append(self, digest: str, value: bytes) -> None:
        line = _line(digest, value)
        with self._lock:
            if self._segment is None:
                self.root.mkdir(parents=True, exist_ok=True)
                path = self.root / f"{time.time_ns():020d}-{os.getpid()}-{secrets.token_hex(4)}.log"
                self._segment = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
                self._closer = weakref.finalize(self, os.close, self._segment)
                self.segments.append(path)
            written = os.write(self._segment, line)
            if written != len(line):
                # Leave the torn prefix as the segment's unterminated last
                # line, which readers skip: the next write starts a new one.
                self._closer()
                self._segment = None
                raise OSError(f"short write to {self.segments[-1]}: {written} of {len(line)} bytes")
            if value == _TOMBSTONE:
                self._keydir.pop(digest, None)
            else:
                self._keydir[digest] = value

    def compact(self) -> None:
        """Rewrite the live entries, sorted by fingerprint, as the one
        segment ``responses.log``, remove the other segments this store
        read or wrote, and close the store."""
        lines = [_line(digest, self._keydir[digest]) for digest in sorted(self)]
        target = self.root / COMPACTED_SEGMENT
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(target, b"".join(lines))
        for path in self.segments:
            if path != target:
                path.unlink(missing_ok=True)
        self.close()

    def close(self) -> None:
        """Close this store's own segment; the store is empty from here on."""
        with self._lock:
            self._keydir.clear()
            self._segment = None
            if self._closer is not None:
                self._closer()

    def __enter__(self) -> "DiskResponseCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
