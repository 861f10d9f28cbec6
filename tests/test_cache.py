"""The response log: segments, torn and corrupt lines, tombstones, processes
sharing a directory, compaction, and the layout it replaced."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

from reviewlens.cache import COMPACTED_SEGMENT, ChatResponse, DiskResponseCache
from reviewlens.cli import main
from reviewlens.gateway import RecordingBackend, ReplayBackend
from reviewlens.pipeline import PipelineConfig, run_product

from conftest import TESTDATA
from doubles import CountingBackend

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(name: str) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


def answer(text: str) -> ChatResponse:
    return ChatResponse(text=text, model="m")


def text_of(root: Path, key: str) -> str | None:
    with DiskResponseCache(root) as store:
        response = store.get(key)
    return None if response is None else response.text


def only_segment(root: Path) -> Path:
    (segment,) = root.glob("*.log")
    return segment


WRITER = """
import hashlib, os, sys, time
from reviewlens.cache import ChatResponse, DiskResponseCache
root, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
while not os.path.exists(os.path.join(root, "go")):
    time.sleep(0.001)
store = DiskResponseCache(root)  # left open, as a process that is killed leaves it
for i in range(count):
    key = hashlib.sha256(f"{tag}-{i}".encode()).hexdigest()
    store.put(key, ChatResponse(text=f"{tag} {i} " + "x" * 800, model="m"))
"""

READER = """
import hashlib, sys
from reviewlens.cache import DiskResponseCache
root, count = sys.argv[1], int(sys.argv[2])
store = DiskResponseCache(root)
good = 0
for tag in ("a", "b"):
    for i in range(count):
        response, problem = store.load(hashlib.sha256(f"{tag}-{i}".encode()).hexdigest())
        good += problem is None and response is not None and response.text.startswith(f"{tag} {i} ")
print(good, len(list(store)))
"""


class TestResponseLog:
    def test_two_processes_write_one_dir_and_a_third_reads_every_entry(self, tmp_path):
        count = 300
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        writers = [
            subprocess.Popen([sys.executable, "-c", WRITER, str(tmp_path), tag, str(count)], env=env)
            for tag in ("a", "b")
        ]
        (tmp_path / "go").touch()
        assert [writer.wait(timeout=60) for writer in writers] == [0, 0]
        assert len(list(tmp_path.glob("*.log"))) == 2
        read = subprocess.run(
            [sys.executable, "-c", READER, str(tmp_path), str(count)],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert read.stdout.split() == [str(2 * count), str(2 * count)]

    def test_threads_sharing_one_store_lose_no_line(self, tmp_path):
        expected = {digest(f"{tag}-{i}"): f"{tag} {i}" for tag in range(8) for i in range(200)}

        def write(tag: int) -> None:
            for i in range(200):
                store.put(digest(f"{tag}-{i}"), answer(f"{tag} {i}"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DiskResponseCache(tmp_path) as store:
                threads = [threading.Thread(target=write, args=(tag,)) for tag in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert {key: store.get(key).text for key in store} == expected
        finally:
            sys.setswitchinterval(interval)
        with DiskResponseCache(tmp_path) as store:
            assert {key: store.get(key).text for key in store} == expected

    def test_any_text_round_trips_on_one_line(self, tmp_path):
        text = 'line one\nline two\r\n"quoted" \u00e9 \u2028 \ud800 lone surrogate'
        with DiskResponseCache(tmp_path) as store:
            store.put(digest("odd"), answer(text))
        assert len(only_segment(tmp_path).read_bytes().splitlines()) == 1
        assert text_of(tmp_path, digest("odd")) == text

    def test_torn_last_line_is_a_miss(self, tmp_path):
        with DiskResponseCache(tmp_path) as store:
            store.put(digest("whole"), answer("kept"))
            store.put(digest("torn"), answer("cut off"))
        segment = only_segment(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 20])
        notes: list[str] = []
        with DiskResponseCache(tmp_path) as store:
            assert store.get(digest("whole")).text == "kept"
            assert store.get(digest("torn"), diagnostics=notes) is None
            store.put(digest("torn"), answer("again"))
        assert notes == []
        assert text_of(tmp_path, digest("torn")) == "again"

    def test_flipped_checksum_byte_is_a_miss_with_one_diagnostic(self, tmp_path):
        with DiskResponseCache(tmp_path) as store:
            store.put(digest("bad"), answer("original"))
            store.put(digest("good"), answer("intact"))
        segment = only_segment(tmp_path)
        data = bytearray(segment.read_bytes())
        data[65] = ord("0") if data[65] != ord("0") else ord("1")  # first checksum digit
        segment.write_bytes(bytes(data))
        notes: list[str] = []
        with DiskResponseCache(tmp_path) as store:
            assert list(store) == [digest("good")]
            assert store.get(digest("bad"), diagnostics=notes) is None
            assert store.get(digest("bad"), diagnostics=notes) is None
            assert store.get(digest("good"), diagnostics=notes).text == "intact"
            store.put(digest("bad"), answer("fresh"))
        assert len(notes) == 1
        assert notes[0].startswith("cache: corrupt entry") and notes[0].endswith("treated as miss")
        assert text_of(tmp_path, digest("bad")) == "fresh"

    def test_hostile_lines_are_skipped_or_a_miss_with_one_diagnostic(self, tmp_path):
        def line(key: str, value: bytes) -> bytes:
            return b"%s %08x %s\n" % (key.encode(), zlib.crc32(value), value)

        # Each value has a correct checksum; the note its read leaves.
        hostile = {
            "not json": (b"{oops", "cache: unreadable entry"),
            "an array": (b"[1,2]", "cache: corrupt entry"),
            "a number text": (b'{"text":5}', "cache: corrupt entry"),
        }
        good = b'{"model":"m","text":"kept"}'
        (tmp_path / COMPACTED_SEGMENT).write_bytes(
            line(digest("good"), good)
            + line(digest("upper").upper(), good)  # not a fingerprint: skipped
            + b"".join(line(digest(name), value) for name, (value, _) in hostile.items())
        )
        with DiskResponseCache(tmp_path) as store:
            assert store.get(digest("good")).text == "kept"
            for name, (_, note) in hostile.items():
                notes: list[str] = []
                assert store.get(digest(name), diagnostics=notes) is None
                assert store.get(digest(name), diagnostics=notes) is None
                assert len(notes) == 1, (name, notes)
                assert notes[0].startswith(note) and notes[0].endswith("; treated as miss")
        with DiskResponseCache(tmp_path) as store:
            assert list(store) == [digest("good")]

    def test_evict_then_reload(self, tmp_path):
        with DiskResponseCache(tmp_path) as store:
            store.put(digest("gone"), answer("one"))
            store.put(digest("stays"), answer("two"))
            store.evict(digest("gone"))
            assert store.get(digest("gone")) is None
        with DiskResponseCache(tmp_path) as store:
            assert store.get(digest("gone")) is None
            assert list(store) == [digest("stays")]
            store.evict(digest("stays"))  # a tombstone in a second segment
            store.evict(digest("never there"))  # writes nothing
        assert len(list(tmp_path.glob("*.log"))) == 2
        with DiskResponseCache(tmp_path) as store:
            assert list(store) == []

    def test_two_puts_of_one_fingerprint_keep_one_entry(self, tmp_path):
        with DiskResponseCache(tmp_path) as store:
            store.put(digest("twice"), answer("first"))
            store.put(digest("twice"), answer("second"))
        assert len(only_segment(tmp_path).read_bytes().splitlines()) == 2
        with DiskResponseCache(tmp_path) as store:
            assert list(store) == [digest("twice")]
            assert store.get(digest("twice")).text == "second"
            store.compact()
        assert [path.name for path in tmp_path.iterdir()] == [COMPACTED_SEGMENT]
        assert len((tmp_path / COMPACTED_SEGMENT).read_bytes().splitlines()) == 1
        assert text_of(tmp_path, digest("twice")) == "second"

    def test_identical_requests_of_one_product_keep_one_entry(self, tmp_path, products_by_id):
        # bud-r1 and bud-r8 send byte-identical comparison requests; with no
        # cache both reach the backend and are recorded.
        replay = CountingBackend(ReplayBackend(TESTDATA / "fixtures"))
        recorder = RecordingBackend(replay, tmp_path)
        run_product(products_by_id["ele-buds-003"], PipelineConfig(workers=1), recorder)
        recorded = [line.split()[0] for line in only_segment(tmp_path).read_bytes().splitlines()]
        assert len(recorded) == replay.calls == len(set(recorded)) + 1
        assert len(list(DiskResponseCache(tmp_path))) == len(set(recorded))
        recorder.close()
        compacted = (tmp_path / COMPACTED_SEGMENT).read_bytes().splitlines()
        assert [line.split()[0] for line in compacted] == sorted(set(recorded))

    def test_compaction_is_sorted_and_byte_stable(self, tmp_path):
        keys = [digest(str(i)) for i in range(20)]
        for root, order in ((tmp_path / "one", keys), (tmp_path / "two", keys[::-1])):
            with DiskResponseCache(root) as store:
                for key in order:
                    store.put(key, answer(f"answer {key[:8]} é"))
                store.compact()
        data = (tmp_path / "one" / COMPACTED_SEGMENT).read_bytes()
        assert data == (tmp_path / "two" / COMPACTED_SEGMENT).read_bytes()
        assert [line[:64].decode() for line in data.splitlines()] == sorted(keys)

    def test_cache_dir_in_the_old_layout_reads_as_empty(self, tmp_path):
        (tmp_path / f"{digest('old')}.json").write_text('{"model": "m", "text": "old"}', encoding="utf-8")
        with DiskResponseCache(tmp_path) as store:
            assert list(store) == []
            assert store.get(digest("old")) is None

    def test_fixture_dir_in_the_old_layout_is_fatal(self, tmp_path, capsys):
        (tmp_path / f"{digest('old')}.json").write_text('{"model": "m", "text": "old"}', encoding="utf-8")
        code = main(["run", "--dataset", str(TESTDATA / "dataset.json"), "--fixtures", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scripts/build_fixture_corpus.py" in err
