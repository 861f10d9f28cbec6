"""The bundled corpus rebuilds byte for byte through the record path."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from conftest import TESTDATA

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_fixture_corpus.py"
_spec = importlib.util.spec_from_file_location("build_fixture_corpus", SCRIPT)
build_fixture_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_fixture_corpus)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_rebuilt_corpus_matches_testdata(tmp_path, monkeypatch, capsys):
    """Every mode's canned answers, recorded, compacted and replayed into
    goldens, reproduce ``testdata/`` exactly."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--root", str(tmp_path)])
    build_fixture_corpus.main()
    assert _tree(tmp_path) == _tree(TESTDATA)
    held = len((TESTDATA / "fixtures" / "responses.log").read_bytes().splitlines())
    assert capsys.readouterr().out == f"fixtures: {held} responses in {tmp_path / 'fixtures'}\n"
