"""Every input loader, fuzzed with single mutations of a real input file.

Each document is a bundled input file, a scores file built from
``REFERENCE_CATEGORY_SCORES``, or one file of a replayed run directory.
Hypothesis draws one JSON path in it and one mutation: delete the value, or
replace it with one of a few hostile values. The load must either return or
raise a ``DataFormatError`` that names the mutated path or the object that
holds it. Nothing else may escape.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest
from hypothesis import given, settings, strategies as st

from reviewlens.cli import _load_config, main
from reviewlens.domain import load_product_records
from reviewlens.errors import DataFormatError
from reviewlens.evaluation import (
    REFERENCE_CATEGORY_SCORES,
    load_criterion_annotations,
    load_error_annotations,
    load_gold_sets,
    load_run_dir,
    scores_table,
)

from conftest import TESTDATA

DELETE = object()
MUTATIONS = (DELETE, None, True, 0, 1.5, math.nan, "", "../x", [], {})
PRODUCT = "app-mixer-001"


def _config(path: Path):
    return _load_config(argparse.Namespace(config=path, mode=None, workers=None, cache_dir=None))


@dataclass(frozen=True)
class Document:
    """One input file: its parsed value, where it is written, how it is
    loaded, and how a JSON path in it is named in an error."""

    file: str
    value: Any
    load: Callable[[Path], object]
    root: str = ""  # the name of the root value in a path
    lines: bool = False  # JSONL: the value is the list of line values
    leaf_names: bool = False  # config errors name the leaf key alone

    def paths(self) -> list[tuple]:
        found: list[tuple] = []

        def walk(value: Any, path: tuple) -> None:
            found.append(path)
            items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
            for step, item in items:
                walk(item, path + (step,))

        walk(self.value, ())
        return found[1:] if self.lines else found

    def render(self, path: tuple) -> str:
        """How an error names ``path``; every error names the file, which
        is how the root is named."""
        if not path:
            return ""
        if self.leaf_names:
            return str(path[-1])
        name, steps = self.root, path
        if self.lines:
            name, steps = "", path[1:]
        for step in steps:
            name = f"{name}[{step}]" if isinstance(step, int) else f"{name}.{step}" if name else step
        if self.lines:
            line = f"{self.file}:{path[0] + 1}"
            return f"{line}: {name}" if name else line
        return name

    def write(self, target: Path, value: Any) -> None:
        if value is DELETE:
            target.write_text("", encoding="utf-8")
        elif self.lines:
            target.write_text("".join(json.dumps(line) + "\n" for line in value), encoding="utf-8")
        else:
            target.write_text(json.dumps(value), encoding="utf-8")


def _mutated(value: Any, path: tuple, replacement: Any) -> Any:
    if not path:
        return replacement
    value = copy.deepcopy(value)
    holder = value
    for step in path[:-1]:
        holder = holder[step]
    if replacement is DELETE:
        del holder[path[-1]]
    else:
        holder[path[-1]] = copy.deepcopy(replacement)
    return value


def _names(document: Document, path: tuple, message: str) -> bool:
    """Whether ``message`` names ``path`` or the nearest object holding it."""
    candidates = [path]
    holder = document.value
    holders = [holder]
    for step in path[:-1]:
        holder = holder[step]
        holders.append(holder)
    for depth in range(len(path) - 1, -1, -1):
        if isinstance(holders[depth], dict):
            candidates.append(path[:depth])
            break
    return any(document.render(candidate) in message for candidate in candidates)


def _read(name: str) -> Any:
    return json.loads((TESTDATA / name).read_text(encoding="utf-8"))


def _read_lines(name: str) -> list:
    return [json.loads(line) for line in (TESTDATA / name).read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict[str, tuple[Document, Path]]:
    """Each document with the file it is written to; a run-directory file
    sits beside the unmutated others of one replayed product."""
    replayed = tmp_path_factory.mktemp("replayed")
    code = main([
        "run", "--dataset", str(TESTDATA / "dataset.json"), "--fixtures", str(TESTDATA / "fixtures"),
        "--mode", "full", "--product", PRODUCT, "--out", str(replayed),
    ])
    assert code == 0

    def run_file(name: str) -> Any:
        return json.loads((replayed / PRODUCT / name).read_text(encoding="utf-8"))

    def from_run(target: Path):
        return load_run_dir(target.parent.parent)

    scores = [
        {"category": category, "precision": precision, "recall": recall}
        for category, precision, recall, _ in REFERENCE_CATEGORY_SCORES
    ]
    documents = [
        Document("dataset.json", _read("dataset.json"), load_product_records, root="products"),
        Document("config.json", _read("config.json"), _config, leaf_names=True),
        Document("gold.json", _read("gold.json"), load_gold_sets),
        Document("annotations.jsonl", _read_lines("annotations.jsonl"), load_error_annotations, lines=True),
        Document("criteria.jsonl", _read_lines("criteria.jsonl"), load_criterion_annotations, lines=True),
        Document("scores.json", scores, scores_table, root="rows"),
        Document(f"{PRODUCT}/manifest.json", run_file("manifest.json"), from_run),
        Document(f"{PRODUCT}/extractions.json", run_file("extractions.json"), from_run),
    ]
    placed = {}
    for document in documents:
        workdir = tmp_path_factory.mktemp("doc")
        if "/" in document.file:
            shutil.copytree(replayed, workdir, dirs_exist_ok=True)
        target = workdir / document.file
        document.write(target, document.value)
        document.load(target)  # the unmutated file loads
        placed[document.file] = (document, target)
    return placed


DOCUMENTS = [
    "dataset.json", "config.json", "gold.json", "annotations.jsonl", "criteria.jsonl",
    "scores.json", f"{PRODUCT}/manifest.json", f"{PRODUCT}/extractions.json",
]


@pytest.mark.parametrize("name", DOCUMENTS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_one_mutation_loads_or_names_its_path(documents, name, data):
    document, target = documents[name]
    path = data.draw(st.sampled_from(document.paths()), label="path")
    replacement = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    document.write(target, _mutated(document.value, path, replacement))
    try:
        document.load(target)
    except DataFormatError as exc:
        assert _names(document, path, str(exc)), (document.render(path), str(exc))


def test_json_nested_too_deep_is_refused(tmp_path):
    path = tmp_path / "dataset.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"dataset\.json: invalid JSON: maximum recursion depth"):
        load_product_records(path)


def test_jsonl_line_breaks_only_at_newline(tmp_path):
    # U+2028 and U+0085 are line boundaries to str.splitlines, but a JSON
    # string may hold them unescaped.
    note = "a\u2028b\x85c"
    row = {"product_id": "p", "step": "Extraction", "error_category": "other", "note": note}
    path = tmp_path / "annotations.jsonl"
    path.write_text(json.dumps(row, ensure_ascii=False) + "\r\n\n", encoding="utf-8")
    [annotation] = load_error_annotations(path)
    assert annotation.note == note
