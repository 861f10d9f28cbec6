"""Typed readers for every file reviewlens takes in.

The dataset, the config, the evaluation's gold, annotation and scores
files, and a run directory's manifests and extractions are each parsed
once, here at the boundary, into the typed values the rest of the code
trusts. A reader takes a JSON value and its path in the file and returns
the wanted type, or raises one ``DataFormatError`` naming the path;
``read_json`` and ``read_jsonl`` put the file (and line) in front:
``dataset.json: products[0].reviews[2].text must be a non-empty string,
got None``. Readers check JSON types and presence only: strings are
non-blank, integers never ``bool``, numbers finite, and an optional field
may be absent or null. Fields no reader asks for are ignored. Value
invariants stay in each dataclass's ``__post_init__``, and ``build``
reports the ``ValueError`` one raises under its record's path.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, TypeVar

from .errors import DataFormatError

T = TypeVar("T")


def _fail(name: str, expected: str, value: Any) -> DataFormatError:
    return DataFormatError(f"{name} must be {expected}, got {reprlib.repr(value)}".lstrip())


def build(name: str, make: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """``make(*args, **kwargs)``, a ``ValueError`` it raises reported under ``name``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise DataFormatError(f"{name}: {exc}".removeprefix(": ")) from None


def _parse(where: str, text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataFormatError(f"{where}: invalid JSON: {exc}") from None


def _text(path: Path | str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # missing, unreadable, or not UTF-8
        raise DataFormatError(f"{path}: cannot read: {exc}") from None


def read_json(path: Path | str, read: Callable[..., T], *args: Any) -> T:
    """``read(value, *args)`` of the JSON file at ``path``."""
    return build(str(path), read, _parse(str(path), _text(path)), *args)


def read_jsonl(path: Path | str, read: Callable[[Any], T]) -> list[T]:
    """``read(value)`` of each non-blank line; an error names ``<path>:<line>``."""
    # Not splitlines(): a JSON string may hold U+2028 or U+0085 as it is.
    lines = enumerate(_text(path).split("\n"), start=1)
    return [
        build(f"{path}:{n}", read, _parse(f"{path}:{n}", line)) for n, line in lines if line.strip()
    ]


def required(record: Any, key: str, name: str, read: Callable[..., T], *args: Any) -> T:
    """``read`` of the field ``key`` of the object ``record``, found at ``name``."""
    if key not in check_object(record, name):
        raise DataFormatError(f"{name}: missing field {key!r}".removeprefix(": "))
    return read(record[key], f"{name}.{key}" if name else key, *args)


def optional(
    record: Any, key: str, name: str, read: Callable[..., T], *args: Any, default: Any = None
) -> T:
    """Like ``required``, but ``default`` when the field is absent or null."""
    if check_object(record, name).get(key) is None:
        return default
    return required(record, key, name, read, *args)


def check_object(value: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise _fail(name, "an object", value)
    return value


def check_list(value: Any, name: str, read: Callable[..., T], *args: Any) -> list[T]:
    """``read`` of each item of a JSON array, item ``i`` under ``name[i]``."""
    if not isinstance(value, list):
        raise _fail(name, "a list", value)
    return [read(item, f"{name}[{index}]", *args) for index, item in enumerate(value)]


def check_string(value: Any, name: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise _fail(name, "a non-empty string", value)
    return value


def check_int(value: Any, name: str, low: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(name, "an integer", value)
    if low is not None and value < low:
        raise DataFormatError(f"{name} must be >= {low}, got {value}")
    return value


def check_number(value: Any, name: str, low: float, high: float = math.inf) -> float:
    """``value`` as a float, if it is a finite number (not a bool) within [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(name, "a number", value)
    if not (math.isfinite(value) and low <= value <= high):
        raise DataFormatError(f"{name} must be a finite number within [{low}, {high}], got {value}")
    return float(value)


def check_choice(value: Any, name: str, choices: Collection[str]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise _fail(name, f"one of {', '.join(map(repr, choices))}", value)
    return value


def config_kwargs(cls: type, payload: Any, label: str) -> dict[str, Any]:
    """``payload`` as keyword arguments for the config dataclass ``cls``: an
    object whose keys are all field names of ``cls``; absent fields keep
    the class defaults."""
    unknown = set(check_object(payload, label)) - {f.name for f in fields(cls)}
    if unknown:
        raise DataFormatError(f"unknown {label} key(s): {', '.join(sorted(map(repr, unknown)))}")
    return dict(payload)
