"""Stage three: one call that buckets attribute keys into semantic categories.

The prompt carries the deduplicated, lexicographically sorted key list and
nothing else (never values), keeping it deterministic for caching. So it
does not depend on what a comparison says: a comparison that succeeds
returns one row per input attribute, confirming exactly its review's keys.
The pipeline sends the call once no extraction is unresolved and every
review still comparing holds only confirmed keys; the request is then the
one the last comparison would have left. The parse maps every requested
key to a label: unmapped keys fall back to the "Other" category, unknown
keys in the response are dropped, duplicates resolve first-wins, and each
anomaly leaves a diagnostic.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .domain import OTHER_CATEGORY, AttributeKey, ComparedAttribute
from .gateway import ChatRequest
from .llm_json import coerce_scalar, load_json_object, require_array
from .prompt_library import render_prompt

GROUPING_SCHEMA = '{"groups": [{"attribute": "<name>", "category": "<label>"}]}'


def collect_unique_keys(compared: Iterable[ComparedAttribute]) -> list[AttributeKey]:
    """Deduplicate and sort the attribute keys destined for grouping."""
    return sorted({item.attribute.key for item in compared})


def build_grouping_prompt(keys: Sequence[AttributeKey], *, model: str) -> ChatRequest:
    if not keys:
        raise ValueError("grouping prompt requires at least one key")
    return render_prompt(
        "grouping",
        model=model,
        keys_json=json.dumps(list(keys), ensure_ascii=False, indent=2),
        schema=GROUPING_SCHEMA,
    )


def parse_grouping_response(
    text: str,
    keys: Sequence[AttributeKey],
    *,
    diagnostics: list[str] | None = None,
) -> dict[AttributeKey, str]:
    """Parse category rows into a label for each of ``keys``."""
    notes = diagnostics if diagnostics is not None else []
    payload = load_json_object(text)
    rows = require_array(payload, "groups")
    wanted = set(keys)
    mapping: dict[AttributeKey, str] = {}
    for row in rows:
        if not isinstance(row, dict):
            notes.append("grouping row is not an object; skipped")
            continue
        key = coerce_scalar(row.get("attribute"))
        label = coerce_scalar(row.get("category"))
        if key is None or key not in wanted:
            notes.append(f"grouping returned unknown attribute {key!r}; dropped")
            continue
        if key in mapping:
            notes.append(f"duplicate grouping row for {key!r}; first assignment kept")
            continue
        if label is None or not label.strip():
            notes.append(f"grouping gave no usable category for {key!r}; assigned {OTHER_CATEGORY!r}")
            mapping[key] = OTHER_CATEGORY
            continue
        mapping[key] = label.strip()
    for key in keys:
        if key not in mapping:
            notes.append(f"grouping omitted {key!r}; assigned {OTHER_CATEGORY!r}")
            mapping[key] = OTHER_CATEGORY
    return mapping
