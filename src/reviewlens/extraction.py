"""Stage one: pull factual attribute-value pairs out of a single review.

Each review is processed independently; the prompt embeds that review
verbatim plus the product title for context, and never any other review.
Duplicates are preserved here (deduplication happens during structuring)
and an empty result is a valid outcome for opinion-only reviews.
"""

from __future__ import annotations

from .domain import ExtractedAttribute, Review, normalize_key
from .errors import EmptyKeyError, MalformedOutputError
from .gateway import ChatRequest
from .llm_json import coerce_scalar, load_json_object, require_array
from .prompt_library import render_prompt

EXTRACTION_SCHEMA = '{"attributes": [{"attribute": "<name>", "value": "<value>"}]}'


def build_extraction_prompt(review: Review, title: str, *, model: str) -> ChatRequest:
    """Build the JSON-mode extraction request for one review."""
    return render_prompt(
        "extraction",
        model=model,
        title=title,
        review_text=review.text,
        schema=EXTRACTION_SCHEMA,
    )


def parse_extraction_response(text: str, review_id: str) -> list[ExtractedAttribute]:
    """Parse the model's attribute list for one review.

    Attribute names are normalized; entries whose name or value comes out
    empty are dropped. Input order is preserved and duplicates survive.
    Raises MalformedOutputError when the payload is not an object holding an
    ``attributes`` array of objects.
    """
    payload = load_json_object(text)
    rows = require_array(payload, "attributes")
    extracted: list[ExtractedAttribute] = []
    for row in rows:
        if not isinstance(row, dict):
            raise MalformedOutputError("extraction rows must be JSON objects")
        raw_key = coerce_scalar(row.get("attribute"))
        value = coerce_scalar(row.get("value"))
        if raw_key is None or value is None or not value.strip():
            continue
        try:
            key = normalize_key(raw_key)
        except EmptyKeyError:
            continue
        extracted.append(
            ExtractedAttribute(key=key, value=value.strip(), review_id=review_id, raw_key=raw_key)
        )
    return extracted
