"""Stage two: judge one review's attributes against the seller description.

One call covers one review's whole attribute batch. The parser restores a
strict one-to-one correspondence with the input: model rows join back to
input attributes on (normalized key, value) in input order, invented rows
are dropped with a diagnostic, omitted attributes default to Missing with a
diagnostic. Output cardinality therefore always equals input cardinality.
"""

from __future__ import annotations

import json

from .domain import (
    ComparedAttribute,
    ComparisonStatus,
    ExtractedAttribute,
    normalize_key,
    parse_status,
)
from .errors import EmptyKeyError, MalformedOutputError
from .gateway import ChatRequest
from .llm_json import coerce_scalar, load_json_object, require_array
from .prompt_library import render_prompt

COMPARISON_SCHEMA = (
    '{"results": [{"attribute": "<name>", "value": "<value>", '
    '"status": "<Matching|Partially-matching|Contradictory|Missing>", '
    '"justification": "<quote or reasoning>"}]}'
)

OMITTED_JUSTIFICATION = "model omitted; defaulted"


def build_comparison_prompt(
    attributes: list[ExtractedAttribute], seller_description: str, *, model: str
) -> ChatRequest:
    """Build the JSON-mode comparison request for one review's batch."""
    if not attributes:
        raise ValueError("comparison prompt requires at least one attribute")
    attributes_json = json.dumps(
        [{"attribute": attr.key, "value": attr.value} for attr in attributes],
        ensure_ascii=False,
        indent=2,
    )
    return render_prompt(
        "comparison",
        model=model,
        seller_description=seller_description,
        attributes_json=attributes_json,
        schema=COMPARISON_SCHEMA,
    )


def parse_comparison_response(
    text: str,
    attributes: list[ExtractedAttribute],
    *,
    diagnostics: list[str] | None = None,
) -> list[ComparedAttribute]:
    """Join model verdicts back onto the input attributes.

    Join key is (normalized key, value); duplicate pairs join in input
    order. Unknown status labels and structurally broken rows raise
    MalformedOutputError (retryable); a Contradictory verdict without a
    justification does too, because the evidence quote is part of the
    contract for that status.
    """
    notes = diagnostics if diagnostics is not None else []
    payload = load_json_object(text)
    rows = require_array(payload, "results")

    matched: dict[int, ComparedAttribute] = {}
    available = list(range(len(attributes)))

    for row in rows:
        if not isinstance(row, dict):
            raise MalformedOutputError("comparison rows must be JSON objects")
        raw_key = coerce_scalar(row.get("attribute"))
        value = coerce_scalar(row.get("value"))
        status_label = row.get("status")
        if raw_key is None or value is None or status_label is None:
            raise MalformedOutputError("comparison rows need attribute, value, and status")
        status = parse_status(status_label)
        justification = coerce_scalar(row.get("justification")) or ""
        if status is ComparisonStatus.CONTRADICTORY and not justification.strip():
            raise MalformedOutputError(
                f"contradictory verdict for {raw_key!r} lacks its mandatory justification"
            )
        try:
            key = normalize_key(raw_key)
        except EmptyKeyError:
            key = ""
        target = None
        for index in available:
            attr = attributes[index]
            if attr.key == key and attr.value == value.strip():
                target = index
                break
        if target is None:
            notes.append(
                f"hallucinated comparison row dropped: {raw_key!r}={value!r} "
                "matches no input attribute"
            )
            continue
        available.remove(target)
        matched[target] = ComparedAttribute(
            attribute=attributes[target], status=status, justification=justification
        )

    for index in available:
        attr = attributes[index]
        notes.append(
            f"comparison omitted attribute {attr.key!r}={attr.value!r}; defaulted to Missing"
        )
        matched[index] = ComparedAttribute(
            attribute=attr,
            status=ComparisonStatus.MISSING,
            justification=OMITTED_JUSTIFICATION,
        )

    return [matched[index] for index in range(len(attributes))]
