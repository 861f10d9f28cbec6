"""A deterministic chat backend for the benchmark and fixture recording.

CannedReviewModel plays a cooperative but imperfect model: it answers every
pipeline prompt from lookup tables and can be configured to omit comparison
rows, invent rows that were never asked about, or drop keys from the
grouping answer, exercising the parsers' repair paths. It is deterministic
given its configuration and never sleeps. ``perfbench/`` serves it over
HTTP, and ``scripts/build_fixture_corpus.py`` records the bundled corpus
from it. The doubles that only tests use (scripted answers and failures,
jitter, a call count) live in ``tests/doubles.py``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterable, Mapping, Sequence

from .domain import (
    ComparedAttribute,
    ExtractedAttribute,
    ProductRecord,
    normalize_key,
    parse_status,
)
from .gateway import ChatRequest, ChatResponse
from .structuring import build_report, merge_insights

__all__ = ["CannedReviewModel"]

# Marker lines copied from the prompt templates; they identify the step a
# request belongs to without any out-of-band signalling.
_COMPARISON_MARKER = "Customer-reported attributes (JSON):"
_GROUPING_MARKER = "Attribute names (JSON):"
_BASELINE_MARKER = "Customer reviews (one per line, prefixed by its review id):"
_ABLATED_MARKER = "Extracted attributes (JSON, each with the review id it came from):"
_EXTRACTION_MARKER = "Customer review:"

_REVIEW_LINE = re.compile(r"^\[([^\]]+)\] ", re.MULTILINE)


def _json_after(prompt: str, marker: str) -> Any:
    """Decode the JSON document that immediately follows a marker line."""
    index = prompt.index(marker) + len(marker)
    rest = prompt[index:]
    start = min(pos for pos in (rest.find("["), rest.find("{")) if pos >= 0)
    value, _ = json.JSONDecoder().raw_decode(rest[start:])
    return value


class CannedReviewModel:
    """A scripted model covering all five prompt kinds.

    extractions: review_id -> list of (raw attribute name, value).
    comparisons: (normalized key, value) -> (status label, justification);
        must be total over every pair the extractions can produce.
    categories: normalized key -> category label; missing keys fall back to
        ``default_category``.
    omit_comparison_pairs: pairs silently left out of comparison answers,
        forcing the omission-default repair.
    invented_comparison_rows: (trigger pair, extra result row) entries; the
        row is appended whenever the trigger pair is in the request,
        exercising hallucinated-row dropping.
    omit_grouping_keys: keys left unassigned by the grouping answer.
    """

    def __init__(
        self,
        products: Sequence[ProductRecord],
        *,
        extractions: Mapping[str, Sequence[tuple[str, str]]],
        comparisons: Mapping[tuple[str, str], tuple[str, str]],
        categories: Mapping[str, str],
        omit_comparison_pairs: Iterable[tuple[str, str]] = (),
        invented_comparison_rows: Sequence[tuple[tuple[str, str], Mapping[str, str]]] = (),
        omit_grouping_keys: Iterable[str] = (),
        default_category: str = "General",
    ):
        self._products = tuple(products)
        self._review_ids: dict[str, str] = {}  # review text -> id, the first review with it
        for product in self._products:
            for review in product.reviews:
                self._review_ids.setdefault(review.text, review.review_id)
        self._extractions = {rid: tuple(rows) for rid, rows in extractions.items()}
        self._comparisons = dict(comparisons)
        self._categories = dict(categories)
        self._omit_pairs = frozenset(omit_comparison_pairs)
        self._invented = tuple((tuple(t), dict(row)) for t, row in invented_comparison_rows)
        self._omit_grouping = frozenset(omit_grouping_keys)
        self._default_category = default_category

    @classmethod
    def from_config(
        cls, products: Sequence[ProductRecord], payload: Mapping[str, Any]
    ) -> "CannedReviewModel":
        """Rebuild a model from the JSON layout the corpus builder writes."""
        return cls(
            products,
            extractions={
                rid: [tuple(row) for row in rows]
                for rid, rows in payload["extractions"].items()
            },
            comparisons={
                (row["attribute"], row["value"]): (row["status"], row.get("justification", ""))
                for row in payload["comparisons"]
            },
            categories=dict(payload["categories"]),
            omit_comparison_pairs={tuple(pair) for pair in payload.get("omit_comparison_pairs", [])},
            invented_comparison_rows=[
                (tuple(entry["trigger"]), entry["row"])
                for entry in payload.get("invented_comparison_rows", [])
            ],
            omit_grouping_keys=set(payload.get("omit_grouping_keys", [])),
            default_category=payload.get("default_category", "General"),
        )

    def complete(self, request: ChatRequest) -> ChatResponse:
        prompt = request.user_prompt
        if _COMPARISON_MARKER in prompt:
            text = self._comparison_answer(prompt)
        elif _GROUPING_MARKER in prompt:
            text = self._grouping_answer(prompt)
        elif _BASELINE_MARKER in prompt:
            text = self._baseline_answer(prompt)
        elif _ABLATED_MARKER in prompt:
            text = self._ablated_answer(prompt)
        elif _EXTRACTION_MARKER in prompt:
            text = self._extraction_answer(prompt)
        else:
            raise AssertionError("canned model cannot identify the step for this prompt")
        return ChatResponse(text=text, model=request.model)

    # -- per-step answers ---------------------------------------------------

    def _extraction_answer(self, prompt: str) -> str:
        # The review text sits between the template's two fences.
        text = prompt.split(f'{_EXTRACTION_MARKER}\n"""\n', 1)[1].rsplit('\n"""', 1)[0]
        if text not in self._review_ids:
            raise AssertionError("extraction prompt matches no configured review text")
        rows = self._extractions.get(self._review_ids[text], ())
        return json.dumps(
            {"attributes": [{"attribute": k, "value": v} for k, v in rows]},
            ensure_ascii=False,
        )

    def _comparison_answer(self, prompt: str) -> str:
        requested = _json_after(prompt, _COMPARISON_MARKER)
        rows: list[dict[str, str]] = []
        present: set[tuple[str, str]] = set()
        for item in requested:
            pair = (item["attribute"], item["value"])
            present.add(pair)
            if pair in self._omit_pairs:
                continue
            verdict = self._comparisons.get(pair)
            if verdict is None:
                raise AssertionError(f"no canned comparison verdict for {pair!r}")
            status, justification = verdict
            rows.append(
                {
                    "attribute": pair[0],
                    "value": pair[1],
                    "status": status,
                    "justification": justification,
                }
            )
        for trigger, extra in self._invented:
            if trigger in present:
                rows.append(dict(extra))
        return json.dumps({"results": rows}, ensure_ascii=False)

    def _grouping_answer(self, prompt: str) -> str:
        keys = _json_after(prompt, _GROUPING_MARKER)
        rows = [
            {"attribute": key, "category": self._categories.get(key, self._default_category)}
            for key in keys
            if key not in self._omit_grouping
        ]
        return json.dumps({"groups": rows}, ensure_ascii=False)

    def _baseline_answer(self, prompt: str) -> str:
        """Single-shot answer: statuses survive, but justifications are lost
        and every attribute lands in one coarse category."""
        product = self._product_for(prompt)
        review_ids = _REVIEW_LINE.findall(prompt.split(_BASELINE_MARKER, 1)[1])
        compared = self._compared_rows(
            (rid, key, value)
            for rid in review_ids
            for key, value in self._normalized_rows(rid)
        )
        sections = self._sections_payload(
            product,
            compared,
            label_of=lambda key: "General",
            keep_justifications=False,
        )
        return json.dumps({"sections": sections}, ensure_ascii=False)

    def _ablated_answer(self, prompt: str) -> str:
        """Direct report over pre-extracted attributes: justifications kept,
        categories still the canned map."""
        product = self._product_for(prompt)
        requested = _json_after(prompt, _ABLATED_MARKER)
        compared = self._compared_rows(
            (item["review_id"], item["attribute"], item["value"]) for item in requested
        )
        sections = self._sections_payload(
            product,
            compared,
            label_of=lambda key: self._categories.get(key, self._default_category),
            keep_justifications=True,
        )
        return json.dumps({"sections": sections}, ensure_ascii=False)

    # -- shared plumbing ----------------------------------------------------

    def _product_for(self, prompt: str) -> ProductRecord:
        for product in self._products:
            if f"Product title: {product.title}\n" in prompt:
                return product
        raise AssertionError("report prompt matches no configured product title")

    def _normalized_rows(self, review_id: str) -> list[tuple[str, str]]:
        return [
            (normalize_key(raw_key), value.strip())
            for raw_key, value in self._extractions.get(review_id, ())
        ]

    def _compared_rows(
        self, triples: Iterable[tuple[str, str, str]]
    ) -> list[ComparedAttribute]:
        rows: list[ComparedAttribute] = []
        for review_id, key, value in triples:
            verdict = self._comparisons.get((key, value))
            if verdict is None:
                raise AssertionError(f"no canned comparison verdict for {(key, value)!r}")
            status, justification = verdict
            rows.append(
                ComparedAttribute(
                    attribute=ExtractedAttribute(key=key, value=value, review_id=review_id),
                    status=parse_status(status),
                    justification=justification,
                )
            )
        return rows

    def _sections_payload(
        self,
        product: ProductRecord,
        compared: list[ComparedAttribute],
        *,
        label_of: Callable[[str], str],
        keep_justifications: bool,
    ) -> list[dict[str, Any]]:
        insights = merge_insights(compared)
        categories = {insight.key: label_of(insight.key) for insight in insights}
        body = build_report(insights, categories, product_id=product.product_id).to_dict()
        if not keep_justifications:
            for section in body["sections"]:
                for group in section["categories"]:
                    for row in group["insights"]:
                        row["justifications"] = []
        return body["sections"]
