"""Domain model for review-versus-listing insight extraction.

Responsibilities:
  * immutable value types for products, reviews, extracted attributes,
    comparison outcomes, and the final structured report
  * the attribute-name normalization rule shared by every stage
  * the closed four-variant comparison taxonomy with its parser
  * canonical JSON serialization (UTF-8, lexicographically sorted keys) so
    equal values always produce identical bytes
  * the dataset reader: ``from_dict(payload, name)`` parses the JSON
    object found at path ``name`` with the checks of ``inputs``, and
    ``load_product_records`` refuses a repeated product id. A product id
    names the product's output directory, so it must match
    ``[A-Za-z0-9][A-Za-z0-9._-]*``. A report is written, never read back.

A report holds its insights once, as one tuple in report order, and each
insight carries its own status and a non-blank category, which the report
checks. Its JSON nests them by status, then category, in arrays, not
objects, so that the report order (actionable statuses first) survives
key-sorted serialization. The stages hand categories over as a plain
``dict`` from key to label; a key it lacks is in ``OTHER_CATEGORY``.
"""

from __future__ import annotations

import enum
import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .errors import DataFormatError, EmptyKeyError, UnknownStatusError
from .inputs import (
    build,
    check_int,
    check_list,
    check_string,
    optional,
    read_json,
    required,
)

# An attribute key is a plain string that is a fixed point of normalize_key.
AttributeKey = str

OTHER_CATEGORY = "Other"

_UNDERSCORE_RUN = re.compile(r"_+")

# A product id names its output directory: no separator, never "." or "..".
_PRODUCT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def normalize_key(raw: str) -> AttributeKey:
    """Normalize an attribute name to its canonical key form.

    Lowercases, folds to ASCII, collapses runs of whitespace, hyphens, and
    underscores to a single underscore, and trims separators at both ends.
    Idempotent: applying it to its own output is a no-op.

    Raises EmptyKeyError when the input (or its normalized form) is empty.
    """
    if not raw or not raw.strip():
        raise EmptyKeyError("attribute name is empty or whitespace-only")
    pieces: list[str] = []
    for ch in unicodedata.normalize("NFKD", raw):
        if unicodedata.combining(ch):
            continue
        if ch == "_" or ch.isspace() or unicodedata.category(ch) == "Pd":
            pieces.append("_")
        else:
            pieces.append(ch.lower())
    folded = "".join(pieces).encode("ascii", "ignore").decode("ascii")
    collapsed = _UNDERSCORE_RUN.sub("_", folded).strip("_")
    if not collapsed:
        raise EmptyKeyError(f"attribute name {raw!r} normalizes to empty")
    return collapsed


class ComparisonStatus(enum.Enum):
    """How a customer-reported fact relates to the seller description.

    The set is closed: exactly these four variants, reported in this order
    (actionable discrepancies before confirmations).
    """

    MISSING = "Missing"
    CONTRADICTORY = "Contradictory"
    PARTIALLY_MATCHING = "Partially-matching"
    MATCHING = "Matching"

_STATUS_ALIASES: dict[str, ComparisonStatus] = {
    "missing": ComparisonStatus.MISSING,
    "contradictory": ComparisonStatus.CONTRADICTORY,
    "matching": ComparisonStatus.MATCHING,
    "partially-matching": ComparisonStatus.PARTIALLY_MATCHING,
    "partially matching": ComparisonStatus.PARTIALLY_MATCHING,
    "partial": ComparisonStatus.PARTIALLY_MATCHING,
}


def parse_status(label: str) -> ComparisonStatus:
    """Map a model-produced status label onto the closed taxonomy.

    Case-insensitive over a small alias set; anything else raises
    UnknownStatusError (a MalformedOutputError, hence retryable).
    """
    if not isinstance(label, str):
        raise UnknownStatusError(f"status label must be a string, got {type(label).__name__}")
    status = _STATUS_ALIASES.get(label.strip().lower())
    if status is None:
        raise UnknownStatusError(f"unknown comparison status {label!r}")
    return status


def canonical_json(payload: Any) -> str:
    """Serialize to the canonical JSON text form (UTF-8, sorted keys)."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True, slots=True)
class Review:
    """One customer review of one product."""

    review_id: str
    text: str
    rating: int | None = None

    def __post_init__(self) -> None:
        if not self.review_id:
            raise ValueError("review_id must be non-empty")
        if not self.text or not self.text.strip():
            raise ValueError(f"review {self.review_id}: text must be non-empty")
        if self.rating is not None and (
            not isinstance(self.rating, int) or not 1 <= self.rating <= 5
        ):
            raise ValueError(f"review {self.review_id}: rating must be an int in 1..5")

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"review_id": self.review_id, "text": self.text}
        if self.rating is not None:
            payload["rating"] = self.rating
        return payload

    @classmethod
    def from_dict(cls, record: Any, name: str = "") -> "Review":
        return build(
            name,
            cls,
            review_id=required(record, "review_id", name, check_string),
            text=required(record, "text", name, check_string),
            rating=optional(record, "rating", name, check_int),
        )


@dataclass(frozen=True, slots=True)
class ProductRecord:
    """A product listing plus the ordered reviews to analyze against it."""

    product_id: str
    title: str
    category: str
    seller_description: str
    reviews: tuple[Review, ...] = ()

    def __post_init__(self) -> None:
        if not _PRODUCT_ID.fullmatch(self.product_id):
            raise ValueError(f"product_id {self.product_id!r} must match {_PRODUCT_ID.pattern}")
        if not self.seller_description or not self.seller_description.strip():
            raise ValueError(f"product {self.product_id}: seller_description must be non-empty")
        object.__setattr__(self, "reviews", tuple(self.reviews))
        seen: set[str] = set()
        for review in self.reviews:
            if review.review_id in seen:
                raise ValueError(
                    f"product {self.product_id}: duplicate review_id {review.review_id!r}"
                )
            seen.add(review.review_id)

    @property
    def review_ids(self) -> tuple[str, ...]:
        return tuple(review.review_id for review in self.reviews)

    def to_dict(self) -> dict[str, Any]:
        return {
            "product_id": self.product_id,
            "title": self.title,
            "category": self.category,
            "seller_description": self.seller_description,
            "reviews": [review.to_dict() for review in self.reviews],
        }

    @classmethod
    def from_dict(cls, record: Any, name: str = "") -> "ProductRecord":
        return build(
            name,
            cls,
            product_id=required(record, "product_id", name, check_string),
            title=optional(record, "title", name, check_string, default=""),
            category=optional(record, "category", name, check_string, default=""),
            seller_description=required(record, "seller_description", name, check_string),
            reviews=optional(record, "reviews", name, check_list, Review.from_dict, default=()),
        )


@dataclass(frozen=True, slots=True)
class ExtractedAttribute:
    """One factual attribute-value pair pulled from one review.

    ``key`` is normalized; ``raw_key`` preserves the model's original
    spelling for audit trails.
    """

    key: AttributeKey
    value: str
    review_id: str
    raw_key: str = ""

    def __post_init__(self) -> None:
        if not self.key or normalize_key(self.key) != self.key:
            raise ValueError(f"key {self.key!r} is not in normalized form")
        if not self.value or not self.value.strip():
            raise ValueError(f"attribute {self.key}: value must be non-empty")
        if not self.review_id:
            raise ValueError(f"attribute {self.key}: review_id must be non-empty")
        if not self.raw_key:
            object.__setattr__(self, "raw_key", self.key)

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.key,
            "value": self.value,
            "review_id": self.review_id,
            "raw_attribute": self.raw_key,
        }


@dataclass(frozen=True, slots=True)
class ComparedAttribute:
    """An extracted attribute together with its verdict against the listing."""

    attribute: ExtractedAttribute
    status: ComparisonStatus
    justification: str = ""


@dataclass(frozen=True, slots=True)
class Insight:
    """One reported finding: an attribute key, its observed values, verdict,
    category, and the reviews that back it."""

    key: AttributeKey
    values: tuple[str, ...]
    status: ComparisonStatus
    category: str
    evidence: tuple[str, ...]
    justifications: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "evidence", tuple(self.evidence))
        object.__setattr__(self, "justifications", tuple(self.justifications))
        if not self.values:
            raise ValueError(f"insight {self.key}: values must be non-empty")
        if not self.evidence:
            raise ValueError(f"insight {self.key}: evidence must be non-empty")
        if len(set(self.evidence)) != len(self.evidence):
            raise ValueError(f"insight {self.key}: evidence entries must be unique")

    def to_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.key,
            "values": list(self.values),
            "status": self.status.value,
            "category": self.category,
            "evidence": list(self.evidence),
            "justifications": list(self.justifications),
        }


@dataclass(frozen=True, slots=True)
class CallStats:
    """Per-run tally of chat calls issued by each stage.

    The three stage counters count logical requests (a cache hit still
    counts as a request from the stage's point of view); ``cache_hits`` says
    how many of them never reached the backend, and ``retries`` counts
    re-attempts of any kind.
    """

    extraction_calls: int = 0
    comparison_calls: int = 0
    grouping_calls: int = 0
    cache_hits: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        for name in ("extraction_calls", "comparison_calls", "grouping_calls", "cache_hits", "retries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total_calls(self) -> int:
        return self.extraction_calls + self.comparison_calls + self.grouping_calls


_STATUS_RANK = {status: rank for rank, status in enumerate(ComparisonStatus)}


@dataclass(frozen=True, slots=True)
class StructuredReport:
    """The final deterministic report for one product: its categorized
    insights, one per (key, status), in report order: the fixed status order
    (Missing, Contradictory, Partially-matching, Matching), then category
    lexicographically, then key. It refuses a blank category and a repeated
    (key, status). ``sections`` derives the nesting. It holds
    no call stats: those are run telemetry (cache hits and retries vary
    between runs over identical inputs), so report bytes stay reproducible.
    """

    product_id: str
    insights: tuple[Insight, ...]

    def __post_init__(self) -> None:
        insights = sorted(self.insights, key=lambda i: (_STATUS_RANK[i.status], i.category, i.key))
        object.__setattr__(self, "insights", tuple(insights))
        seen: set[tuple[AttributeKey, ComparisonStatus]] = set()
        for insight in insights:
            if not insight.category.strip():
                raise ValueError(f"insight {insight.key}: category must be non-empty")
            if (insight.key, insight.status) in seen:
                raise ValueError(f"insight {insight.key} is reported twice as {insight.status.value}")
            seen.add((insight.key, insight.status))

    def sections(self) -> dict[ComparisonStatus, dict[str, list[Insight]]]:
        """Every status in order, empty or not, each with its categories in
        order, each with its insights by key."""
        nested: dict[ComparisonStatus, dict[str, list[Insight]]] = {s: {} for s in ComparisonStatus}
        for insight in self.insights:
            nested[insight.status].setdefault(insight.category, []).append(insight)
        return nested

    def to_dict(self) -> dict[str, Any]:
        return {
            "product_id": self.product_id,
            "sections": [
                {
                    "status": status.value,
                    "categories": [
                        {"category": category, "insights": [i.to_dict() for i in insights]}
                        for category, insights in groups.items()
                    ],
                }
                for status, groups in self.sections().items()
            ],
        }


def load_product_records(path: Path | str) -> list[ProductRecord]:
    """Load a dataset file: a JSON array of products with distinct ids."""
    return read_json(path, _read_products)


def _read_products(payload: Any) -> list[ProductRecord]:
    products = check_list(payload, "products", ProductRecord.from_dict)
    first: dict[str, int] = {}
    for index, product in enumerate(products):
        if first.setdefault(product.product_id, index) != index:
            raise DataFormatError(f"products[{index}]: duplicate product_id {product.product_id!r}")
    return products


def dump_product_records(records: Iterable[ProductRecord], path: Path | str) -> None:
    Path(path).write_text(
        canonical_json([record.to_dict() for record in records]), encoding="utf-8"
    )
