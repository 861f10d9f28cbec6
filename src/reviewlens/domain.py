"""Domain model for review-versus-listing insight extraction.

Responsibilities:
  * immutable value types for products, reviews, extracted attributes,
    comparison outcomes, and the final structured report
  * the attribute-name normalization rule shared by every stage
  * the closed four-variant comparison taxonomy with its parser/renderer
  * canonical JSON serialization (UTF-8, lexicographically sorted keys) so
    equal values always produce identical bytes

The report sections are carried as arrays, not objects, so that semantic
ordering (actionable statuses first) survives key-sorted serialization.
"""

from __future__ import annotations

import enum
import json
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import DataFormatError, EmptyKeyError, UnknownStatusError

# An attribute key is a plain string that is a fixed point of normalize_key.
AttributeKey = str

OTHER_CATEGORY = "Other"

_UNDERSCORE_RUN = re.compile(r"_+")


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

    @property
    def label(self) -> str:
        return self.value


REPORT_STATUS_ORDER: tuple[ComparisonStatus, ...] = (
    ComparisonStatus.MISSING,
    ComparisonStatus.CONTRADICTORY,
    ComparisonStatus.PARTIALLY_MATCHING,
    ComparisonStatus.MATCHING,
)

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


def render_status(status: ComparisonStatus) -> str:
    """Canonical label; parse_status(render_status(s)) == s for all variants."""
    return status.label


def canonical_json(payload: Any) -> str:
    """Serialize to the canonical JSON text form (UTF-8, sorted keys)."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def canonical_json_bytes(payload: Any) -> bytes:
    return canonical_json(payload).encode("utf-8")


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
    def from_dict(cls, payload: Mapping[str, Any]) -> "Review":
        return cls(
            review_id=str(payload["review_id"]),
            text=str(payload["text"]),
            rating=payload.get("rating"),
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
        if not self.product_id:
            raise ValueError("product_id must be non-empty")
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
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProductRecord":
        return cls(
            product_id=str(payload["product_id"]),
            title=str(payload.get("title", "")),
            category=str(payload.get("category", "")),
            seller_description=str(payload["seller_description"]),
            reviews=tuple(Review.from_dict(item) for item in payload.get("reviews", [])),
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
class CategoryAssignment:
    """Total mapping from attribute keys to semantic category labels."""

    mapping: Mapping[AttributeKey, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", dict(self.mapping))
        for key, label in self.mapping.items():
            if not label or not label.strip():
                raise ValueError(f"category label for {key!r} must be non-empty")

    def category_for(self, key: AttributeKey) -> str:
        return self.mapping.get(key, OTHER_CATEGORY)


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
            "status": render_status(self.status),
            "category": self.category,
            "evidence": list(self.evidence),
            "justifications": list(self.justifications),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Insight":
        return cls(
            key=str(payload["attribute"]),
            values=tuple(str(v) for v in payload["values"]),
            status=parse_status(payload["status"]),
            category=str(payload.get("category", "")),
            evidence=tuple(str(e) for e in payload["evidence"]),
            justifications=tuple(str(j) for j in payload.get("justifications", [])),
        )


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

    def to_dict(self) -> dict[str, int]:
        return {
            "extraction_calls": self.extraction_calls,
            "comparison_calls": self.comparison_calls,
            "grouping_calls": self.grouping_calls,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
        }


@dataclass(frozen=True, slots=True)
class CategoryGroup:
    """Insights of one category inside one status section."""

    category: str
    insights: tuple[Insight, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "insights", tuple(self.insights))


@dataclass(frozen=True, slots=True)
class ReportSection:
    """All insights sharing one comparison status."""

    status: ComparisonStatus
    groups: tuple[CategoryGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))


@dataclass(frozen=True, slots=True)
class StructuredReport:
    """The final deterministic report for one product.

    Sections appear in the fixed status order (Missing, Contradictory,
    Partially-matching, Matching), categories lexicographically inside each
    section, insights by key inside each category. All four sections are
    always present, empty or not. It holds no call stats: those are run
    telemetry (cache hits and retries vary between runs over identical
    inputs) and belong to the run, so report bytes stay reproducible.
    """

    product_id: str
    sections: tuple[ReportSection, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sections", tuple(self.sections))
        statuses = tuple(section.status for section in self.sections)
        if statuses != REPORT_STATUS_ORDER:
            raise ValueError("report sections must cover all four statuses in fixed order")

    def iter_insights(self) -> Iterable[Insight]:
        for section in self.sections:
            for group in section.groups:
                yield from group.insights

    def to_dict(self) -> dict[str, Any]:
        return {
            "product_id": self.product_id,
            "sections": [
                {
                    "status": render_status(section.status),
                    "categories": [
                        {
                            "category": group.category,
                            "insights": [insight.to_dict() for insight in group.insights],
                        }
                        for group in section.groups
                    ],
                }
                for section in self.sections
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StructuredReport":
        sections = []
        for section_payload in payload["sections"]:
            groups = tuple(
                CategoryGroup(
                    category=str(group["category"]),
                    insights=tuple(Insight.from_dict(item) for item in group["insights"]),
                )
                for group in section_payload["categories"]
            )
            sections.append(ReportSection(status=parse_status(section_payload["status"]), groups=groups))
        return cls(product_id=str(payload["product_id"]), sections=tuple(sections))


def load_product_records(path: Path | str) -> list[ProductRecord]:
    """Load a dataset file: a JSON array of product records."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataFormatError(f"dataset file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise DataFormatError(f"{path}: expected a JSON array of products")
    records = []
    for position, item in enumerate(payload):
        try:
            records.append(ProductRecord.from_dict(item))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: products[{position}]: {exc}") from exc
    return records


def dump_product_records(records: Iterable[ProductRecord], path: Path | str) -> None:
    Path(path).write_text(
        canonical_json([record.to_dict() for record in records]), encoding="utf-8"
    )
