"""Evaluation harness: error tallies, attribute-selection metrics, and
mode-vs-mode criterion comparisons.

Everything here is pure aggregation over annotation files and pipeline
outputs. Annotators work against a closed rubric per step; anything outside
it is rejected at load time with a line position.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .domain import ExtractedAttribute, StructuredReport, normalize_key
from .errors import DataFormatError, OutOfRangeError, ProductMismatchError

__all__ = [
    "Step",
    "ERROR_RUBRIC",
    "CRITERIA",
    "COMPARED_MODES",
    "REFERENCE_CATEGORY_SCORES",
    "ErrorAnnotation",
    "CriterionAnnotation",
    "CategoryMetrics",
    "GoldAttributeSet",
    "f1",
    "round_half_up",
    "selection_counts",
    "metrics_from_counts",
    "selection_metrics",
    "aggregate_errors",
    "compare_modes",
    "load_error_annotations",
    "load_criterion_annotations",
    "load_gold_sets",
    "render_metrics_table",
    "render_error_table",
    "render_mode_table",
]


class Step(str, enum.Enum):
    """Pipeline step an error annotation points at."""

    EXTRACTION = "Extraction"
    COMPARISON = "Comparison"
    GROUPING = "Grouping"


ERROR_RUBRIC: Mapping[Step, frozenset[str]] = {
    Step.EXTRACTION: frozenset(
        {
            "incorrect_extraction",
            "opinion_not_filtered",
            "irrelevant_information",
            "omitted_attribute",
            "incorrect_normalization",
            "other",
        }
    ),
    Step.COMPARISON: frozenset(
        {
            "misclassified_missing",
            "misclassified_matching",
            "misclassified_contradictory",
            "misclassified_partial",
            "invalid_justification",
            "other",
        }
    ),
    Step.GROUPING: frozenset(
        {
            "incorrect_category_naming",
            "missing_category",
            "incorrect_splitting",
            "incorrect_assignment",
            "other",
        }
    ),
}

# Qualities a finished report is judged on when modes are compared head to
# head. One annotation = one observed lapse in one mode's report.
CRITERIA: tuple[str, ...] = (
    "detail_retention",
    "opinion_exclusion",
    "product_focus",
    "correct_categorization",
)

COMPARED_MODES: tuple[str, ...] = ("full", "baseline", "ablated")

# Reference per-category attribute-selection scores, used by the golden
# regression test: (category, precision, recall, reported F1).
REFERENCE_CATEGORY_SCORES: tuple[tuple[str, float, float, float], ...] = (
    ("Appliances", 0.41, 0.84, 0.55),
    ("Arts and Crafts", 0.72, 0.96, 0.82),
    ("Beauty", 0.6, 0.99, 0.75),
    ("Books", 0.23, 0.79, 0.36),
    ("CD Vinyl", 0.52, 0.6, 0.56),
    ("Cell Phone and Accessories", 0.56, 0.82, 0.66),
    ("Clothes, Shoes, Jewelery", 0.45, 0.79, 0.57),
    ("Digital music", 0.46, 0.71, 0.56),
    ("Electronics", 0.47, 0.86, 0.61),
)


@dataclass(frozen=True, slots=True)
class ErrorAnnotation:
    """One counted error instance, tied to a step and a rubric category."""

    product_id: str
    step: Step
    error_category: str
    review_id: str | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.step, Step):
            object.__setattr__(self, "step", Step(self.step))
        allowed = ERROR_RUBRIC[self.step]
        if self.error_category not in allowed:
            raise DataFormatError(
                f"error_category {self.error_category!r} is not in the "
                f"{self.step.value} rubric {sorted(allowed)}"
            )


@dataclass(frozen=True, slots=True)
class CriterionAnnotation:
    """One observed lapse of a report-quality criterion in one mode."""

    product_id: str
    mode: str
    criterion: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.mode not in COMPARED_MODES:
            raise DataFormatError(f"mode {self.mode!r} is not one of {COMPARED_MODES}")
        if self.criterion not in CRITERIA:
            raise DataFormatError(f"criterion {self.criterion!r} is not one of {CRITERIA}")


@dataclass(frozen=True, slots=True)
class CategoryMetrics:
    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True)
class GoldAttributeSet:
    """Annotator-marked true (key, value) pairs for one review.

    Keys are normalized on construction so gold files may use display
    spellings.
    """

    product_id: str
    review_id: str
    gold: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        normalized = frozenset(
            (normalize_key(str(key)), str(value).strip()) for key, value in self.gold
        )
        object.__setattr__(self, "gold", normalized)


def f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 at the degenerate origin."""
    for name, value in (("precision", precision), ("recall", recall)):
        if not 0.0 <= value <= 1.0:
            raise OutOfRangeError(f"{name} must lie in [0, 1], got {value!r}")
    total = precision + recall
    if total == 0:
        return 0.0
    return 2.0 * precision * recall / total


def round_half_up(value: float, places: int = 2) -> float:
    # float(str()) round-trip keeps e.g. 0.665 from landing below the tie.
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def selection_counts(
    predicted: Iterable[tuple[str, str]], gold: Iterable[tuple[str, str]]
) -> tuple[int, int, int]:
    """(TP, FP, FN) between two (key, value) pair collections, set semantics."""
    predicted_set = set(predicted)
    gold_set = set(gold)
    tp = len(predicted_set & gold_set)
    return tp, len(predicted_set) - tp, len(gold_set) - tp


def metrics_from_counts(tp: int, fp: int, fn: int) -> CategoryMetrics:
    """Metrics from (TP, FP, FN) counts. Empty-pool conventions: no
    predictions means precision 0, empty gold means recall 1."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return CategoryMetrics(precision=precision, recall=recall, f1=f1(precision, recall))


def selection_metrics(
    predicted: Sequence[ExtractedAttribute], gold: GoldAttributeSet
) -> CategoryMetrics:
    """Exact-match attribute selection quality for one review.

    Match predicate is (key, value) equality after key normalization; the
    prediction side is already normalized by construction. The empty-set
    conventions are ``metrics_from_counts``'s.
    """
    pairs = [(attr.key, attr.value) for attr in predicted]
    return metrics_from_counts(*selection_counts(pairs, gold.gold))


def aggregate_errors(
    annotations: Iterable[ErrorAnnotation],
) -> dict[tuple[Step, str], int]:
    """Multiset counts keyed by (step, error_category), deterministically
    ordered by step then category name."""
    counts: dict[tuple[Step, str], int] = {}
    for annotation in annotations:
        key = (annotation.step, annotation.error_category)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (item[0][0].value, item[0][1]))
    return dict(ordered)


def compare_modes(
    full: StructuredReport,
    baseline: StructuredReport,
    ablated: StructuredReport,
    annotations: Iterable[CriterionAnnotation],
) -> dict[str, dict[str, int]]:
    """Per-criterion lapse counts for each mode, as criterion -> mode -> count.

    All three reports and every annotation must cover one product. Every
    criterion/mode cell is present even when zero, so tables stay rectangular.
    """
    product_id = full.product_id
    for label, report in (("baseline", baseline), ("ablated", ablated)):
        if report.product_id != product_id:
            raise ProductMismatchError(
                f"{label} report covers {report.product_id!r}, "
                f"expected {product_id!r}"
            )
    table: dict[str, dict[str, int]] = {
        criterion: {mode: 0 for mode in COMPARED_MODES} for criterion in CRITERIA
    }
    for annotation in annotations:
        if annotation.product_id != product_id:
            raise ProductMismatchError(
                f"annotation covers {annotation.product_id!r}, expected {product_id!r}"
            )
        table[annotation.criterion][annotation.mode] += 1
    return table


def _load_jsonl(path: Path) -> Iterable[tuple[int, dict[str, Any]]]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path.name}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DataFormatError(f"{path.name}:{lineno}: expected a JSON object")
        yield lineno, payload


def load_error_annotations(path: Path | str) -> list[ErrorAnnotation]:
    """One ErrorAnnotation per JSON line; rubric violations carry positions."""
    path = Path(path)
    annotations: list[ErrorAnnotation] = []
    for lineno, payload in _load_jsonl(path):
        try:
            annotations.append(
                ErrorAnnotation(
                    product_id=str(payload["product_id"]),
                    step=Step(payload["step"]),
                    error_category=str(payload["error_category"]),
                    review_id=(
                        str(payload["review_id"]) if payload.get("review_id") is not None else None
                    ),
                    note=str(payload.get("note", "")),
                )
            )
        except KeyError as exc:
            raise DataFormatError(f"{path.name}:{lineno}: missing field {exc}") from exc
        except (ValueError, DataFormatError) as exc:
            raise DataFormatError(f"{path.name}:{lineno}: {exc}") from exc
    return annotations


def load_criterion_annotations(path: Path | str) -> list[CriterionAnnotation]:
    path = Path(path)
    annotations: list[CriterionAnnotation] = []
    for lineno, payload in _load_jsonl(path):
        try:
            annotations.append(
                CriterionAnnotation(
                    product_id=str(payload["product_id"]),
                    mode=str(payload["mode"]),
                    criterion=str(payload["criterion"]),
                    note=str(payload.get("note", "")),
                )
            )
        except KeyError as exc:
            raise DataFormatError(f"{path.name}:{lineno}: missing field {exc}") from exc
        except (ValueError, DataFormatError) as exc:
            raise DataFormatError(f"{path.name}:{lineno}: {exc}") from exc
    return annotations


def load_gold_sets(path: Path | str) -> dict[tuple[str, str], GoldAttributeSet]:
    """Gold file: {"products": [{"product_id", "reviews": [{"review_id",
    "gold": [{"attribute", "value"}, ...]}]}]} keyed here by
    (product_id, review_id)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path.name}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("products"), list):
        raise DataFormatError(f"{path.name}: expected an object with a 'products' array")

    sets: dict[tuple[str, str], GoldAttributeSet] = {}
    for p_index, product in enumerate(payload["products"]):
        where = f"{path.name}: products[{p_index}]"
        if not isinstance(product, dict):
            raise DataFormatError(f"{where}: expected an object")
        product_id = product.get("product_id")
        reviews = product.get("reviews")
        if not isinstance(product_id, str) or not product_id:
            raise DataFormatError(f"{where}: missing product_id")
        if not isinstance(reviews, list):
            raise DataFormatError(f"{where}: missing reviews array")
        for r_index, review in enumerate(reviews):
            where_r = f"{where}.reviews[{r_index}]"
            if not isinstance(review, dict):
                raise DataFormatError(f"{where_r}: expected an object")
            review_id = review.get("review_id")
            rows = review.get("gold")
            if not isinstance(review_id, str) or not review_id:
                raise DataFormatError(f"{where_r}: missing review_id")
            if not isinstance(rows, list):
                raise DataFormatError(f"{where_r}: missing gold array")
            pairs = set()
            for a_index, row in enumerate(rows):
                if (
                    not isinstance(row, dict)
                    or not isinstance(row.get("attribute"), str)
                    or not isinstance(row.get("value"), str)
                ):
                    raise DataFormatError(
                        f"{where_r}.gold[{a_index}]: expected "
                        '{"attribute": str, "value": str}'
                    )
                pairs.add((row["attribute"], row["value"]))
            key = (product_id, review_id)
            if key in sets:
                raise DataFormatError(f"{where_r}: duplicate review_id {review_id!r}")
            sets[key] = GoldAttributeSet(
                product_id=product_id, review_id=review_id, gold=frozenset(pairs)
            )
    return sets


def _format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    for row in (header, tuple("-" * width for width in widths), *rows):
        rendered = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(rendered).rstrip())
    return "\n".join(lines) + "\n"


def render_metrics_table(rows: Sequence[tuple[str, CategoryMetrics]]) -> str:
    """Aligned category/precision/recall/F1 table, scores at two decimals."""
    body = [
        (
            category,
            f"{round_half_up(metrics.precision):.2f}",
            f"{round_half_up(metrics.recall):.2f}",
            f"{round_half_up(metrics.f1):.2f}",
        )
        for category, metrics in rows
    ]
    return _format_table(("Category", "Precision", "Recall", "F1"), body)


def render_error_table(counts: Mapping[tuple[Step, str], int]) -> str:
    body = [
        (step.value, category, str(count)) for (step, category), count in counts.items()
    ]
    return _format_table(("Step", "Error", "Count"), body)


def render_mode_table(table: Mapping[str, Mapping[str, int]]) -> str:
    """Criterion rows by mode columns; rows in fixed criterion order."""
    body = [
        (criterion, *(str(table[criterion][mode]) for mode in COMPARED_MODES))
        for criterion in table
    ]
    header = ("Criterion", *(mode.capitalize() for mode in COMPARED_MODES))
    return _format_table(header, body)
