"""Evaluation harness: error tallies, attribute-selection metrics, and
mode-vs-mode criterion comparisons, as ``reviewlens eval`` prints them.

Everything here is pure aggregation over annotation files and pipeline
outputs. Annotators work against a closed rubric per step; anything outside
it is rejected at load time with a line position. Every file ``eval`` reads
is parsed here with the checks of ``inputs``: the gold, annotation and
scores files, and a run's manifests and extractions (``load_run_dir``; no
score needs a report, so none is opened), so an error names the file and
the JSON path in it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .domain import ExtractedAttribute, normalize_key
from .errors import DataFormatError, OutOfRangeError, ProductMismatchError
from .inputs import (
    build,
    check_choice,
    check_list,
    check_number,
    check_object,
    check_string,
    optional,
    read_json,
    read_jsonl,
    required,
)


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
        normalized = frozenset((normalize_key(key), value.strip()) for key, value in self.gold)
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
    product_id: str, annotations: Iterable[CriterionAnnotation]
) -> dict[str, dict[str, int]]:
    """Per-criterion lapse counts for each mode, as criterion -> mode -> count.

    Every annotation must cover ``product_id``. Every criterion/mode cell is
    present even when zero, so tables stay rectangular.
    """
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


def load_error_annotations(path: Path | str) -> list[ErrorAnnotation]:
    """One ErrorAnnotation per JSON line; an error names ``<file>:<line>``."""
    return read_jsonl(path, _read_error_annotation)


def _read_error_annotation(record: Any) -> ErrorAnnotation:
    return ErrorAnnotation(
        product_id=required(record, "product_id", "", check_string),
        step=Step(required(record, "step", "", check_choice, [step.value for step in Step])),
        error_category=required(record, "error_category", "", check_string),
        review_id=optional(record, "review_id", "", check_string),
        note=optional(record, "note", "", check_string, default=""),
    )


def load_criterion_annotations(path: Path | str) -> list[CriterionAnnotation]:
    return read_jsonl(path, _read_criterion_annotation)


def _read_criterion_annotation(record: Any) -> CriterionAnnotation:
    return CriterionAnnotation(
        product_id=required(record, "product_id", "", check_string),
        mode=required(record, "mode", "", check_string),
        criterion=required(record, "criterion", "", check_string),
        note=optional(record, "note", "", check_string, default=""),
    )


def load_gold_sets(path: Path | str) -> dict[tuple[str, str], GoldAttributeSet]:
    """Gold file: {"products": [{"product_id", "reviews": [{"review_id",
    "gold": [{"attribute", "value"}, ...]}]}]} keyed here by
    (product_id, review_id)."""
    return read_json(path, _read_gold_sets)


def _read_gold_sets(payload: Any) -> dict[tuple[str, str], GoldAttributeSet]:
    products = required(payload, "products", "", check_list, _read_gold_product)
    sets: dict[tuple[str, str], GoldAttributeSet] = {}
    for p_index, reviews in enumerate(products):
        for r_index, gold in enumerate(reviews):
            if sets.setdefault((gold.product_id, gold.review_id), gold) is not gold:
                where = f"products[{p_index}].reviews[{r_index}]"
                raise DataFormatError(f"{where}: duplicate review_id {gold.review_id!r}")
    return sets


def _read_gold_product(record: Any, name: str) -> list[GoldAttributeSet]:
    product_id = required(record, "product_id", name, check_string)
    return required(record, "reviews", name, check_list, _read_gold_review, product_id)


def _read_gold_review(record: Any, name: str, product_id: str) -> GoldAttributeSet:
    return GoldAttributeSet(
        product_id=product_id,
        review_id=required(record, "review_id", name, check_string),
        gold=frozenset(required(record, "gold", name, check_list, _read_gold_pair)),
    )


def _read_gold_pair(record: Any, name: str) -> tuple[str, str]:
    attribute, value = _read_pair(record, name)
    return build(f"{name}.attribute", normalize_key, attribute), value


@dataclass(frozen=True, slots=True)
class ProductRun:
    """A product directory of a run: its manifest's mode, whether it holds
    a ``report.json`` (never opened), and its (attribute, value) pairs by
    review, None when ``extractions.json`` is absent."""

    mode: str
    reported: bool
    predictions: Mapping[str, frozenset[tuple[str, str]]] | None


def load_run_dir(run_dir: Path) -> dict[str, ProductRun]:
    """Each product directory of ``run_dir`` that holds a manifest, by its
    name, which is the product id its manifest names. Every manifest must
    name the same mode."""
    if not run_dir.is_dir():
        raise DataFormatError(f"run directory {run_dir} does not exist")
    runs: dict[str, ProductRun] = {}
    for manifest in sorted(run_dir.glob("*/manifest.json")):
        product_dir = manifest.parent
        extractions = product_dir / "extractions.json"
        runs[product_dir.name] = ProductRun(
            read_json(manifest, _read_manifest, product_dir.name),
            (product_dir / "report.json").is_file(),
            read_json(extractions, _read_predictions) if extractions.is_file() else None,
        )
    if not runs:
        raise DataFormatError(f"run directory {run_dir} holds no product manifests")
    if len(modes := sorted({run.mode for run in runs.values()})) > 1:
        raise DataFormatError(f"run directory {run_dir} mixes modes: {', '.join(modes)}")
    return runs


def _read_manifest(payload: Any, product_dir: str) -> str:
    """The mode of a manifest that names its own directory's product."""
    product_id = required(payload, "product_id", "", check_string)
    if product_id != product_dir:
        raise DataFormatError(f"product_id: {product_id!r} is not its directory's name {product_dir!r}")
    return required(payload, "mode", "", check_choice, COMPARED_MODES)


def _read_predictions(payload: Any) -> dict[str, frozenset[tuple[str, str]]]:
    extractions = optional(payload, "extractions", "", check_object, default={})
    return {
        review_id: frozenset(check_list(rows, f"extractions.{review_id}", _read_pair))
        for review_id, rows in extractions.items()
    }


def _read_pair(record: Any, name: str) -> tuple[str, str]:
    attribute = required(record, "attribute", name, check_string)
    return attribute, required(record, "value", name, check_string)


def category_metrics_rows(
    runs: Mapping[str, ProductRun],
    gold: Mapping[tuple[str, str], GoldAttributeSet],
    categories: Mapping[str, str],
) -> list[tuple[str, CategoryMetrics]]:
    """Attribute-selection metrics of one run against the gold sets, pooled
    per category (``categories`` maps a product id to its dataset category;
    a product missing from it is pooled under its own id)."""
    pooled: dict[str, list[int]] = {}
    for product_id, run in runs.items():
        if run.predictions is None:
            continue
        category = categories.get(product_id, product_id)
        review_ids = set(run.predictions)
        review_ids.update(rid for pid, rid in gold if pid == product_id)
        for review_id in review_ids:
            gold_set = gold.get((product_id, review_id))
            gold_pairs = gold_set.gold if gold_set else frozenset()
            counts = selection_counts(run.predictions.get(review_id, ()), gold_pairs)
            pooled[category] = [a + b for a, b in zip(pooled.get(category, (0, 0, 0)), counts)]
    return [(category, metrics_from_counts(*pooled[category])) for category in sorted(pooled)]


def scores_table(path: Path) -> str:
    """The metrics table of a scores file: a JSON array of {"category",
    "precision", "recall"} rows, or an object holding it as "rows". F1 is
    computed from each row's precision and recall."""
    return render_metrics_table(read_json(path, _read_score_rows))


def _read_score_rows(payload: Any) -> list[tuple[str, CategoryMetrics]]:
    if isinstance(payload, dict):
        return required(payload, "rows", "", check_list, _read_score_row)
    return check_list(payload, "rows", _read_score_row)


def _read_score_row(record: Any, name: str) -> tuple[str, CategoryMetrics]:
    category = required(record, "category", name, check_string)
    precision = required(record, "precision", name, check_number, 0.0, 1.0)
    recall = required(record, "recall", name, check_number, 0.0, 1.0)
    return category, CategoryMetrics(precision, recall, f1(precision, recall))


def mode_comparison(
    run_payloads: Sequence[Mapping[str, ProductRun]], criteria_path: Path, product_id: str | None
) -> str:
    """The criterion table for one product shared by a full, a baseline
    and an ablated run."""
    by_mode = {next(iter(runs.values())).mode: runs for runs in run_payloads}
    if missing := sorted(set(COMPARED_MODES) - set(by_mode)):
        raise DataFormatError(f"mode comparison needs one run dir per mode; missing {missing}")
    shared = set.intersection(*(set(runs) for runs in run_payloads))
    if product_id is None:
        if len(shared) != 1:
            raise DataFormatError(
                f"pass --product to choose among shared products {sorted(shared)}"
            )
        product_id = next(iter(shared))
    elif product_id not in shared:
        raise DataFormatError(f"product {product_id!r} is not present in every run dir")

    if lacking := [mode for mode in COMPARED_MODES if not by_mode[mode][product_id].reported]:
        raise DataFormatError(f"{lacking[0]} run for {product_id} lacks report.json")
    annotations = load_criterion_annotations(criteria_path)
    annotations = [annotation for annotation in annotations if annotation.product_id == product_id]
    table = compare_modes(product_id, annotations)
    return f"Mode comparison for {product_id}:\n" + render_mode_table(table)


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
