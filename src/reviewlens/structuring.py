"""Stage four: deterministic, rule-based report assembly. Zero LLM calls.

Compared attributes merge into insights on the (key, status) identity:
values deduplicate preserving first appearance, evidence review ids are
sorted and unique, justifications concatenate in input (review) order.
Reports order sections by the fixed status order with actionable
discrepancies first, categories lexicographically, insights by key, and
render to byte-reproducible JSON or Markdown.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Iterable, Sequence

from .domain import (
    REPORT_STATUS_ORDER,
    AttributeKey,
    CategoryAssignment,
    CategoryGroup,
    ComparedAttribute,
    ComparisonStatus,
    Insight,
    ReportSection,
    StructuredReport,
    canonical_json_bytes,
    normalize_key,
    parse_status,
    render_status,
)
from .errors import EmptyKeyError, UnknownStatusError
from .llm_json import coerce_scalar, load_json_object, require_array


# One (key, status, values, evidence, justifications) row to merge.
_Row = tuple[AttributeKey, ComparisonStatus, Iterable[str], Iterable[str], Iterable[str]]


class ReportFormat(enum.Enum):
    JSON = "json"
    MARKDOWN = "markdown"


def merge_insights(compared: Sequence[ComparedAttribute]) -> list[Insight]:
    """Merge compared attributes into uncategorized insights.

    Identity is (key, status); the input sequence must already be in review
    order, which the pipeline guarantees by concatenating per-review batches
    in dataset order. Returned insights carry an empty category placeholder
    that build_report resolves.
    """
    return _merge_rows(
        (c.attribute.key, c.status, [c.attribute.value], [c.attribute.review_id], [c.justification])
        for c in compared
    )


def _merge_rows(rows: Iterable[_Row]) -> list[Insight]:
    """Fold (key, status, values, evidence, justifications) rows into
    uncategorized insights, one per (key, status) in first-seen order.
    Values deduplicate in arrival order, evidence is unique and sorted, and
    non-blank justifications are kept in order."""
    merged: dict[tuple[AttributeKey, ComparisonStatus], tuple[dict[str, None], set[str], list[str]]] = {}
    for key, status, values, evidence, justifications in rows:
        kept_values, kept_evidence, kept_justifications = merged.setdefault(
            (key, status), ({}, set(), [])
        )
        kept_values.update(dict.fromkeys(values))
        kept_evidence.update(evidence)
        kept_justifications.extend(j for j in justifications if j.strip())
    return [
        Insight(
            key=key,
            values=tuple(values),
            status=status,
            category="",
            evidence=sorted(evidence),
            justifications=justifications,
        )
        for (key, status), (values, evidence, justifications) in merged.items()
    ]


def build_report(
    insights: Iterable[Insight], categories: CategoryAssignment, *, product_id: str
) -> StructuredReport:
    """Attach categories and impose the canonical ordering.

    Every status section is always present. Keys absent from the assignment
    land in the "Other" category. Output depends only on the set of insights
    and the assignment, never on input order.
    """
    by_status: dict[ComparisonStatus, dict[str, dict[AttributeKey, Insight]]] = {
        status: {} for status in REPORT_STATUS_ORDER
    }
    for insight in insights:
        placed = replace(insight, category=insight.category or categories.category_for(insight.key))
        by_status[insight.status].setdefault(placed.category, {})[insight.key] = placed
    sections = tuple(
        ReportSection(
            status=status,
            groups=tuple(
                CategoryGroup(
                    category=category,
                    insights=tuple(
                        by_status[status][category][key]
                        for key in sorted(by_status[status][category])
                    ),
                )
                for category in sorted(by_status[status])
            ),
        )
        for status in REPORT_STATUS_ORDER
    )
    return StructuredReport(product_id=product_id, sections=sections)


def render_report(report: StructuredReport, fmt: ReportFormat) -> bytes:
    """Render the report body to bytes; identical inputs give identical bytes."""
    if fmt is ReportFormat.JSON:
        return canonical_json_bytes(report.to_dict())
    if fmt is ReportFormat.MARKDOWN:
        return _render_markdown(report).encode("utf-8")
    raise ValueError(f"unsupported report format: {fmt!r}")


def _render_markdown(report: StructuredReport) -> str:
    lines: list[str] = [f"# Listing insight report: {report.product_id}", ""]
    for section in report.sections:
        lines.append(f"## {render_status(section.status)}")
        lines.append("")
        if not section.groups:
            lines.append("*(no entries)*")
            lines.append("")
            continue
        for group in section.groups:
            lines.append(f"### {group.category}")
            lines.append("")
            for insight in group.insights:
                rendered_values = "; ".join(insight.values)
                lines.append(f"- **{insight.key}** = {rendered_values}")
                lines.append(f"  - evidence: {', '.join(insight.evidence)}")
                for justification in insight.justifications:
                    lines.append(f"  - note: {justification}")
            lines.append("")
    return "\n".join(lines)


def parse_report_sections(
    text: str,
    valid_review_ids: Sequence[str],
    *,
    diagnostics: list[str] | None = None,
) -> tuple[list[Insight], CategoryAssignment]:
    """Best-effort parse of a model-produced whole-report payload.

    Used by the single-call pipeline modes. Raises MalformedOutputError only
    when there is no usable ``sections`` array at all; individual broken
    rows are skipped with diagnostics. Insights whose evidence cites no
    known review id are dropped: fabricated citations must not reach the
    report. Rows merge on (key, status) and the first category seen for a
    key wins.
    """
    notes = diagnostics if diagnostics is not None else []
    payload = load_json_object(text)
    sections = require_array(payload, "sections")
    known = set(valid_review_ids)

    report_rows: list[_Row] = []
    category_by_key: dict[AttributeKey, str] = {}

    for section in sections:
        if not isinstance(section, dict):
            notes.append("report section is not an object; skipped")
            continue
        try:
            status = parse_status(section.get("status"))
        except UnknownStatusError:
            notes.append(f"report section has unusable status {section.get('status')!r}; skipped")
            continue
        groups = section.get("categories")
        if not isinstance(groups, list):
            notes.append(f"report section {render_status(status)} lacks categories; skipped")
            continue
        for group in groups:
            if not isinstance(group, dict):
                notes.append("category group is not an object; skipped")
                continue
            label = coerce_scalar(group.get("category"))
            label = label.strip() if label else ""
            rows = group.get("insights")
            if not isinstance(rows, list):
                notes.append(f"category {label!r} lacks an insights array; skipped")
                continue
            for row in rows:
                parsed = _parse_insight_row(row, status, known, notes)
                if parsed is None:
                    continue
                report_rows.append(parsed)
                if label:
                    category_by_key.setdefault(parsed[0], label)

    return _merge_rows(report_rows), CategoryAssignment(mapping=category_by_key)


def _parse_insight_row(
    row: object,
    status: ComparisonStatus,
    known_review_ids: set[str],
    notes: list[str],
) -> _Row | None:
    if not isinstance(row, dict):
        notes.append("insight row is not an object; skipped")
        return None
    raw_key = coerce_scalar(row.get("attribute"))
    if raw_key is None:
        notes.append("insight row lacks an attribute name; skipped")
        return None
    try:
        key = normalize_key(raw_key)
    except EmptyKeyError:
        notes.append(f"insight attribute {raw_key!r} normalizes to empty; skipped")
        return None

    values: list[str] = []
    raw_values = row.get("values")
    if isinstance(raw_values, list):
        for item in raw_values:
            value = coerce_scalar(item)
            if value and value.strip() and value.strip() not in values:
                values.append(value.strip())
    else:
        single = coerce_scalar(row.get("value"))
        if single and single.strip():
            values.append(single.strip())
    if not values:
        notes.append(f"insight {key!r} has no usable values; skipped")
        return None

    evidence: list[str] = []
    raw_evidence = row.get("evidence")
    if isinstance(raw_evidence, list):
        for item in raw_evidence:
            review_id = coerce_scalar(item)
            if review_id is None:
                continue
            if review_id in known_review_ids:
                evidence.append(review_id)
            else:
                notes.append(f"insight {key!r} cites unknown review {review_id!r}; citation dropped")
    if not evidence:
        notes.append(f"insight {key!r} has no valid evidence; skipped")
        return None

    justifications: list[str] = []
    raw_justifications = row.get("justifications")
    if isinstance(raw_justifications, list):
        for item in raw_justifications:
            justification = coerce_scalar(item)
            if justification and justification.strip():
                justifications.append(justification)
    else:
        single = coerce_scalar(row.get("justification"))
        if single and single.strip():
            justifications.append(single)

    return key, status, values, evidence, justifications
