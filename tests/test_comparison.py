"""Step two: comparison prompt construction, strict parsing, repair rules."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.comparison import (
    OMITTED_JUSTIFICATION,
    build_comparison_prompt,
    parse_comparison_response,
)
from reviewlens.domain import ComparisonStatus, ExtractedAttribute, ProductRecord, Review
from reviewlens.errors import MalformedOutputError, TransportError
from reviewlens.gateway import ResponseFormat
from reviewlens.pipeline import PipelineConfig, run_product

from doubles import ScriptedBackend

DESCRIPTION = "A 300 watt mixer with a 5-quart bowl."


def attr(key: str, value: str, review_id: str = "r1") -> ExtractedAttribute:
    return ExtractedAttribute(key=key, value=value, review_id=review_id)


def row(attribute: str, value: str, status: str, justification: str = "") -> dict:
    return {
        "attribute": attribute,
        "value": value,
        "status": status,
        "justification": justification,
    }


def payload(*rows: dict) -> str:
    return json.dumps({"results": list(rows)})


class TestPromptBuild:
    def test_contents(self):
        attrs = [attr("motor_power", "300 watts"), attr("color", "red")]
        request = build_comparison_prompt(attrs, DESCRIPTION, model="m-1")
        assert request.response_format is ResponseFormat.JSON_OBJECT
        assert DESCRIPTION in request.user_prompt
        assert "motor_power" in request.user_prompt
        assert "300 watts" in request.user_prompt
        assert "Instruction set: v1" in request.system_prompt

    def test_empty_attribute_list_rejected(self):
        with pytest.raises(ValueError):
            build_comparison_prompt([], DESCRIPTION, model="m-1")


class TestParseHappyPath:
    def test_joins_on_normalized_key_and_value(self):
        attrs = [attr("motor_power", "300 watts")]
        text = payload(row("Motor Power", " 300 watts ", "Matching", "Stated directly."))
        notes: list[str] = []
        compared = parse_comparison_response(text, attrs, diagnostics=notes)
        assert notes == []
        assert len(compared) == 1
        got = compared[0]
        assert got.attribute.key == "motor_power"
        assert got.status is ComparisonStatus.MATCHING
        assert got.justification == "Stated directly."

    def test_cardinality_preserved_with_duplicates(self):
        attrs = [attr("color", "red", "r1"), attr("color", "red", "r2")]
        text = payload(
            row("color", "red", "Contradictory", "Description says silver."),
            row("color", "red", "Contradictory", "Description says silver."),
        )
        notes: list[str] = []
        compared = parse_comparison_response(text, attrs, diagnostics=notes)
        assert notes == []
        assert [c.attribute.review_id for c in compared] == ["r1", "r2"]

    def test_status_aliases_accepted(self):
        attrs = [attr("weight", "2 kg")]
        text = payload(row("weight", "2 kg", "partially matching", "Close enough."))
        compared = parse_comparison_response(text, attrs)
        assert compared[0].status is ComparisonStatus.PARTIALLY_MATCHING


class TestRepairRules:
    def test_omitted_pair_defaults_to_missing(self):
        attrs = [attr("color", "red"), attr("weight", "2 kg")]
        text = payload(row("color", "red", "Matching", "Seen."))
        notes: list[str] = []
        compared = parse_comparison_response(text, attrs, diagnostics=notes)
        assert len(compared) == 2
        defaulted = compared[1]
        assert defaulted.status is ComparisonStatus.MISSING
        assert defaulted.justification == OMITTED_JUSTIFICATION
        assert any("weight" in n for n in notes)

    def test_hallucinated_row_dropped_with_note(self):
        attrs = [attr("color", "red")]
        text = payload(
            row("color", "red", "Matching", "Seen."),
            row("finish", "matte", "Matching", "Invented."),
        )
        notes: list[str] = []
        compared = parse_comparison_response(text, attrs, diagnostics=notes)
        assert [c.attribute.key for c in compared] == ["color"]
        assert any("finish" in n for n in notes)

    def test_row_whose_key_normalizes_to_empty_is_dropped(self):
        attrs = [attr("color", "red")]
        notes: list[str] = []
        text = payload(row("---", "red", "Matching", "Seen."))
        compared = parse_comparison_response(text, attrs, diagnostics=notes)
        assert [(c.attribute.key, c.status) for c in compared] == [("color", ComparisonStatus.MISSING)]
        assert compared[0].justification == OMITTED_JUSTIFICATION
        assert any("'---'" in n and "dropped" in n for n in notes)
        assert any("'color'" in n and "defaulted to Missing" in n for n in notes)

    def test_output_order_follows_input_not_response(self):
        attrs = [attr("a_key", "1"), attr("b_key", "2")]
        text = payload(
            row("b_key", "2", "Missing"),
            row("a_key", "1", "Matching", "Seen."),
        )
        compared = parse_comparison_response(text, attrs)
        assert [c.attribute.key for c in compared] == ["a_key", "b_key"]


class TestStrictRejection:
    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            '{"results": "nope"}',
            '{"results": [42]}',
            json.dumps({"results": [{"attribute": "a", "value": "1", "status": "Sideways"}]}),
            json.dumps({"results": [{"attribute": "a", "status": "Matching"}]}),
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedOutputError):
            parse_comparison_response(text, [attr("a", "1")])

    def test_contradictory_requires_justification(self):
        attrs = [attr("color", "red")]
        text = payload(row("color", "red", "Contradictory", "   "))
        with pytest.raises(MalformedOutputError, match="justification"):
            parse_comparison_response(text, attrs)

    def test_missing_may_have_blank_justification(self):
        attrs = [attr("color", "red")]
        compared = parse_comparison_response(payload(row("color", "red", "Missing")), attrs)
        assert compared[0].justification == ""


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.sampled_from(["color", "weight", "size", "finish", "grip"]),
        min_size=1,
        max_size=6,
    ),
    coverage=st.data(),
)
def test_cardinality_invariant(keys, coverage):
    """However many rows the model returns, one output per input pair."""
    attrs = [attr(k, str(i)) for i, k in enumerate(keys)]
    answered = coverage.draw(st.lists(st.booleans(), min_size=len(attrs), max_size=len(attrs)))
    rows = [
        row(a.key, a.value, "Matching", "Seen.")
        for a, keep in zip(attrs, answered)
        if keep
    ]
    compared = parse_comparison_response(json.dumps({"results": rows}), attrs)
    assert len(compared) == len(attrs)


class TestCompareReview:
    """Comparison as the pipeline runs it, in a one-review full run."""

    @staticmethod
    def _run(backend, fast_retry):
        product = ProductRecord(
            "p4", "Mixer", "Kitchen", DESCRIPTION, reviews=(Review("r4", "Red, and it weighs 2 kg."),)
        )
        return run_product(product, PipelineConfig(retry=fast_retry), backend)

    @staticmethod
    def _extracted(*pairs):
        return json.dumps({"attributes": [{"attribute": k, "value": v} for k, v in pairs]})

    def test_empty_attrs_short_circuits(self, fast_retry):
        backend = ScriptedBackend([self._extracted()])
        result = self._run(backend, fast_retry)
        assert result.failed_units == ()
        assert result.report.insights == ()
        assert backend.calls == 1

    def test_permanent_failure_becomes_failed_unit(self, fast_retry):
        backend = ScriptedBackend([self._extracted(("color", "red"))] + [TransportError("down")] * 3)
        result = self._run(backend, fast_retry)
        assert result.failed_units == ("r4",)
        assert any("r4" in note and "comparison failed" in note for note in result.diagnostics)

    def test_success_routes_notes_to_diagnostics(self, fast_retry):
        backend = ScriptedBackend([
            self._extracted(("color", "red"), ("weight", "2 kg")),
            payload(row("color", "red", "Matching", "Seen.")),
            json.dumps({"groups": [
                {"attribute": "color", "category": "Looks"},
                {"attribute": "weight", "category": "Build"},
            ]}),
        ])
        result = self._run(backend, fast_retry)
        assert result.failed_units == ()
        assert len(result.report.insights) == 2
        assert len(result.diagnostics) == 1
