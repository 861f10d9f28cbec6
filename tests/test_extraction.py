"""Step one: extraction prompt construction and response parsing."""

from __future__ import annotations

import json

import pytest

from reviewlens.domain import ProductRecord, Review
from reviewlens.errors import MalformedOutputError, TransportError
from reviewlens.extraction import (
    EXTRACTION_SCHEMA,
    build_extraction_prompt,
    parse_extraction_response,
)
from reviewlens.gateway import ResponseFormat
from reviewlens.pipeline import PipelineConfig, PipelineMode, run_product
from reviewlens.testing import ScriptedBackend

REVIEW = Review("r9", "The tray is bamboo and holds 2 liters.")


class TestPromptBuild:
    def test_contents(self):
        request = build_extraction_prompt(REVIEW, "Breakfast Tray", model="m-1")
        assert request.response_format is ResponseFormat.JSON_OBJECT
        assert request.temperature == 0.0
        assert "Breakfast Tray" in request.user_prompt
        assert REVIEW.text in request.user_prompt
        assert EXTRACTION_SCHEMA in request.user_prompt
        assert "Instruction set: v1" in request.system_prompt


class TestParse:
    def test_normalizes_and_orders(self):
        text = json.dumps(
            {"attributes": [
                {"attribute": "Tray Material", "value": "bamboo"},
                {"attribute": "Capacity", "value": " 2 liters "},
            ]}
        )
        attrs = parse_extraction_response(text, "r9")
        assert [(a.key, a.value, a.review_id) for a in attrs] == [
            ("tray_material", "bamboo", "r9"),
            ("capacity", "2 liters", "r9"),
        ]
        assert attrs[0].raw_key == "Tray Material"

    def test_fenced_payload_accepted(self):
        text = '```json\n{"attributes": []}\n```'
        assert parse_extraction_response(text, "r9") == []

    def test_scalar_coercion(self):
        text = json.dumps({"attributes": [
            {"attribute": "Speeds", "value": 6},
            {"attribute": "Cordless", "value": True},
        ]})
        attrs = parse_extraction_response(text, "r9")
        assert [(a.key, a.value) for a in attrs] == [("speeds", "6"), ("cordless", "true")]

    def test_empty_or_null_values_dropped(self):
        text = json.dumps({"attributes": [
            {"attribute": "Color", "value": ""},
            {"attribute": "Color", "value": None},
            {"attribute": "Color", "value": "red"},
        ]})
        attrs = parse_extraction_response(text, "r9")
        assert [(a.key, a.value) for a in attrs] == [("color", "red")]

    def test_blank_key_rows_dropped(self):
        text = json.dumps({"attributes": [
            {"attribute": "  ", "value": "x"},
            {"attribute": "Color", "value": "red"},
        ]})
        attrs = parse_extraction_response(text, "r9")
        assert [(a.key, a.value) for a in attrs] == [("color", "red")]

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"wrong_field": []}',
            '{"attributes": {"attribute": "a"}}',
            '{"attributes": ["loose string"]}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedOutputError):
            parse_extraction_response(text, "r9")

    def test_duplicates_preserved(self):
        text = json.dumps({"attributes": [
            {"attribute": "Color", "value": "red"},
            {"attribute": "Color", "value": "red"},
        ]})
        assert len(parse_extraction_response(text, "r9")) == 2


class TestExtractAttributes:
    """Extraction as the pipeline runs it, in a one-review ablated run."""

    @staticmethod
    def _run(backend, fast_retry):
        product = ProductRecord("p9", "T", "Misc", "A bamboo tray.", reviews=(REVIEW,))
        return run_product(product, PipelineConfig(mode=PipelineMode.ABLATED, retry=fast_retry), backend)

    def test_success(self, fast_retry):
        backend = ScriptedBackend([
            json.dumps({"attributes": [{"attribute": "Size", "value": "XL"}]}),
            json.dumps({"sections": []}),
        ])
        result = self._run(backend, fast_retry)
        assert result.failed_units == ()
        assert [(a.key, a.value) for a in result.extractions["r9"]] == [("size", "XL")]

    def test_permanent_failure_becomes_failed_unit(self, fast_retry):
        backend = ScriptedBackend([TransportError("down")] * 3)
        result = self._run(backend, fast_retry)
        assert result.failed_units == ("r9",)
        assert any("r9" in note and "extraction failed" in note for note in result.diagnostics)

    def test_malformed_then_recovered(self, fast_retry):
        backend = ScriptedBackend(["garbage", json.dumps({"attributes": []})])
        result = self._run(backend, fast_retry)
        assert result.extractions == {"r9": ()}
        assert backend.calls == 2
