"""Stage three: key collection, grouping prompt, and total parsing."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.domain import (
    OTHER_CATEGORY,
    ComparedAttribute,
    ComparisonStatus,
    ExtractedAttribute,
)
from reviewlens.errors import MalformedOutputError
from reviewlens.gateway import ResponseFormat
from reviewlens.grouping import (
    build_grouping_prompt,
    collect_unique_keys,
    parse_grouping_response,
)


def compared(key: str, value: str = "x", review_id: str = "r1") -> ComparedAttribute:
    return ComparedAttribute(
        attribute=ExtractedAttribute(key=key, value=value, review_id=review_id),
        status=ComparisonStatus.MISSING,
        justification="",
    )


def groups(*rows: tuple[str, str]) -> str:
    return json.dumps({"groups": [{"attribute": k, "category": c} for k, c in rows]})


class TestCollectUniqueKeys:
    def test_sorted_and_deduplicated(self):
        items = [compared("weight"), compared("color"), compared("weight", "y", "r2")]
        assert collect_unique_keys(items) == ["color", "weight"]

    def test_empty(self):
        assert collect_unique_keys([]) == []


class TestPromptBuild:
    def test_contents(self):
        request = build_grouping_prompt(["battery_life", "color"], model="m-lite")
        assert request.response_format is ResponseFormat.JSON_OBJECT
        assert "battery_life" in request.user_prompt
        assert "color" in request.user_prompt
        assert request.model == "m-lite"

    def test_values_never_leak_into_prompt(self):
        request = build_grouping_prompt(["color"], model="m")
        assert "navy blue" not in request.user_prompt

    def test_empty_keys_rejected(self):
        with pytest.raises(ValueError):
            build_grouping_prompt([], model="m")


class TestParseTotality:
    def test_happy_path(self):
        assignment = parse_grouping_response(
            groups(("color", "Appearance"), ("weight", "Physical Attributes")),
            ["color", "weight"],
        )
        assert assignment.get("color", OTHER_CATEGORY) == "Appearance"
        assert assignment.get("weight", OTHER_CATEGORY) == "Physical Attributes"

    def test_omitted_key_falls_back_to_other(self):
        notes: list[str] = []
        assignment = parse_grouping_response(
            groups(("color", "Appearance")), ["color", "scent"], diagnostics=notes
        )
        assert assignment.get("scent", OTHER_CATEGORY) == OTHER_CATEGORY
        assert any("scent" in n for n in notes)

    def test_unknown_key_dropped(self):
        notes: list[str] = []
        assignment = parse_grouping_response(
            groups(("color", "Appearance"), ("finish", "Appearance")),
            ["color"],
            diagnostics=notes,
        )
        assert assignment == {"color": "Appearance"}
        assert any("finish" in n for n in notes)

    def test_duplicate_first_wins(self):
        notes: list[str] = []
        assignment = parse_grouping_response(
            groups(("color", "Appearance"), ("color", "Design")),
            ["color"],
            diagnostics=notes,
        )
        assert assignment.get("color", OTHER_CATEGORY) == "Appearance"
        assert any("duplicate" in n for n in notes)

    def test_blank_category_becomes_other(self):
        assignment = parse_grouping_response(groups(("color", "   ")), ["color"])
        assert assignment.get("color", OTHER_CATEGORY) == OTHER_CATEGORY

    def test_non_object_rows_skipped(self):
        text = json.dumps({"groups": ["loose", {"attribute": "color", "category": "Appearance"}]})
        notes: list[str] = []
        assignment = parse_grouping_response(text, ["color"], diagnostics=notes)
        assert assignment.get("color", OTHER_CATEGORY) == "Appearance"
        assert any("not an object" in n for n in notes)

    @pytest.mark.parametrize("text", ["not json", '{"groups": "nope"}', "[]"])
    def test_structurally_broken_rejected(self, text):
        with pytest.raises(MalformedOutputError):
            parse_grouping_response(text, ["color"])


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.text(alphabet="abcdefgh_", min_size=1, max_size=8).map(lambda s: s.strip("_") or "k"),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    data=st.data(),
)
def test_assignment_always_total(keys, data):
    """Whatever subset the model answers for, every input key gets a category."""
    answered = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    rows = [(k, "Bucket") for k, keep in zip(keys, answered) if keep]
    assignment = parse_grouping_response(groups(*rows), keys)
    assert set(assignment) == set(keys)
    for key, keep in zip(keys, answered):
        expected = "Bucket" if keep else OTHER_CATEGORY
        assert assignment.get(key, OTHER_CATEGORY) == expected
