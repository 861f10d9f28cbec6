"""Hypothesis fuzzing of the readers of model output: ``load_json_object``
and the four stage parsers.

Text is drawn from a grammar over the real response shapes and then
mutated: fields dropped, types changed, unicode, nesting, long numbers,
fences, prose and truncation. Every parse returns or raises
``MalformedOutputError``, nothing else, and what it returns, raises and
notes depends on the text alone."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewlens.comparison import parse_comparison_response
from reviewlens.domain import ExtractedAttribute
from reviewlens.errors import MalformedOutputError
from reviewlens.extraction import parse_extraction_response
from reviewlens.grouping import parse_grouping_response
from reviewlens.llm_json import load_json_object
from reviewlens.structuring import parse_report_sections


class Raw(str):
    """A token that goes into the JSON text as it is."""


def dump(value) -> str:
    """``value`` as JSON text, each ``Raw`` token verbatim."""
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k, ensure_ascii=False)}: {dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value, ensure_ascii=False)


REVIEW_IDS = ["r1", "r2", "r3"]
ATTRIBUTES = [
    ExtractedAttribute(key="battery_life", value="8 hours", review_id="r1"),
    ExtractedAttribute(key="weight", value="2 kg", review_id="r1"),
    ExtractedAttribute(key="battery_life", value="8 hours", review_id="r1"),
    ExtractedAttribute(key="colour", value="red", review_id="r1"),
]
KEYS = ["battery_life", "cafe", "colour", "weight"]


def _pool(*samples: str) -> st.SearchStrategy[str]:
    return st.sampled_from(samples) | st.text(max_size=12)


names = _pool("battery_life", "Battery-Life", " battery  life ", "weight", "Colour", "café", "ﬁt", "---", " ")
values = _pool("8 hours", " 8 hours ", "2 kg", "red", "", " ")
statuses = _pool("Matching", "partially-matching", " CONTRADICTORY ", "missing", "mismatch")
categories = _pool("Power", "Size", "Other", "", " ")
review_ids = _pool(*REVIEW_IDS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["NaN", "-Infinity", "1e999", "-0.0"]).map(Raw)
    | st.integers(1, 5000).map(lambda digits: Raw("9" * digits))
)
any_json = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _rows(field: str, **row: st.SearchStrategy) -> st.SearchStrategy[dict]:
    return st.fixed_dictionaries({field: st.lists(st.fixed_dictionaries(row), max_size=4)})


insight = st.fixed_dictionaries(
    {"attribute": names, "evidence": st.lists(review_ids, max_size=3)},
    optional={
        "values": st.lists(values, max_size=3),
        "value": values,
        "justifications": st.lists(values, max_size=2),
        "justification": values,
    },
)
group = st.fixed_dictionaries({"category": categories, "insights": st.lists(insight, max_size=3)})
SHAPES = {
    "extraction": _rows("attributes", attribute=names, value=values),
    "comparison": _rows("results", attribute=names, value=values, status=statuses, justification=values),
    "grouping": _rows("groups", attribute=st.sampled_from(KEYS) | names, category=categories),
    "report": st.fixed_dictionaries(
        {"sections": st.lists(st.fixed_dictionaries({"status": statuses, "categories": st.lists(group, max_size=2)}), max_size=3)}
    ),
}


@st.composite
def mutated(draw, value):
    """``value`` with each node kept, recursed into (a dict may lose and
    gain keys), given another type, or nested deep in arrays."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "retype", "nest"]))
    if how == "retype":
        return draw(any_json)
    if how == "nest":
        depth = draw(st.integers(1, 3000))
        return Raw("[" * depth + dump(value) + "]" * depth)
    if isinstance(value, dict):
        kept = {k: draw(mutated(v)) for k, v in value.items() if draw(st.booleans()) or draw(st.booleans())}
        return kept | draw(st.dictionaries(st.text(max_size=6), any_json, max_size=1))
    if isinstance(value, list):
        return [draw(mutated(item)) for item in value]
    return value


@st.composite
def model_output(draw, shape: st.SearchStrategy[dict]) -> str:
    text = dump(draw(mutated(draw(shape))))
    wrap = draw(st.sampled_from(["{}", "```json\n{}\n```", "Here it is: {} Hope that helps.", "```\n{}"]))
    text = wrap.replace("{}", text, 1)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


PARSERS = {
    "load_json_object": lambda text, notes: load_json_object(text),
    "extraction": lambda text, notes: parse_extraction_response(text, "r1"),
    "comparison": lambda text, notes: parse_comparison_response(text, ATTRIBUTES, diagnostics=notes),
    "grouping": lambda text, notes: parse_grouping_response(text, KEYS, diagnostics=notes),
    "report": lambda text, notes: parse_report_sections(text, REVIEW_IDS, diagnostics=notes),
}


def _outcome(parse, text: str):
    """What ``parse`` makes of ``text``: its result or its MalformedOutputError,
    with the notes it wrote. Any other error propagates."""
    notes: list[str] = []
    try:
        result = parse(text, notes)
    except MalformedOutputError as exc:
        result = (type(exc), str(exc))
    return result, notes


@pytest.mark.parametrize("parser", PARSERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_reader_returns_or_raises_malformed_output_alone(parser, data):
    shape = SHAPES.get(parser, st.one_of(*SHAPES.values()))
    text = data.draw(model_output(shape) | st.text(max_size=40), label="text")
    assert _outcome(PARSERS[parser], text) == _outcome(PARSERS[parser], text)


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize(
    "text",
    [
        pytest.param('{"attributes": ' + "[" * 100_000 + "}", id="nesting-past-the-recursion-limit"),
        pytest.param('{"attributes": ' + "9" * 4301 + "}", id="integer-past-the-digit-limit"),
    ],
)
def test_json_that_python_cannot_hold_is_malformed_output(parser, text):
    with pytest.raises(MalformedOutputError, match="invalid JSON in model output"):
        PARSERS[parser](text, [])
