"""Tolerant JSON extraction from chat-model output.

Models asked for a JSON object occasionally wrap it in a markdown code fence
or surround it with prose. This module recovers the object when possible and
raises ``MalformedOutputError`` when it cannot.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import MalformedOutputError

_FENCE = re.compile(r"```(?:json)?\s*(.*?)\s*```", re.DOTALL)


def load_json_object(text: str) -> dict[str, Any]:
    """Parse ``text`` into a JSON object, stripping fences and stray prose."""
    if not isinstance(text, str) or not text.strip():
        raise MalformedOutputError("empty model output")
    candidate = text.strip()
    fenced = _FENCE.search(candidate)
    if fenced:
        candidate = fenced.group(1)
    else:
        start = candidate.find("{")
        end = candidate.rfind("}")
        if start == -1 or end <= start:
            raise MalformedOutputError("no JSON object found in model output")
        candidate = candidate[start : end + 1]
    try:
        parsed = json.loads(candidate)
    # Besides a syntax error: an integer past int's digit limit (ValueError)
    # and nesting past the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise MalformedOutputError(f"invalid JSON in model output: {exc}") from exc
    if not isinstance(parsed, dict):
        raise MalformedOutputError("model output is valid JSON but not an object")
    return parsed


def require_array(obj: dict[str, Any], field: str) -> list[Any]:
    """Return ``obj[field]`` if it is a JSON array, else raise."""
    value = obj.get(field)
    if not isinstance(value, list):
        raise MalformedOutputError(f"expected a JSON array under {field!r}")
    return value


def coerce_scalar(value: Any) -> str | None:
    """Render a JSON scalar as a string; None for null/containers."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return None
