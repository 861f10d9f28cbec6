"""Loading and rendering of the versioned prompt templates.

Templates are plain text files under ``reviewlens/prompts/`` with a
``<<<system>>>`` / ``<<<user>>>`` split and ``$placeholder`` substitution
(``string.Template`` keeps literal JSON braces safe). ``render_prompt`` is
the one place a stage request is built: it renders both halves of a
template into a JSON-mode ``ChatRequest`` for the given model, at the
request's default temperature of 0. Every system template renders
``PROMPT_VERSION`` into its text, so editing a template or bumping that
constant changes request fingerprints and invalidates caches and fixtures.
Neither the temperature nor the version is configurable: a cached or
recorded answer stands for exactly one request.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from string import Template

from .gateway import ChatRequest, ResponseFormat

PROMPT_VERSION = "v1"

_PROMPTS_DIR = Path(__file__).parent / "prompts"

_SYSTEM_MARKER = "<<<system>>>"
_USER_MARKER = "<<<user>>>"


@lru_cache(maxsize=None)
def _load_template(name: str) -> tuple[Template, Template]:
    path = _PROMPTS_DIR / f"{name}.txt"
    text = path.read_text(encoding="utf-8")
    if _SYSTEM_MARKER not in text or _USER_MARKER not in text:
        raise ValueError(f"template {name!r} must contain system and user sections")
    _, rest = text.split(_SYSTEM_MARKER, 1)
    system_text, user_text = rest.split(_USER_MARKER, 1)
    return Template(system_text.strip()), Template(user_text.strip())


def render_prompt(name: str, *, model: str, **variables: str) -> ChatRequest:
    """Render the named template into the stage's JSON-mode request."""
    system_template, user_template = _load_template(name)
    variables["prompt_version"] = PROMPT_VERSION
    return ChatRequest(
        model=model,
        system_prompt=system_template.substitute(**variables),
        user_prompt=user_template.substitute(**variables),
        response_format=ResponseFormat.JSON_OBJECT,
    )
