"""Loading and rendering of the versioned prompt templates.

Templates are plain text files under ``reviewlens/prompts/`` with a
``<<<system>>>`` / ``<<<user>>>`` split and ``$placeholder`` substitution
(``string.Template`` keeps literal JSON braces safe). ``render_prompt`` is
the one place a stage request is built: it renders both halves of a
template into a JSON-mode ``ChatRequest`` for the given model and
temperature. Every system template renders the configured
``prompt_version`` into its text, so editing a template or bumping the
version changes request fingerprints and invalidates caches and fixtures.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from string import Template

from .gateway import ChatRequest, ResponseFormat

DEFAULT_PROMPT_VERSION = "v1"

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


def render_prompt(name: str, *, model: str, temperature: float, **variables: str) -> ChatRequest:
    """Render the named template into the stage's JSON-mode request."""
    system_template, user_template = _load_template(name)
    return ChatRequest(
        model=model,
        system_prompt=system_template.substitute(**variables),
        user_prompt=user_template.substitute(**variables),
        temperature=temperature,
        response_format=ResponseFormat.JSON_OBJECT,
    )
