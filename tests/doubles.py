"""Test doubles: backends that count calls, script answers and failures, or
inject scheduling jitter.

A backend in ``reviewlens`` keeps no count of its calls. ``CountingBackend``
wraps one to give a test its own count, independent of the ``CallStats``
the pipeline keeps, so the two can be checked against each other. Nothing
here sleeps except JitterBackend, and that only by a seeded RNG.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Sequence

from reviewlens.gateway import ChatBackend, ChatRequest, ChatResponse


class CountingBackend:
    """Delegates to an inner backend, counting every call that reaches it,
    failed ones included."""

    def __init__(self, inner: ChatBackend):
        self.inner = inner
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self._calls += 1
        return self._answer(request)

    def _answer(self, request: ChatRequest) -> ChatResponse:
        return self.inner.complete(request)


class ScriptedBackend:
    """Plays back a fixed sequence: a string is returned as the response
    text, an exception instance is raised. Exhausting the script is a test
    authoring error. ``calls`` is the number of requests it was sent."""

    def __init__(self, script: Sequence[str | Exception]):
        self._script = list(script)
        self._lock = threading.Lock()
        self.requests: list[ChatRequest] = []

    @property
    def calls(self) -> int:
        with self._lock:
            return len(self.requests)

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.requests.append(request)
            if not self._script:
                raise AssertionError("scripted backend exhausted")
            step = self._script.pop(0)
        if isinstance(step, Exception):
            raise step
        return ChatResponse(text=step, model=request.model)


class SelectiveFailureBackend(CountingBackend):
    """Delegates to an inner backend except where the predicate supplies an
    error to raise; simulates one unit failing while the rest succeed. Its
    count includes the calls it fails."""

    def __init__(self, inner: ChatBackend, fail_with: Callable[[ChatRequest], Exception | None]):
        super().__init__(inner)
        self._fail_with = fail_with

    def _answer(self, request: ChatRequest) -> ChatResponse:
        error = self._fail_with(request)
        if error is not None:
            raise error
        return self.inner.complete(request)


class JitterBackend:
    """Adds seeded random latency before delegating, shuffling task
    completion order without touching results."""

    def __init__(self, inner: ChatBackend, *, seed: int, max_delay_ms: int = 10):
        self.inner = inner
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._max_delay_ms = max_delay_ms

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            delay = self._rng.uniform(0, self._max_delay_ms)
        time.sleep(delay / 1000.0)
        return self.inner.complete(request)
