"""Failure domain for the review-insight pipeline.

Every exception that callers are expected to branch on lives here. The
request path retries ``TransportError``, ``RateLimitedError`` and
``MalformedOutputError`` (``gateway.complete_with_retry``). A pipeline step
fails on ``ExhaustedRetriesError``, once that budget is spent, or on a
``GatewayError`` that is not retried; any other error reaches the run's
caller.
"""

from __future__ import annotations


class EmptyKeyError(ValueError):
    """Raised when an attribute name normalizes to nothing."""


class MalformedOutputError(Exception):
    """Model output that cannot be parsed into the expected structure.

    Retried: re-sampling frequently repairs malformed generations.
    """


class UnknownStatusError(MalformedOutputError):
    """A comparison status label outside the closed four-variant set."""


class OutOfRangeError(ValueError):
    """A metric argument fell outside [0.0, 1.0]."""


class ProductMismatchError(ValueError):
    """An annotation passed to a cross-mode comparison covers another product."""


class DataFormatError(ValueError):
    """An input file violates its documented schema. Message carries position."""


class GatewayError(Exception):
    """Base class for chat-backend failures."""


class TransportError(GatewayError):
    """Network-level failure or a provider response we cannot use."""


class RateLimitedError(GatewayError):
    """Provider signalled throttling (HTTP 429)."""


class AuthFailedError(GatewayError):
    """Credential missing or rejected. Never retried."""


class NoFixtureError(GatewayError):
    """Replay backend had no recorded response; signals test misconfiguration."""


class ExhaustedRetriesError(Exception):
    """All retry attempts failed; wraps the last underlying error."""

    def __init__(self, attempts: int, last_error: BaseException):
        super().__init__(f"gave up after {attempts} attempt(s): {last_error}")
        self.attempts = attempts
        self.last_error = last_error
