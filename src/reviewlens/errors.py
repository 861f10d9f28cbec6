"""Failure domain for the review-insight pipeline.

Every exception that callers are expected to branch on lives here.

Retry classification works through the ``kind`` attribute: policies hold a
set of retryable kind strings and test errors against it without needing
``isinstance`` ladders.
"""

from __future__ import annotations


class EmptyKeyError(ValueError):
    """Raised when an attribute name normalizes to nothing."""


class MalformedOutputError(Exception):
    """Model output that cannot be parsed into the expected structure.

    Classified retryable by default: re-sampling frequently repairs
    malformed generations.
    """

    kind = "malformed_output"


class UnknownStatusError(MalformedOutputError):
    """A comparison status label outside the closed four-variant set."""


class OutOfRangeError(ValueError):
    """A metric argument fell outside [0.0, 1.0]."""


class ProductMismatchError(ValueError):
    """Results passed to a cross-mode comparison describe different products."""


class DataFormatError(ValueError):
    """An input file violates its documented schema. Message carries position."""


class GatewayError(Exception):
    """Base class for chat-backend failures."""

    kind = "gateway"


class TransportError(GatewayError):
    """Network-level failure or a provider response we cannot use."""

    kind = "transport"


class RateLimitedError(GatewayError):
    """Provider signalled throttling (HTTP 429)."""

    kind = "rate_limited"


class AuthFailedError(GatewayError):
    """Credential missing or rejected. Never retryable."""

    kind = "auth_failed"


class NoFixtureError(GatewayError):
    """Replay backend had no recorded response; signals test misconfiguration."""

    kind = "no_fixture"


class ExhaustedRetriesError(Exception):
    """All retry attempts failed; wraps the last underlying error."""

    kind = "exhausted_retries"

    def __init__(self, attempts: int, last_error: BaseException):
        super().__init__(f"gave up after {attempts} attempt(s): {last_error}")
        self.attempts = attempts
        self.last_error = last_error
